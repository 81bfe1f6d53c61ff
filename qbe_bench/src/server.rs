//! The served system: `tdess serve` as a child process on a snapshot
//! the benchmark wrote.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tdess_net::{NetClient, NetClientConfig};

/// Process ids of the servers now running, for [`kill_all`].
static RUNNING: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every running server (the watchdog's last act before exiting).
pub fn kill_all() {
    let pids = RUNNING.lock().map(|p| p.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// A running `tdess serve`. Killed and reaped on drop.
pub struct Served {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
}

/// Client settings used everywhere: no silent retries, so every failure
/// is counted.
pub fn client_config() -> NetClientConfig {
    NetClientConfig {
        retry_on_disconnect: false,
        ..NetClientConfig::default()
    }
}

impl Served {
    /// Starts `tdess serve <snapshot>` on an ephemeral loopback port and
    /// returns once a `Ping` has been answered.
    pub fn start(tdess: &Path, snapshot: &Path, log: &Path) -> Result<Served, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(tdess)
            .arg("serve")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .env("TDESS_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tdess.display()))?;
        RUNNING
            .lock()
            .expect("server registry poisoned")
            .push(child.id());
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        // From here on the child is reaped by `Served::drop` on every path.
        let mut served = Served {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        served.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let pong = NetClient::connect(served.addr, client_config()).and_then(|mut c| c.ping());
            match pong {
                Ok(()) => return Ok(served),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("server never answered: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak resident set size of the server so far (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut pids) = RUNNING.lock() {
            pids.retain(|&p| p != self.child.id());
        }
    }
}
