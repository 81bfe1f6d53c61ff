//! `qbe-bench` — the end-to-end benchmark of query-by-example over the
//! wire. Normally started through `run.py`, which builds it and `tdess`:
//!
//! ```text
//! qbe-bench --tdess <tdess binary> --spec <spec.json> --workdir <dir>
//!           --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--benchmark BENCHMARK.json] [--rev R]
//! ```
//!
//! With `--trace 0` it builds the workload's database, serves it with
//! `tdess serve`, drives it with an open loop and a closed loop over
//! loopback TCP, checks every reply and prints the end-to-end metrics.
//! With `--trace 1` it replays the same request sequence through the
//! layers' public functions in-process, timing each call as a span, and
//! prints the per-layer metrics. The last line of stdout is the JSON
//! result. Exit code 0: every check passed; 1: a check failed; 2: the
//! benchmark could not run.

mod check;
mod inputs;
mod load;
mod mirror;
mod server;
mod spec;
mod stats;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tdess_core::{bulk_insert, save_to_path_as, ShapeDatabase, ShapeId, SnapshotFormat};
use tdess_features::FeatureExtractor;
use tdess_net::Request;

use crate::check::Gate;
use crate::inputs::{Base, Inputs, Kind};
use crate::load::{Phase, Sample, WriteAct};
use crate::server::Served;
use crate::spec::{Spec, WorkloadSpec};
use crate::stats::{beyond, json_num, json_str, median, quantile, Metrics};

/// Voxel resolution of every database (the repository's experiments use 48).
const RESOLUTION: usize = 48;

/// Closed-loop blocks interleaved with the open loop.
const PEAK_BLOCKS: usize = 5;

/// Share of `--seconds` spent in the closed-loop blocks; the rest is the
/// open loop.
const PEAK_SHARE: f64 = 0.2;

/// Client connections (one thread each) of every phase; the host the
/// benchmark was tuned on has two CPUs.
pub const CONNECTIONS: usize = 2;

/// `k` of one-shot top-k queries.
pub const TOP_K: usize = 10;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    tdess: PathBuf,
    spec: String,
    workdir: PathBuf,
    benchmark: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
        tdess: PathBuf::new(),
        spec: String::new(),
        workdir: PathBuf::new(),
        benchmark: "BENCHMARK.json".into(),
        rev: "unknown".into(),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => args.seconds = num(value)?,
            "--trace" => args.trace = value == "1",
            "--tdess" => args.tdess = value.into(),
            "--spec" => args.spec = value.clone(),
            "--workdir" => args.workdir = value.into(),
            "--benchmark" => args.benchmark = value.clone(),
            "--rev" => args.rev = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() || args.spec.is_empty() || args.tdess.as_os_str().is_empty() {
        return Err("need --workload, --spec and --tdess".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A run that has not finished by then is stopped (the limit is 180 s).
const WATCHDOG_SECS: u64 = 170;

fn main() -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("qbe-bench: still running after {WATCHDOG_SECS} s; stopping");
        server::kill_all();
        std::process::exit(2);
    });
    let result = parse_args().and_then(|args| {
        let spec = Spec::load(&args.spec)?;
        let w = spec.workload(&args.workload)?.clone();
        std::fs::create_dir_all(&args.workdir)
            .map_err(|e| format!("{}: {e}", args.workdir.display()))?;
        if args.trace {
            traced::run(&args, &spec, &w)
        } else {
            run_untraced(&args, &spec, &w)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qbe-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The extractor of every database.
pub fn extractor() -> FeatureExtractor {
    FeatureExtractor {
        voxel_resolution: RESOLUTION,
        ..Default::default()
    }
}

/// Worker threads used to extract the paper database at set-up.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A finished set-up: the server, its snapshot and the times taken.
pub struct Setup {
    /// The running server.
    pub served: Served,
    /// Snapshot it loaded.
    pub snapshot: PathBuf,
    /// Database build, seconds.
    pub build_s: f64,
    /// Snapshot save, seconds.
    pub save_s: f64,
    /// Snapshot size, bytes.
    pub bytes: u64,
    /// Ids of the base shapes, in build order.
    pub ids: Vec<ShapeId>,
    /// From the start of the build to the first `Pong`, seconds.
    pub total_s: f64,
}

/// Builds the database from the workload's inputs, saves its snapshot and
/// serves it. The inputs are copied before the clock starts.
pub fn setup(args: &Args, base: &Base) -> Result<Setup, String> {
    let snapshot = args.workdir.join(format!("{}.tdss", args.workload));
    let log = args.workdir.join(format!("{}.log", args.workload));
    let mut db = ShapeDatabase::new(extractor());
    let (t0, ids) = match base {
        Base::Paper(shapes) => {
            let shapes = shapes.clone();
            let t0 = Instant::now();
            (
                t0,
                bulk_insert(&mut db, shapes, threads()).map_err(|e| e.to_string())?,
            )
        }
        Base::Synth(shapes) => {
            let shapes = shapes.clone();
            let t0 = Instant::now();
            (t0, db.insert_batch_precomputed(shapes))
        }
    };
    let build_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    save_to_path_as(&db, &snapshot, SnapshotFormat::Binary).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    drop(db);
    let served = Served::start(&args.tdess, &snapshot, &log)?;
    let total_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    Ok(Setup {
        served,
        snapshot,
        build_s,
        save_s,
        bytes,
        ids,
        total_s,
    })
}

/// Generates the run's inputs (not timed as set-up).
pub fn make_inputs(
    args: &Args,
    spec: &Spec,
    w: &WorkloadSpec,
) -> Result<(u64, f64, f64, Inputs), String> {
    let seed = args.seed.unwrap_or(spec.default_seed);
    let peak_seconds = args.seconds * PEAK_SHARE;
    let open_seconds = args.seconds - peak_seconds;
    let inputs = inputs::generate(w, seed, &extractor(), open_seconds, peak_seconds)?;
    Ok((seed, open_seconds, peak_seconds, inputs))
}

/// The header every run prints first.
pub fn header(
    args: &Args,
    spec: &Spec,
    w: &WorkloadSpec,
    seed: u64,
    samples: &[(&str, usize, f64)],
    late_p99_ms: Option<f64>,
    extra: &[(&str, String)],
) -> String {
    let counts: Vec<String> = samples
        .iter()
        .map(|(name, n, q)| {
            format!(
                "{}: {{\"n\": {n}, \"beyond\": {}}}",
                json_str(name),
                beyond(*n, *q)
            )
        })
        .collect();
    let mut fields = vec![
        ("benchmark", json_str("qbe_bench")),
        ("workload", json_str(&w.name)),
        ("why", json_str(&w.why)),
        ("trace", args.trace.to_string()),
        ("seed", seed.to_string()),
        ("default_seed", spec.default_seed.to_string()),
        ("git_rev", json_str(&args.rev)),
        ("available_parallelism", threads().to_string()),
        ("connections", CONNECTIONS.to_string()),
        ("measured_peak_rps", json_num(w.measured_peak_rps)),
        ("offered_share", json_num(spec::OFFERED_SHARE)),
        ("offered_rps", json_num(w.offered_rps())),
        ("seconds", json_num(args.seconds)),
        ("samples", format!("{{{}}}", counts.join(", "))),
        (
            "harness.late_p99_ms",
            late_p99_ms.map_or("null".into(), json_num),
        ),
        ("rigid_tolerance", json_num(spec.rigid_tolerance.abs)),
        (
            "rigid_tolerance_reason",
            json_str(&spec.rigid_tolerance.reason),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("header {{{}}}", body.join(", "))
}

/// Names of the metrics `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`); only these go into the result line.
pub fn listed_metrics(path: &str, key: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get(key)
        .and_then(serde::Value::as_arr)
        .ok_or_else(|| format!("{path}: no `{key}` list"))?
        .iter()
        .map(|m| match m.get("name") {
            Some(serde::Value::Str(name)) => Ok(name.clone()),
            _ => Err(format!("{path}: a `{key}` entry has no name")),
        })
        .collect()
}

/// Prints the report and the result line; returns whether the run
/// passed. Every metric is printed; the result line carries the `listed`
/// ones, in that order, and a listed metric that was not measured fails
/// the run.
pub fn report(
    header: &str,
    notes: &[String],
    metrics: &Metrics,
    listed: &[String],
    mut gate: Gate,
    attempted: usize,
    failed: usize,
) -> bool {
    let mut result = Metrics::default();
    for name in listed {
        match metrics.0.iter().find(|m| &m.name == name) {
            Some(m) => result.0.push(m.clone()),
            None => gate.fail(format!("listed metric {name} was not measured")),
        }
    }
    println!("{header}");
    for n in notes {
        println!("note {n}");
    }
    for m in &metrics.0 {
        let scope = if listed.contains(&m.name) {
            ""
        } else {
            " (reported, not gated)"
        };
        println!("metric {} {} {}{scope}", m.name, json_num(m.value), m.unit);
    }
    for msg in &gate.messages {
        println!("mismatch {msg}");
    }
    let correct = gate.failed == 0 && result.0.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        stats::result_line(correct, attempted.max(1), failed, &result)
    );
    correct
}

fn run_untraced(args: &Args, spec: &Spec, w: &WorkloadSpec) -> Result<bool, String> {
    let (seed, open_seconds, peak_seconds, inputs) = make_inputs(args, spec, w)?;

    // Set-up, several times; the last server stays up for the run.
    let mut setup_times = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take()); // stop the previous server first
        let s = setup(args, &inputs.base)?;
        setup_times.push(s.total_s);
        kept = Some(s);
    }
    let kept = kept.expect("at least one set-up ran");

    let mut clients = load::connect(kept.served.addr, CONNECTIONS)?;
    let warm = load::warm(&mut clients[0], &inputs.warmup);
    let writes = load::WriteLog::default();
    // The open loop runs in blocks with a closed-loop block after each, so
    // the peak rate samples the whole run rather than its last seconds.
    let (mut open, mut peak) = (Vec::new(), Vec::new());
    let (mut completed, mut window, mut next_peak) = (0usize, 0.0f64, 0usize);
    for b in 0..PEAK_BLOCKS {
        let from = open_seconds * b as f64 / PEAK_BLOCKS as f64;
        let to = open_seconds * (b + 1) as f64 / PEAK_BLOCKS as f64;
        let range = inputs.schedule.partition_point(|&t| t < from)
            ..inputs.schedule.partition_point(|&t| t < to);
        open.extend(load::open_loop(
            &mut clients,
            &inputs.open,
            range,
            &inputs.schedule,
            from,
            &writes,
        ));
        let block = peak_seconds / PEAK_BLOCKS as f64;
        let (samples, done, secs, next) =
            load::closed_loop(&mut clients, &inputs.peak, next_peak, block, &writes);
        peak.extend(samples);
        completed += done;
        window += secs;
        next_peak = next;
    }
    let server_stats = clients[0].stats().map_err(|e| e.to_string())?;
    let rss_mb = kept.served.peak_rss_mb()?;
    drop(clients);
    let (snapshot, base_ids) = (kept.snapshot.clone(), kept.ids.clone());
    drop(kept);

    // The gate: every reply, then the reference sample.
    let records = writes.records();
    let known = check::known_ids(&base_ids, &records);
    let mut gate = Gate::default();
    let mut failed = 0;
    for s in &warm {
        failed += usize::from(!check::check_reply(
            &mut gate,
            &inputs.warmup[s.index],
            s,
            TOP_K,
            &known,
        ));
    }
    let mut ok = vec![false; open.len()];
    for (s, ok) in open.iter().zip(ok.iter_mut()) {
        *ok = check::check_reply(&mut gate, &inputs.open[s.index], s, TOP_K, &known);
        failed += usize::from(!*ok);
    }
    for s in &peak {
        failed += usize::from(!check::check_reply(
            &mut gate,
            &inputs.peak[s.index],
            s,
            TOP_K,
            &known,
        ));
    }
    let reference_db = tdess_core::load_from_path(&snapshot).map_err(|e| e.to_string())?;
    let write_request = |at: (Phase, usize)| -> Request {
        let op = match at.0 {
            Phase::Peak => &inputs.peak[at.1],
            _ => &inputs.open[at.1],
        };
        Request::clone(&op.request)
    };
    let reference = check::check_reference(
        &mut gate,
        reference_db,
        &inputs.open,
        &open,
        &records,
        write_request,
        spec.rigid_tolerance.abs,
    );
    let recall = check::recall_at_10(
        &inputs.open,
        &open,
        &base_ids,
        &inputs.base_family,
        &records,
    );

    // Latency from the due time; a failed request misses every limit.
    let latency = |s: &Sample, ok: bool| {
        if ok {
            (s.done - s.due) * 1e3
        } else {
            f64::INFINITY
        }
    };
    let mut by_class: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    let mut removes = Vec::new();
    for (s, &ok) in open.iter().zip(&ok) {
        let op = &inputs.open[s.index];
        let is_remove = s
            .write
            .is_some_and(|o| !matches!(records[o].act, WriteAct::Insert(_)));
        if op.kind == Kind::Write && is_remove {
            removes.push(latency(s, ok));
        } else {
            by_class
                .entry(op.kind.class())
                .or_default()
                .push(latency(s, ok));
        }
    }
    let class = |c: &str| by_class.get(c).cloned().unwrap_or_default();
    let late: Vec<f64> = open.iter().map(|s| s.late * 1e3).collect();

    let mut metrics = Metrics::default();
    let mut missing = Vec::new();
    metrics.put_opt("setup_s", median(&setup_times), "s", &mut missing);
    // A workload reports only the latency classes its mix produces.
    let mix = &w.mix;
    let produced = [
        ("search", mix.search_mesh + mix.search_features, 0.99, "p99"),
        ("multistep", mix.multistep, 0.9, "p90"),
        ("write", mix.write, 0.9, "p90"),
    ];
    for (c, share, tail, tail_label) in produced {
        if share > 0.0 {
            for (q, label) in [(0.5, "p50"), (tail, tail_label)] {
                metrics.put_opt(
                    &format!("{c}_{label}_ms"),
                    quantile(&class(c), q),
                    "ms",
                    &mut missing,
                );
            }
        }
    }
    metrics.put("peak_rps", completed as f64 / window, "1/s");
    metrics.put_opt("recall_at_10", recall, "ratio", &mut missing);
    metrics.put("server_rss_mb", rss_mb, "MiB");
    for name in &missing {
        gate.fail(format!("metric {name} has no samples"));
    }

    let attempted = warm.len() + open.len() + peak.len();
    let cache = server_stats.cache.unwrap_or_default();
    let notes = vec![
        format!("error_rate {} ratio ({failed} of {attempted})", json_num(failed as f64 / attempted.max(1) as f64)),
        format!(
            "remove_p50_ms {} remove_p90_ms {} (removes: {})",
            quantile(&removes, 0.5).map_or("null".into(), json_num),
            quantile(&removes, 0.9).map_or("null".into(), json_num),
            removes.len()
        ),
        format!("setup_s runs {:?}", setup_times),
        format!("peak phase: {completed} replies in {window:.3} s"),
        format!(
            "reference: {} replies compared, {} rigid copies under tolerance ({} not bit-exact, largest gap {:e})",
            reference.compared, reference.rigid, reference.rigid_inexact, reference.rigid_max_gap
        ),
        format!(
            "server cache: hits {} misses {} coalesced_waits {} resident_bytes {}",
            cache.hits, cache.misses, cache.coalesced_waits, cache.resident_bytes
        ),
    ];
    let head = header(
        args,
        spec,
        w,
        seed,
        &[
            ("search_p50_ms", class("search").len(), 0.5),
            ("search_p99_ms", class("search").len(), 0.99),
            ("multistep_p50_ms", class("multistep").len(), 0.5),
            ("multistep_p90_ms", class("multistep").len(), 0.9),
            ("write_p50_ms", class("write").len(), 0.5),
            ("write_p90_ms", class("write").len(), 0.9),
        ],
        quantile(&late, 0.99),
        &[
            ("open_seconds", json_num(open_seconds)),
            ("peak_seconds", json_num(peak_seconds)),
            ("open_requests", open.len().to_string()),
            (
                "checked_requests",
                inputs.open.iter().filter(|o| o.checked).count().to_string(),
            ),
        ],
    );
    let listed = listed_metrics(&args.benchmark, "end_to_end")?;
    let passed = report(&head, &notes, &metrics, &listed, gate, attempted, failed);
    let _ = std::fs::remove_file(&snapshot);
    Ok(passed)
}
