//! Load generation over the wire: the open loop on the seeded schedule
//! and the closed loop that finds the peak rate. Both use one
//! `NetClient` per connection, each on its own thread.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tdess_core::ShapeId;
use tdess_net::{NetClient, Request, Response};

use crate::inputs::{is_insert, Kind, Op};
use crate::server::client_config;

/// What a write turned into on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAct {
    /// `Insert`; the id the server assigned (if it answered).
    Insert(Option<ShapeId>),
    /// `Remove` of this id.
    Remove(ShapeId),
    /// Nothing was live to remove (an earlier insert failed).
    Skipped,
}

/// One write in the order the server applied it.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// What was sent.
    pub act: WriteAct,
    /// Family of the inserted part.
    pub family: usize,
    /// The op it was sent for, whose `Insert` the reference replays.
    pub op_index: (Phase, usize),
}

/// The phase a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up, before timing.
    Warmup,
    /// The measured open loop.
    Open,
    /// The closed-loop peak phase.
    Peak,
}

/// Serialises writes in ordinal order across connections (one writer
/// session), and counts them so every read knows which database states
/// it could have seen.
#[derive(Default)]
pub struct WriteLog {
    state: Mutex<WriteState>,
    turn: Condvar,
    /// Writes whose reply has arrived.
    acked: AtomicUsize,
    /// Writes whose request has been sent.
    sent: AtomicUsize,
}

#[derive(Default)]
struct WriteState {
    /// Ordinals handed out so far.
    issued: usize,
    /// Ordinal allowed to go next.
    next: usize,
    /// Inserted ids not yet removed, oldest first.
    live: VecDeque<ShapeId>,
    /// Every write, by ordinal.
    records: Vec<WriteRecord>,
}

impl WriteLog {
    /// Writes applied so far, in order.
    pub fn records(&self) -> Vec<WriteRecord> {
        self.state
            .lock()
            .expect("write log poisoned")
            .records
            .clone()
    }
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which sequence and which entry.
    pub phase: Phase,
    /// Index into that sequence.
    pub index: usize,
    /// Seconds from the phase start at which it was due (open loop) or
    /// sent (closed loop).
    pub due: f64,
    /// Seconds from the phase start at which its reply arrived.
    pub done: f64,
    /// Seconds the sender overshot its own wake-up time.
    pub late: f64,
    /// Writes acknowledged before the request was sent.
    pub epoch_lo: usize,
    /// Writes sent before the reply arrived.
    pub epoch_hi: usize,
    /// Write ordinal, for writes.
    pub write: Option<usize>,
    /// The reply, or the transport error.
    pub reply: Result<Response, String>,
}

/// Sends `op` on `client`, taking the write turn for writes.
fn execute(
    client: &mut NetClient,
    op: &Op,
    writes: &WriteLog,
    at: (Phase, usize),
) -> (usize, usize, Option<usize>, Result<Response, String>) {
    if op.kind != Kind::Write {
        let lo = writes.acked.load(Ordering::SeqCst);
        let reply = client.request(&op.request).map_err(|e| e.to_string());
        let hi = writes.sent.load(Ordering::SeqCst);
        return (lo, hi, None, reply);
    }
    let mut state = writes.state.lock().expect("write log poisoned");
    let ordinal = state.issued;
    state.issued += 1;
    while state.next != ordinal {
        state = writes.turn.wait(state).expect("write log poisoned");
    }
    let request = if is_insert(ordinal) {
        Some(Request::clone(&op.request))
    } else {
        state.live.pop_front().map(|id| Request::Remove { id })
    };
    let act = match &request {
        Some(Request::Remove { id }) => WriteAct::Remove(*id),
        Some(_) => WriteAct::Insert(None),
        None => WriteAct::Skipped,
    };
    state.records.push(WriteRecord {
        act,
        family: op.family,
        op_index: at,
    });
    drop(state);
    let lo = writes.acked.load(Ordering::SeqCst);
    writes.sent.fetch_add(1, Ordering::SeqCst);
    let reply = match &request {
        Some(r) => client.request(r).map_err(|e| e.to_string()),
        None => Err("no live insert to remove".to_string()),
    };
    let mut state = writes.state.lock().expect("write log poisoned");
    if let (WriteAct::Insert(_), Ok(Response::Inserted { id })) = (act, &reply) {
        state.records[ordinal].act = WriteAct::Insert(Some(*id));
        state.live.push_back(*id);
    }
    writes.acked.fetch_add(1, Ordering::SeqCst);
    state.next = ordinal + 1;
    drop(state);
    writes.turn.notify_all();
    let hi = writes.sent.load(Ordering::SeqCst);
    (lo, hi, Some(ordinal), reply)
}

/// Opens `n` connections.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<NetClient>, String> {
    (0..n)
        .map(|_| NetClient::connect(addr, client_config()).map_err(|e| e.to_string()))
        .collect()
}

/// Sends `ops` (reads) one after another on one connection (warm-up).
pub fn warm(client: &mut NetClient, ops: &[Op]) -> Vec<Sample> {
    ops.iter()
        .enumerate()
        .map(|(i, r)| Sample {
            phase: Phase::Warmup,
            index: i,
            due: 0.0,
            done: 0.0,
            late: 0.0,
            epoch_lo: 0,
            epoch_hi: 0,
            write: None,
            reply: client.request(&r.request).map_err(|e| e.to_string()),
        })
        .collect()
}

/// The open loop over `ops[range]`: request `i` is due `schedule[i] -
/// offset` seconds after the call, whether or not earlier replies have
/// arrived; a request waits for a free connection, and its latency runs
/// from its due time.
pub fn open_loop(
    clients: &mut [NetClient],
    ops: &[Op],
    range: std::ops::Range<usize>,
    schedule: &[f64],
    offset: f64,
    writes: &WriteLog,
) -> Vec<Sample> {
    let next = AtomicUsize::new(range.start);
    let start = Instant::now() + Duration::from_millis(5);
    let end = range.end;
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let free = Instant::now();
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= end {
                            return out;
                        }
                        let due_s = schedule[i] - offset;
                        let due = start + Duration::from_secs_f64(due_s.max(0.0));
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (lo, hi, write, reply) =
                            execute(client, &ops[i], writes, (Phase::Open, i));
                        let done = Instant::now();
                        out.push(Sample {
                            phase: Phase::Open,
                            index: i,
                            due: due_s,
                            done: done.saturating_duration_since(start).as_secs_f64(),
                            late: sent.saturating_duration_since(due.max(free)).as_secs_f64(),
                            epoch_lo: lo,
                            epoch_hi: hi,
                            write,
                            reply,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// One closed-loop block: every connection sends its next request from
/// `ops[first..]` as soon as the previous reply arrives, for `seconds`.
/// Returns the samples, the replies that arrived inside the window, the
/// window in seconds and the index of the first unused request.
pub fn closed_loop(
    clients: &mut [NetClient],
    ops: &[Op],
    first: usize,
    seconds: f64,
    writes: &WriteLog,
) -> (Vec<Sample>, usize, f64, usize) {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= ops.len() {
                            break;
                        }
                        let sent = Instant::now();
                        let (lo, hi, write, reply) =
                            execute(client, &ops[i], writes, (Phase::Peak, i));
                        let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                        out.push(Sample {
                            phase: Phase::Peak,
                            index: i,
                            due: secs(sent),
                            done: secs(Instant::now()),
                            late: 0.0,
                            epoch_lo: lo,
                            epoch_hi: hi,
                            write,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    let used = next.load(Ordering::SeqCst).min(ops.len());
    let window = if used == ops.len() {
        // The pool ran out: measure up to the last reply instead.
        samples.iter().map(|s| s.done).fold(0.0, f64::max)
    } else {
        seconds
    };
    let completed = samples
        .iter()
        .filter(|s| s.done <= window && s.reply.is_ok())
        .count();
    (samples, completed, window, used)
}
