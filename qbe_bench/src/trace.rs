//! Spans recorded from outside the program: one per call into a layer's
//! public functions, kept in memory and written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the call belongs to (shared by all its spans).
    pub request: u32,
    /// Span id, unique in the run (ids start at 1).
    pub id: u32,
    /// Enclosing span, 0 for a request's root.
    pub parent: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans. Disabled, it runs the closures and reads no
/// clock, which is the untraced replay.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    next_id: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            next_id: 1,
        }
    }

    /// Sets the request id for the spans that follow.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            request: self.request,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Everything recorded, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span derived times.
pub struct Analysis<'a> {
    /// The spans.
    pub spans: &'a [Span],
    /// Self time of each span (duration minus its children's), by index.
    pub self_ns: Vec<u64>,
    /// Index of each span id.
    by_id: HashMap<u32, usize>,
}

impl<'a> Analysis<'a> {
    /// Computes self times.
    pub fn new(spans: &'a [Span]) -> Analysis<'a> {
        let by_id: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(&p) = by_id.get(&s.parent) {
                child_ns[p] += s.dur_ns();
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect();
        Analysis {
            spans,
            self_ns,
            by_id,
        }
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of the spans named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self.self_ns[i] as f64 / 1e6)
            .collect()
    }

    /// Whether span `i` lies under a span named `ancestor`.
    pub fn under(&self, mut i: usize, ancestor: &str) -> bool {
        while let Some(&p) = self.by_id.get(&self.spans[i].parent) {
            if self.spans[p].name == ancestor {
                return true;
            }
            i = p;
        }
        false
    }
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}
