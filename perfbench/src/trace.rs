//! Bench-side tracing: spans around every call into a hypart layer, and a
//! counting sink that tallies the engine's pass-level events.
//!
//! Spans live in memory and are written out when the run ends. The sink
//! reports `is_enabled() == false`, so the engines never build per-move
//! events; it only sees the bracket and pass events they always emit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use hypart_trace::json::JsonValue;
use hypart_trace::{RunEvent, TraceSink};

/// One timed call: `[start_ns, end_ns)` relative to the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Start index (batch) or job id (serve) the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing
/// and costs one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, job);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured interval as a closed span.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied(),
            job,
        });
    }

    /// Moves this tracer's spans into `all`, re-basing parent indices.
    pub fn drain_into(&mut self, all: &mut Vec<Span>) {
        let base = all.len();
        all.extend(self.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.stack.clear();
    }
}

/// Per-name totals over a span set: summed duration and self time (the
/// span minus the spans of its children, which never overlap because
/// children nest on the parent's thread).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.ns() as f64 / 1e6;
        e.1 += s.ns().saturating_sub(c) as f64 / 1e6;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(JsonValue::Null, |p| p.into());
        let line = JsonValue::object([
            ("id", i.into()),
            ("name", JsonValue::string(s.name)),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            ("parent", parent),
            ("job", s.job.into()),
        ]);
        writeln!(w, "{line}")?;
    }
    w.flush()
}

/// Pass-level tallies of one flat refinement (`RunBegin` … `RunEnd`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTally {
    pub passes: u64,
    pub moves: u64,
    pub rolled_back: u64,
    pub corked: u64,
}

impl RunTally {
    pub fn add(&mut self, o: &RunTally) {
        self.passes += o.passes;
        self.moves += o.moves;
        self.rolled_back += o.rolled_back;
        self.corked += o.corked;
    }

    /// Share of tentative moves that survived rollback.
    pub fn kept_frac(&self) -> f64 {
        if self.moves == 0 {
            0.0
        } else {
            1.0 - self.rolled_back as f64 / self.moves as f64
        }
    }
}

#[derive(Default)]
struct SinkState {
    runs: Vec<RunTally>,
    shards_aborted: u64,
}

/// Counts the events a disabled sink still receives: one tally per flat
/// refinement run, in engine order, plus aborted parallel shards.
#[derive(Default)]
pub struct CountingSink {
    state: RefCell<SinkState>,
}

impl CountingSink {
    /// Returns the tallies recorded since the last call and clears them.
    pub fn take(&self) -> (Vec<RunTally>, u64) {
        let mut s = self.state.borrow_mut();
        let shards = std::mem::take(&mut s.shards_aborted);
        (std::mem::take(&mut s.runs), shards)
    }
}

impl TraceSink for CountingSink {
    fn emit(&self, event: RunEvent) {
        let mut s = self.state.borrow_mut();
        match event {
            RunEvent::RunBegin { .. } => s.runs.push(RunTally::default()),
            RunEvent::PassEnd {
                moves_made,
                moves_rolled_back,
                corked,
                ..
            } => {
                if let Some(t) = s.runs.last_mut() {
                    t.passes += 1;
                    t.moves += moves_made as u64;
                    t.rolled_back += moves_rolled_back as u64;
                    t.corked += u64::from(corked);
                }
            }
            RunEvent::ShardAborted { .. } => s.shards_aborted += 1,
            _ => {}
        }
    }

    fn is_enabled(&self) -> bool {
        false
    }
}
