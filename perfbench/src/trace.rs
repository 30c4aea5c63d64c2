//! Benchmark-side tracing: spans recorded around each call the
//! benchmark makes into a SPROUT layer, kept in memory and written out
//! when the run ends.
//!
//! Every call into a layer's public function runs on the benchmark's
//! own thread, so spans nest strictly and one stack gives each span its
//! parent. A disabled tracer records nothing and adds one branch per
//! call.

use sprout_telemetry::json::Obj;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or benchmark-phase name (`core.route`, `bench.iteration`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The work item (board, sweep, job) the span belongs to.
    pub iteration: u64,
}

impl Span {
    /// Inclusive duration in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Name of the root span that brackets one work item.
pub const ITERATION: &str = "bench.iteration";

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between work items (the traced run
    /// interleaves untraced items to measure tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when recording is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, span: Option<usize>) {
        let Some(idx) = span else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Attributes later spans to work item `iteration`.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    /// Opens the root span of work item `iteration`.
    pub fn begin_iteration(&mut self, iteration: u64) -> Option<usize> {
        self.iteration = iteration;
        self.enter(ITERATION)
    }

    /// Self time of each span (ms): its duration minus the part of it
    /// that its children cover. Children of one span never overlap,
    /// because the spans come from a single thread.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur_ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| (s.dur_ms() - c).max(0.0))
            .collect()
    }

    /// Per work item, the summed self time (ms) of every span named
    /// like a layer (any span but the iteration root).
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(self.self_ms()) {
            if s.name != ITERATION {
                *out.entry(s.name)
                    .or_default()
                    .entry(s.iteration)
                    .or_insert(0.0) += self_ms;
            }
        }
        out
    }

    /// Per traced work item: (wall ms, unaccounted ms) — the root
    /// span's duration and the part of it no layer span covers.
    pub fn iteration_walls(&self) -> Vec<(f64, f64)> {
        let self_ms = self.self_ms();
        self.spans
            .iter()
            .zip(self_ms)
            .filter(|(s, _)| s.name == ITERATION)
            .map(|(s, own)| (s.dur_ms(), own))
            .collect()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `iteration`, `self_ms`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let mut o = Obj::new();
            o.u64("id", i as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("iteration", s.iteration)
                .f64("self_ms", own);
            if let Some(p) = s.parent {
                o.u64("parent", p as u64);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events with
    /// microsecond timestamps), loadable in `chrome://tracing` or
    /// Perfetto.
    pub fn to_chrome(&self) -> String {
        let events = self.spans.iter().map(|s| {
            let mut args = Obj::new();
            args.u64("iteration", s.iteration);
            let mut o = Obj::new();
            o.str("name", s.name)
                .str("ph", "X")
                .f64("ts", s.start_ns as f64 / 1e3)
                .f64("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("args", &args.finish());
            o.finish()
        });
        let mut o = Obj::new();
        o.raw("traceEvents", &sprout_telemetry::json::array(events));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, it: u64) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            iteration: it,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn unaccounted_is_item_wall_minus_layer_spans() {
        let t = tracer_with(vec![
            span(ITERATION, 0, 100, None, 0),
            span("core.route", 5, 65, Some(0), 0),
            span("core.drc", 70, 95, Some(0), 0),
        ]);
        assert_eq!(t.self_ms(), vec![15.0, 60.0, 25.0]);
        // Wall 100 ms, of which 15 ms (0–5, 65–70, 95–100) sits in no
        // layer call.
        assert_eq!(t.iteration_walls(), vec![(100.0, 15.0)]);
    }

    #[test]
    fn layer_self_time_sums_per_iteration() {
        let t = tracer_with(vec![
            span(ITERATION, 0, 50, None, 0),
            span("core.route", 0, 20, Some(0), 0),
            span("core.route", 20, 30, Some(0), 0),
            span(ITERATION, 50, 90, None, 1),
            span("core.route", 50, 85, Some(3), 1),
        ]);
        let layers = t.layer_self_ms();
        let route = &layers["core.route"];
        assert_eq!(route[&0], 30.0);
        assert_eq!(route[&1], 35.0);
        assert!(!layers.contains_key(ITERATION));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let it = t.begin_iteration(3);
        let v = t.time("core.route", || 7);
        t.exit(it);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn live_spans_nest_and_export() {
        let mut t = Tracer::new(true);
        let it = t.begin_iteration(4);
        t.time("core.route", t_sleep);
        t.exit(it);
        let s = &t.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].iteration, 4);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        let chrome = sprout_telemetry::json::parse(&t.to_chrome()).expect("valid JSON");
        let events = chrome.get("traceEvents").and_then(|e| e.as_array());
        assert_eq!(events.map(|e| e.len()), Some(2));
    }

    fn t_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
