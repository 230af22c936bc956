//! Wall-clock spans for the traced run: the benchmark opens one around
//! every call it makes into a layer, keeps them in memory and writes
//! them out at the end. A span's layer is its name up to the first `.`
//! (`service.settle` belongs to `service`).
//!
//! Timing goes through [`rtm_obs::Stopwatch`], the workspace's one
//! sanctioned wall-clock reader. A disabled [`Tracer`] records nothing,
//! so the untraced replays run the same code with one branch per call.

use rtm_obs::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.call`, e.g. `fleet.run`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "a span stays open until passed to Tracer::exit"]
pub struct Open(Option<usize>);

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; its clock starts now.
    pub fn enabled() -> Self {
        Tracer {
            clock: Some(Stopwatch::start()),
            ..Tracer::disabled()
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(clock) = &self.clock else {
            return Open(None);
        };
        let id = self.spans.len();
        let start = clock.elapsed_secs();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start,
            end: start,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let (Some(clock), Some(id)) = (&self.clock, span.0) else {
            return;
        };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = clock.elapsed_secs();
    }

    /// Runs `f` inside a span named `name`; for calls that open no
    /// spans of their own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, in seconds: each span's duration minus its
/// direct children's, summed by layer. Spans nest strictly, so the
/// children lie inside their parent and do not overlap.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += s.secs();
        if let Some(parent) = s.parent.and_then(|p| spans.get(p)) {
            *out.entry(parent.layer()).or_insert(0.0) -= s.secs();
        }
    }
    out
}

/// The spans as JSON lines: name, layer, start and end in µs, parent
/// and run id.
pub fn to_jsonl(spans: &[Span], run_id: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\": \"{run_id}\", \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
             \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id,
            s.name,
            s.layer(),
            s.start * 1e6,
            s.end * 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // bench [0,10] holds service [1,3] (which holds core [1.5,2])
        // and service [5,8].
        let spans = vec![
            span(0, None, "bench.replay", 0.0, 10.0),
            span(1, Some(0), "service.settle", 1.0, 3.0),
            span(2, Some(1), "core.inner", 1.5, 2.0),
            span(3, Some(0), "service.depart", 5.0, 8.0),
        ];
        let by_layer = self_secs_by_layer(&spans);
        assert!((by_layer["bench"] - 5.0).abs() < 1e-12);
        // settle 2 - 0.5 (its child) + depart 3.
        assert!((by_layer["service"] - 4.5).abs() < 1e-12);
        assert!((by_layer["core"] - 0.5).abs() < 1e-12);
        // Self times add up to the root's duration.
        let total: f64 = by_layer.values().sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut t = Tracer::enabled();
        let root = t.enter("bench.replay");
        let v = t.leaf("fleet.run", || 7);
        let inner = t.enter("service.settle");
        let plan = t.enter("core.plan");
        t.exit(plan);
        t.exit(inner);
        t.exit(root);
        assert_eq!(v, 7);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("bench.replay", None),
                ("fleet.run", Some(0)),
                ("service.settle", Some(0)),
                ("core.plan", Some(2)),
            ]
        );
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        assert_eq!(t.spans()[1].layer(), "fleet");

        let mut off = Tracer::disabled();
        let s = off.enter("bench.replay");
        assert_eq!(off.leaf("fleet.run", || 3), 3);
        off.exit(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![
            span(0, None, "bench.replay", 0.0, 1.0),
            span(1, Some(0), "fleet.run", 0.25, 0.5),
        ];
        let text = to_jsonl(&spans, "fleet-scale-s1");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0"));
        assert!(lines[1].contains("\"start_us\": 250000.000"));
        assert!(lines[1].contains("\"run\": \"fleet-scale-s1\""));
    }
}
