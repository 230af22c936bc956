//! Metric assembly and output: the end-to-end and per-layer metric
//! lists, the human-readable table and the one-line JSON result.

use crate::spans::{self_secs_by_layer, Span};
use crate::stats::{percentile, valid_metric_name, FastestSegments, Percentile};
use crate::workload::{Detail, Outcome, Totals};
use rtm_obs::Phase;
use std::fmt::Write as _;

/// Whether a metric is measured on the host or computed by the
/// simulation (and therefore exactly repeatable for a seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall time or memory: noisy, bounded.
    Host,
    /// Simulated outcome: deterministic for a workload and seed.
    Sim,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// Host or simulated.
    pub kind: Kind,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        kind,
    }
}

/// Host measurements of the untraced replays.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTimes {
    /// Wall seconds per set-up (trace generation plus system
    /// construction) of every set-up sample.
    pub setup_secs: Vec<f64>,
    /// Wall seconds of every timed replay.
    pub replay_secs: Vec<f64>,
    /// The fastest time of every segment of the timed replays, one
    /// entry per design seed of the run.
    pub segments: Vec<FastestSegments>,
}

impl HostTimes {
    /// Arrivals replayed per host second over one replay of each
    /// design, each made of every segment's fastest time; `arrivals` is
    /// the trace's. The replays of a design do identical work and the
    /// machine's load can only slow it down, so the fastest time is the
    /// steadiest estimate; taking it per segment, not per replay, keeps
    /// a slow spell of the shared host that overlaps every replay of a
    /// run out of the figure.
    pub fn arrivals_per_s(&self, arrivals: usize) -> f64 {
        let secs: f64 = self.segments.iter().map(FastestSegments::total_secs).sum();
        (arrivals * self.segments.len()) as f64 / secs
    }

    /// Set-up seconds of the fastest sample, for the same reason.
    pub fn setup_s(&self) -> f64 {
        self.setup_secs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// The end-to-end metrics the benchmark binary reports itself; the
/// `run.py` wrapper adds `peak_rss_mb`, which it measures from outside.
pub fn end_to_end(arrivals: usize, totals: &Totals, host: &HostTimes) -> Vec<Metric> {
    vec![
        metric(
            "arrivals_per_s",
            host.arrivals_per_s(arrivals),
            "1/s",
            Kind::Host,
        ),
        metric("setup_s", host.setup_s(), "s", Kind::Host),
        metric("admitted_frac", totals.admitted_frac(), "frac", Kind::Sim),
        metric(
            "admitted_frac_interactive",
            totals.admitted_frac_interactive(),
            "frac",
            Kind::Sim,
        ),
        metric(
            "started_within_limit_frac",
            totals.started_within_limit_frac(),
            "frac",
            Kind::Sim,
        ),
    ]
}

/// Simulated outcomes printed with the end-to-end table but not part of
/// the bounded result: they are zero on some workload by design (no
/// queueing or no relocation on `fleet-scale`), so a share-of-median
/// bound cannot hold them. The traced run reports them per layer.
pub fn sim_detail(outcome: &Outcome) -> Vec<Metric> {
    let mut out = wait_metrics(outcome);
    out.push(metric("reconfig_ms", outcome.reconfig_ms, "ms", Kind::Sim));
    out
}

fn wait_metrics(outcome: &Outcome) -> Vec<Metric> {
    let p50 = percentile(&outcome.waits_us, 50.0);
    let p90 = percentile(&outcome.waits_us, 90.0);
    let ms = |p: Option<Percentile>| p.map_or(0.0, |p| p.value as f64 / 1e3);
    vec![
        metric("wait_ms_p50", ms(p50), "ms", Kind::Sim),
        metric("wait_ms_p90", ms(p90), "ms", Kind::Sim),
        metric(
            "wait_samples",
            outcome.waits_us.len() as f64,
            "count",
            Kind::Sim,
        ),
        metric(
            "wait_beyond_p90",
            p90.map_or(0, |p| p.beyond) as f64,
            "count",
            Kind::Sim,
        ),
    ]
}

/// What the traced replay measured, beyond its [`Outcome`].
#[derive(Debug)]
pub struct Traced<'a> {
    /// Every span of the traced run (set-up and replay).
    pub spans: &'a [Span],
    /// Profiler phases and queue samples of the traced replay.
    pub detail: &'a Detail,
    /// Arrivals/s of the traced design's untraced replays, from its
    /// per-segment fastest times.
    pub untraced_arrivals_per_s: f64,
}

/// The device-service calls the stepped replay spans individually.
pub const SERVICE_CALLS: [&str; 4] = ["advance_to", "enqueue", "depart", "settle"];
/// The layers self time is reported for.
pub const SELF_TIME_LAYERS: [&str; 3] = ["bench", "fleet", "service"];

/// The per-layer metrics of the traced run, named `layer.metric`.
pub fn per_layer(outcome: &Outcome, traced: &Traced<'_>) -> Vec<Metric> {
    let c = |v: f64| (v, "count", Kind::Sim);
    let mut out = Vec::new();
    let mut push = |name: &str, (value, unit, kind): (f64, &'static str, Kind)| {
        out.push(metric(name, value, unit, kind));
    };
    let spans = traced.spans;
    let span_ns = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.secs() * 1e9) as u64)
            .collect()
    };
    let ms_host = |v: f64| (v, "ms", Kind::Host);

    // fleet
    let run_ns: u64 = span_ns("fleet.run").iter().sum();
    push("fleet.run_ms", ms_host(run_ns as f64 / 1e6));
    for phase in Phase::ALL {
        let ns = traced
            .detail
            .phases
            .as_ref()
            .and_then(|p| p.iter().find(|(ph, _)| *ph == phase))
            .map_or(0, |(_, ns)| *ns);
        push(
            &format!("fleet.{}_ms", phase.name()),
            ms_host(ns as f64 / 1e6),
        );
    }
    let f = &outcome.fleet;
    push("fleet.epochs", c(f.epochs as f64));
    push(
        "fleet.offer_chain_mean",
        (f.offer_chain_mean, "offers", Kind::Sim),
    );
    push("fleet.retries", c(f.retries as f64));
    push("fleet.load_failovers", c(f.load_failovers as f64));
    push("fleet.migrations", c(f.migrations as f64));
    push("fleet.preemptions", c(f.preemptions as f64));
    push("fleet.evictions_migrated", c(f.evictions_migrated as f64));
    push("fleet.evictions_parked", c(f.evictions_parked as f64));
    push("fleet.parked_readmitted", c(f.parked_readmitted as f64));
    push(
        "fleet.parked_expired",
        c(outcome.failed.parked_expired as f64),
    );

    // service
    for call in SERVICE_CALLS {
        let ns = span_ns(&format!("service.{call}"));
        let pct = |p: f64| percentile(&ns, p).map_or(0.0, |p| p.value as f64 / 1e6);
        push(&format!("service.{call}.calls"), c(ns.len() as f64));
        push(
            &format!("service.{call}.ms"),
            ms_host(ns.iter().sum::<u64>() as f64 / 1e6),
        );
        push(&format!("service.{call}.ms_p50"), ms_host(pct(50.0)));
        push(&format!("service.{call}.ms_p99"), ms_host(pct(99.0)));
    }
    let q = &traced.detail.queue_lens;
    push(
        "service.queue_len_max",
        c(q.iter().copied().max().unwrap_or(0) as f64),
    );
    let q_mean = if q.is_empty() {
        0.0
    } else {
        q.iter().sum::<usize>() as f64 / q.len() as f64
    };
    push("service.queue_len_mean", (q_mean, "requests", Kind::Sim));
    push("service.defrag_cycles", c(outcome.defrag_cycles as f64));
    push(
        "service.rejected_deadline",
        c(outcome.failed.deadline as f64),
    );
    push("service.failures", c(outcome.load_failures as f64));
    for m in wait_metrics(outcome) {
        push(&format!("service.{}", m.name), (m.value, m.unit, m.kind));
    }

    // core
    let p = &outcome.plan;
    push("core.make_room_calls", c(p.make_room_calls as f64));
    push("core.previews", c(p.previews as f64));
    push("core.compaction_plans", c(p.compaction_plans as f64));
    push("core.plans_reused", c(p.plans_reused as f64));
    push("core.plans_invalidated", c(p.plans_invalidated as f64));
    let lookups = p.summary_hits + p.summary_misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        p.summary_hits as f64 / lookups as f64
    };
    push("core.summary_hit_ratio", (hit_ratio, "frac", Kind::Sim));
    push("core.function_moves", c(outcome.function_moves as f64));
    push(
        "core.cells_moved",
        (outcome.cells_moved as f64, "CLB", Kind::Sim),
    );

    // fpga
    push(
        "fpga.relocation_frames",
        (outcome.relocation_frames as f64, "frames", Kind::Sim),
    );
    push(
        "fpga.admission_frames",
        (outcome.admission_frames as f64, "frames", Kind::Sim),
    );
    push("fpga.reconfig_ms", (outcome.reconfig_ms, "ms", Kind::Sim));

    // place
    push("place.peak_frag", (outcome.peak_frag, "index", Kind::Sim));

    // self time and tracing cost
    let self_secs = self_secs_by_layer(spans);
    for layer in SELF_TIME_LAYERS {
        let secs = self_secs.get(layer).copied().unwrap_or(0.0);
        push(&format!("self_ms.{layer}"), ms_host(secs * 1e3));
    }
    let replay_secs: f64 = spans
        .iter()
        .filter(|s| s.name == "bench.replay")
        .map(|s| s.secs())
        .sum();
    let traced_rate = if replay_secs > 0.0 {
        outcome.submitted as f64 / replay_secs
    } else {
        0.0
    };
    push("trace.arrivals_per_s", (traced_rate, "1/s", Kind::Host));
    let untraced = traced.untraced_arrivals_per_s;
    let overhead = if untraced > 0.0 {
        100.0 * (untraced - traced_rate) / untraced
    } else {
        0.0
    };
    push("trace.overhead_pct", (overhead, "%", Kind::Host));
    push("trace.spans", c(spans.len() as f64));
    out
}

/// The metrics as an aligned table, one per line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("  {title}\n");
    for m in metrics {
        let kind = match m.kind {
            Kind::Host => "host",
            Kind::Sim => "sim",
        };
        // Microsecond-scale values, such as `setup_s`, in scientific
        // notation so they do not print as zero.
        let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.4}", m.value)
        };
        let _ = writeln!(out, "    {:<34} {value:>16} {:<8} {kind}", m.name, m.unit);
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. `None` when some value is not a finite number or some
/// name breaks the metric-name rule.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Option<String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() || !valid_metric_name(&m.name) {
            return None;
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Some(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn all_names() -> (Vec<String>, Vec<String>) {
        let outcome = Outcome::default();
        let mut segments = FastestSegments::default();
        segments.add(&[2.0]).unwrap();
        let host = HostTimes {
            setup_secs: vec![0.5],
            replay_secs: vec![2.0],
            segments: vec![segments],
        };
        let detail = Detail::default();
        let traced = Traced {
            spans: &[],
            detail: &detail,
            untraced_arrivals_per_s: 1.0,
        };
        let mut e2e = names(&end_to_end(1, &Totals::default(), &host));
        e2e.push("peak_rss_mb".to_string());
        (e2e, names(&per_layer(&outcome, &traced)))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let (e2e, layer) = all_names();
        let mut all: Vec<&String> = e2e.iter().chain(&layer).collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "metric names must be unique");
        assert!(layer.len() <= 128);
    }

    /// `BENCHMARK.json` must list exactly the metrics the benchmark
    /// emits, in the same order.
    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).unwrap();
            let end = text[start..].find(']').unwrap() + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let (e2e, layer) = all_names();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layer);
        let workloads: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let m = vec![
            metric("arrivals_per_s", 12.5, "1/s", Kind::Host),
            metric("setup_s", 0.000123, "s", Kind::Host),
        ];
        let line = result_json(true, 41, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 41, \"failed\": 0, \"metrics\": \
             {\"arrivals_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.000123, \"unit\": \"s\"}}}"
        );
        let bad = vec![metric("x", f64::NAN, "s", Kind::Host)];
        assert_eq!(result_json(true, 1, 0, &bad), None);
        let bad = vec![metric("bad name", 1.0, "s", Kind::Host)];
        assert_eq!(result_json(true, 1, 0, &bad), None);
    }

    #[test]
    fn host_times_take_the_fastest_sample() {
        // Design one: two replays of 3 s whose slow halves differ, so
        // the fastest segments make a 2 s replay. Design two: 3 s.
        let mut one = FastestSegments::default();
        one.add(&[1.0, 3.0]).unwrap();
        one.add(&[2.0, 3.0]).unwrap();
        let mut two = FastestSegments::default();
        two.add(&[3.0]).unwrap();
        let host = HostTimes {
            setup_secs: vec![0.3, 0.1, 0.2],
            replay_secs: vec![3.0, 3.0, 3.0],
            segments: vec![one, two],
        };
        assert_eq!(host.arrivals_per_s(100), 40.0);
        assert_eq!(host.setup_s(), 0.1);
    }
}
