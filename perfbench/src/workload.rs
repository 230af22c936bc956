//! The benchmark's workloads: what each one replays, on which system,
//! and how a replay is driven and summarised.
//!
//! A workload's *schedule* — arrival times, shapes, durations,
//! deadlines and tiers — is fixed: it is drawn once from the repo's
//! canned scenario generators with a fixed generator seed. The
//! benchmark's `--seed` draws the *functions*: it becomes
//! [`ServiceConfig::design_seed`], from which the service synthesises
//! every arrival's netlist. Different seeds therefore place, route and
//! relocate different logic through the same schedule.

use crate::spans::Tracer;
use rtm_core::{CoreError, PlanStats};
use rtm_fleet::routing::{FragAware, RoundRobin};
use rtm_fleet::{FleetConfig, FleetReport, FleetService, RouteCandidate, RoutingPolicy};
use rtm_fpga::part::Part;
use rtm_obs::{Phase, Stopwatch};
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{QosTier, RuntimeService, ServiceConfig, ServiceReport};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Devices in the `fleet-scale` fleet; the trace holds one adversarial
/// copy per device plus one.
const SCALE_SHARDS: usize = 64;
/// Staggered tiered-mix copies in `fleet-tiered`. Two, not three: at
/// three a replay takes about four times as long, with one drain step of
/// over 2 s, too few and too coarse for the per-segment fastest times
/// to settle within one run; two copies still preempt, migrate, park
/// and readmit.
const TIERED_COPIES: u64 = 2;
/// Steady-churn copies merged onto the one `device-churn` device. One:
/// with two, 3 of 34 design seeds tried lose an admission to a net the
/// congested device cannot route, and no workload may fail operations.
const CHURN_COPIES: u64 = 1;
/// Generator seed of the `fleet-scale` and `device-churn` schedules.
const SCHEDULE_SEED: u64 = 42;
/// Generator seed of the `fleet-tiered` schedule: a tiered mix that
/// preemption admits in full, so no arrival of any workload fails and a
/// lost admission is always a regression.
const TIERED_SCHEDULE_SEED: u64 = 3;
/// Spacing of the staggered copies (µs), as in the repo's fleet runs.
const STAGGER_US: u64 = 170_000;
/// Design seeds one run replays on the short workloads. The seeds'
/// functions differ in how hard they are to place, route and relocate:
/// on `device-churn` the fastest replay of one design seed is up to
/// about 15 % slower than another's. Averaging three designs per run
/// shrinks that part of the spread between runs; `fleet-scale` already
/// averages 650 functions in one replay, and its replays are too long
/// to share a run between designs.
const DESIGNS_PER_RUN: u64 = 3;
/// Latency limit of `started_within_limit_frac`: an arrival meets it
/// when it is admitted no later than this long after it was due (µs).
const WAIT_LIMIT_US: u64 = 500_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Adversarial-fragmenter copies over many identical XCV50 shards,
    /// frag-aware routing.
    FleetScale,
    /// The tiered mix over XCV50, XCV50, XCV100 with preemption.
    FleetTiered,
    /// Steady churn on one XCV50, driven call by call.
    DeviceChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetScale,
        Workload::FleetTiered,
        Workload::DeviceChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetScale => "fleet-scale",
            Workload::FleetTiered => "fleet-tiered",
            Workload::DeviceChurn => "device-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed schedule.
    pub fn trace(self) -> Trace {
        match self {
            Workload::FleetScale => Scenario::AdversarialFragmenter.fleet_trace(
                Part::Xcv50,
                SCALE_SHARDS as u64 + 1,
                SCHEDULE_SEED,
                STAGGER_US,
            ),
            Workload::FleetTiered => Scenario::TieredMix.fleet_trace(
                Part::Xcv50,
                TIERED_COPIES,
                TIERED_SCHEDULE_SEED,
                STAGGER_US,
            ),
            Workload::DeviceChurn => Scenario::SteadyChurn.fleet_trace(
                Part::Xcv50,
                CHURN_COPIES,
                SCHEDULE_SEED,
                STAGGER_US,
            ),
        }
    }

    /// The design seeds one run with `--seed seed` replays on, each
    /// drawing its own functions; disjoint for different `seed`s.
    pub fn design_seeds(self, seed: u64) -> Vec<u64> {
        let n = match self {
            Workload::FleetScale => 1,
            Workload::FleetTiered | Workload::DeviceChurn => DESIGNS_PER_RUN,
        };
        (0..n)
            .map(|j| seed.wrapping_mul(n).wrapping_add(j))
            .collect()
    }

    /// The per-device configuration: the defaults, with the functions'
    /// netlists drawn from `seed`.
    pub fn service_config(self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            design_seed: seed,
            ..ServiceConfig::default()
        }
    }

    /// A fresh system for one replay, its functions drawn from `seed`.
    /// Engine, admission mode and executor stay at their defaults; a
    /// fleet's routing policy passes a mark to `marks` on every
    /// decision.
    pub fn system(self, seed: u64, marks: &Marks) -> System {
        let shard = self.service_config(seed);
        let marked = |inner: Box<dyn RoutingPolicy>| {
            Box::new(Marked {
                inner,
                marks: marks.clone(),
            })
        };
        match self {
            Workload::FleetScale => System::Fleet(FleetService::new(
                FleetConfig::homogeneous(SCALE_SHARDS, shard),
                marked(Box::<FragAware>::default()),
            )),
            Workload::FleetTiered => System::Fleet(FleetService::new(
                FleetConfig::heterogeneous(&[Part::Xcv50, Part::Xcv50, Part::Xcv100], shard)
                    .with_preemption(true),
                marked(Box::<RoundRobin>::default()),
            )),
            Workload::DeviceChurn => System::Device(RuntimeService::new(shard)),
        }
    }
}

/// The elapsed seconds, from the start of a replay, at each mark the
/// replay passed: every routing decision of a fleet, every step of the
/// device's service loop, and the end. The marks cut a replay into the
/// segments whose fastest times
/// [`FastestSegments`](crate::stats::FastestSegments) keeps. Shared, so
/// the routing policy the fleet owns can pass marks too.
#[derive(Debug, Clone, Default)]
pub struct Marks(Arc<Mutex<MarkLog>>);

#[derive(Debug, Default)]
struct MarkLog {
    clock: Option<Stopwatch>,
    at: Vec<f64>,
}

impl Marks {
    fn log(&self) -> MutexGuard<'_, MarkLog> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clears the marks and starts the clock.
    pub fn restart(&self) {
        let mut log = self.log();
        log.at.clear();
        log.clock = Some(Stopwatch::start());
    }

    /// Records the time since the last restart (nothing before one).
    pub fn mark(&self) {
        let mut log = self.log();
        if let Some(clock) = log.clock {
            log.at.push(clock.elapsed_secs());
        }
    }

    /// The marks passed since the last restart.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut self.log().at)
    }
}

/// A routing policy that passes a mark before every decision of the
/// policy it wraps; its rankings are the wrapped policy's.
#[derive(Debug)]
struct Marked {
    inner: Box<dyn RoutingPolicy>,
    marks: Marks,
}

impl RoutingPolicy for Marked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate> {
        self.marks.mark();
        self.inner.rank(arrival, shards)
    }
}

/// The system a workload replays on.
#[derive(Debug)]
pub enum System {
    /// A fleet, replayed by one `FleetService::run` call.
    Fleet(FleetService),
    /// One device, stepped call by call.
    Device(RuntimeService),
}

/// What a replay leaves beside its [`Outcome`]: the traced run's
/// profiler phases and queue samples, and the stepped device report.
#[derive(Debug, Default)]
pub struct Detail {
    /// Wall nanoseconds per fleet-loop phase, when the replay ran the
    /// fleet's phase profiler.
    pub phases: Option<Vec<(Phase, u64)>>,
    /// Device queue length after every `settle`.
    pub queue_lens: Vec<usize>,
    /// The stepped device replay's full report, for the check against
    /// `RuntimeService::run`.
    pub device_report: Option<ServiceReport>,
}

/// Arrivals that were not admitted by the end of a replay, by cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Failed {
    /// Dropped because their start deadline passed.
    pub deadline: usize,
    /// Dropped because synthesis or loading failed (net of load
    /// failovers, which re-account the same arrival on another shard).
    pub load: usize,
    /// Fitting no device of the fleet.
    pub unplaceable: usize,
    /// Still queued at the end.
    pub queued: usize,
    /// Departed by the trace while queued.
    pub cancelled: usize,
    /// Evicted by preemption and still parked at the end.
    pub parked: usize,
    /// Evicted by preemption and expired while parked.
    pub parked_expired: usize,
}

impl Failed {
    /// All failed arrivals.
    pub fn total(&self) -> usize {
        self.deadline
            + self.load
            + self.unplaceable
            + self.queued
            + self.cancelled
            + self.parked
            + self.parked_expired
    }
}

/// Fleet-layer counts of a replay (zero for a single device).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetCounts {
    /// Epochs of the fleet loop.
    pub epochs: u64,
    /// Mean devices offered per routed arrival.
    pub offer_chain_mean: f64,
    /// Admissions on a retry device.
    pub retries: usize,
    /// Load failures re-accounted on another shard.
    pub load_failovers: usize,
    /// Completed rebalancing migrations.
    pub migrations: usize,
    /// High-tier arrivals seated by evicting a lower tier.
    pub preemptions: usize,
    /// Evicted residents migrated to a sibling.
    pub evictions_migrated: usize,
    /// Evicted residents parked.
    pub evictions_parked: usize,
    /// Parked bundles readmitted.
    pub parked_readmitted: usize,
}

/// Everything a replay produced that depends only on the simulation:
/// identical on every replay of one workload and seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Arrivals in the trace.
    pub submitted: usize,
    /// Arrivals admitted and neither parked nor expired at the end.
    pub admitted: usize,
    /// Arrivals not admitted by the end.
    pub failed: Failed,
    /// Interactive-tier arrivals in the trace.
    pub interactive_submitted: usize,
    /// Interactive-tier arrivals admitted.
    pub interactive_admitted: usize,
    /// Queue wait of every admission, from due time to admission (µs).
    pub waits_us: Vec<u64>,
    /// Configuration-port time of relocation traffic (ms).
    pub reconfig_ms: f64,
    /// Configuration frames written by relocations.
    pub relocation_frames: u64,
    /// Relocation frames written by admission-time rearrangement (the
    /// sum of the `frames_per_load` histogram).
    pub admission_frames: u64,
    /// Whole-function moves.
    pub function_moves: usize,
    /// CLBs of running logic relocated.
    pub cells_moved: u64,
    /// Defragmentation cycles.
    pub defrag_cycles: usize,
    /// Load/synthesis failures as the shards recorded them.
    pub load_failures: usize,
    /// Planning-pipeline counters.
    pub plan: PlanStats,
    /// Peak fragmentation index (fleet: of the device mean).
    pub peak_frag: f64,
    /// Fleet-layer counts.
    pub fleet: FleetCounts,
}

impl Outcome {
    /// Admissions no later than [`WAIT_LIMIT_US`] after their due time.
    fn on_time(&self) -> usize {
        self.waits_us
            .iter()
            .filter(|&&w| w <= WAIT_LIMIT_US)
            .count()
    }
}

/// The simulated end-to-end counts of a run, summed over its designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Arrivals submitted.
    pub submitted: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals not admitted by the end.
    pub failed: usize,
    /// Interactive-tier arrivals submitted.
    pub interactive_submitted: usize,
    /// Interactive-tier arrivals admitted.
    pub interactive_admitted: usize,
    /// Admissions within [`WAIT_LIMIT_US`] of their due time.
    pub on_time: usize,
}

impl Totals {
    /// The sums over `outcomes`.
    pub fn of(outcomes: &[Outcome]) -> Totals {
        let sum = |f: fn(&Outcome) -> usize| outcomes.iter().map(f).sum();
        Totals {
            submitted: sum(|o| o.submitted),
            admitted: sum(|o| o.admitted),
            failed: sum(|o| o.failed.total()),
            interactive_submitted: sum(|o| o.interactive_submitted),
            interactive_admitted: sum(|o| o.interactive_admitted),
            on_time: sum(Outcome::on_time),
        }
    }

    /// Admitted share of the arrivals.
    pub fn admitted_frac(&self) -> f64 {
        ratio(self.admitted, self.submitted)
    }

    /// Admitted share of the interactive tier; 1 when the trace has
    /// none, the convention of `TierCounts::admission_rate`.
    pub fn admitted_frac_interactive(&self) -> f64 {
        ratio(self.interactive_admitted, self.interactive_submitted)
    }

    /// Share of the arrivals admitted within [`WAIT_LIMIT_US`] of their
    /// due time; a failed arrival misses the limit.
    pub fn started_within_limit_frac(&self) -> f64 {
        ratio(self.on_time, self.submitted)
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

impl System {
    /// Installs the fleet's phase profiler (a no-op for one device).
    pub fn enable_profiler(&mut self) {
        if let System::Fleet(fleet) = self {
            fleet.enable_profiler();
        }
    }

    /// Replays `trace` to the end, recording spans into `tracer` and
    /// restarting `marks`, which must be the handle the system was
    /// built with, so they hold this replay's marks.
    ///
    /// # Errors
    ///
    /// Propagates the [`CoreError`] that stopped the replay.
    pub fn replay(
        &mut self,
        trace: &Trace,
        tracer: &mut Tracer,
        detail: &mut Detail,
        marks: &Marks,
    ) -> Result<Outcome, CoreError> {
        marks.restart();
        let root = tracer.enter("bench.replay");
        let outcome = match self {
            System::Fleet(fleet) => {
                let report = tracer.leaf("fleet.run", || fleet.run(trace))?;
                detail.phases = fleet
                    .profiler()
                    .map(|p| Phase::ALL.map(|ph| (ph, p.phase_nanos(ph))).to_vec());
                fleet_outcome(trace, &report)
            }
            System::Device(service) => {
                let report = stepped_run(service, trace, tracer, &mut detail.queue_lens, marks)?;
                let outcome = device_outcome(trace, &report);
                detail.device_report = Some(report);
                outcome
            }
        };
        tracer.exit(root);
        marks.mark();
        Ok(outcome)
    }

    /// Whether every device's function table and area bookkeeping agree.
    pub fn bookkeeping_consistent(&self) -> bool {
        match self {
            System::Fleet(fleet) => fleet
                .shards()
                .iter()
                .all(|s| s.manager().bookkeeping_consistent()),
            System::Device(service) => service.manager().bookkeeping_consistent(),
        }
    }
}

/// `RuntimeService::run`'s loop, one public call at a time, with a span
/// around each call, the queue length sampled and a mark passed after
/// every `settle`.
///
/// # Errors
///
/// Propagates the first [`CoreError`] of any call.
pub fn stepped_run(
    service: &mut RuntimeService,
    trace: &Trace,
    tracer: &mut Tracer,
    queue_lens: &mut Vec<usize>,
    marks: &Marks,
) -> Result<ServiceReport, CoreError> {
    let mut report = ServiceReport::new(trace.name());
    let events = trace.events();
    let mut idx = 0usize;
    loop {
        let now = match (events.get(idx).map(|e| e.at), service.next_expiry()) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(e)) => e,
            (Some(a), Some(e)) => a.min(e),
        };
        tracer.leaf("service.advance_to", || {
            service.advance_to(now, &mut report)
        })?;
        while let Some(e) = events.get(idx).filter(|e| e.at <= now) {
            match e.event {
                TraceEvent::Arrival(a) => {
                    tracer.leaf("service.enqueue", || service.enqueue(e.at, a, &mut report))?
                }
                TraceEvent::Departure { id } => {
                    tracer.leaf("service.depart", || service.depart(id, &mut report))?
                }
            }
            idx += 1;
        }
        tracer.leaf("service.settle", || service.settle(&mut report))?;
        queue_lens.push(service.queue_len());
        marks.mark();
    }
    tracer.leaf("service.finish", || service.finish(&mut report));
    Ok(report)
}

fn interactive_in(trace: &Trace) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Arrival(a) if a.tier == QosTier::Interactive))
        .count()
}

fn admission_frames(report: &ServiceReport) -> u64 {
    report
        .metrics
        .histogram("frames_per_load")
        .map_or(0, |h| h.sum())
}

fn fleet_outcome(trace: &Trace, r: &FleetReport) -> Outcome {
    let metrics = r.metrics_rollup();
    let waits_us = r
        .shards
        .iter()
        .flat_map(|s| s.report.admissions.iter().map(|a| a.waited))
        .collect();
    Outcome {
        submitted: r.submitted,
        admitted: r.admitted() - r.parked_expired - r.parked_at_end,
        failed: Failed {
            deadline: r.rejected_deadline(),
            load: r.failures() - r.load_failovers,
            unplaceable: r.unplaceable,
            queued: r.queued_at_end(),
            cancelled: r.cancelled(),
            parked: r.parked_at_end,
            parked_expired: r.parked_expired,
        },
        interactive_submitted: interactive_in(trace),
        interactive_admitted: r.tiers().admitted_for(QosTier::Interactive),
        waits_us,
        reconfig_ms: r.reconfig_ms(),
        relocation_frames: r.frames_written(),
        admission_frames: r.shards.iter().map(|s| admission_frames(&s.report)).sum(),
        function_moves: r.function_moves(),
        cells_moved: r.cells_moved(),
        defrag_cycles: r.defrag_cycles(),
        load_failures: r.failures(),
        plan: r.plan_stats(),
        peak_frag: r.peak_mean_frag(),
        fleet: FleetCounts {
            epochs: metrics.counter("epochs"),
            offer_chain_mean: metrics
                .histogram("offer_chain_len")
                .map_or(0.0, |h| h.mean()),
            retries: r.retries,
            load_failovers: r.load_failovers,
            migrations: r.migrations,
            preemptions: r.preemptions,
            evictions_migrated: r.evictions_migrated,
            evictions_parked: r.evictions_parked,
            parked_readmitted: r.parked_readmitted,
        },
    }
}

fn device_outcome(trace: &Trace, r: &ServiceReport) -> Outcome {
    Outcome {
        submitted: r.submitted,
        admitted: r.admitted,
        failed: Failed {
            deadline: r.rejected_deadline,
            load: r.failures,
            queued: r.queued_at_end,
            cancelled: r.cancelled,
            ..Failed::default()
        },
        interactive_submitted: interactive_in(trace),
        interactive_admitted: r.tiers.admitted_for(QosTier::Interactive),
        waits_us: r.admissions.iter().map(|a| a.waited).collect(),
        reconfig_ms: r.reconfig_ms,
        relocation_frames: r.frames_written,
        admission_frames: admission_frames(r),
        function_moves: r.function_moves,
        cells_moved: r.cells_moved,
        defrag_cycles: r.defrag_cycles,
        load_failures: r.failures,
        plan: r.plan_stats,
        peak_frag: r.peak_frag(),
        fleet: FleetCounts::default(),
    }
}
