//! `rtm-perfbench`: replays one workload's trace through the public API
//! of `rtm-fleet` / `rtm-service`, checks the outcome, and prints its
//! metrics — a table, then one JSON result line. See `README.md` in
//! this directory for the workloads, the metrics and what they mean.
//!
//! ```text
//! rtm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` the benchmark replays once more with spans around every
//! call into a layer, writes the spans to
//! `perfbench/out/spans-NAME-sN.jsonl` under the working directory,
//! and the result holds the per-layer metrics. Exit code 0 means every
//! correctness check passed; 1 means one failed (the result line then
//! says `"correct": false`, counts every arrival as failed and carries
//! no metrics); 2 is a usage error.

mod report;
mod spans;
mod stats;
mod workload;

use report::{end_to_end, per_layer, result_json, sim_detail, table, HostTimes, Traced};
use rtm_obs::Stopwatch;
use rtm_service::{RuntimeService, ServiceReport};
use spans::{to_jsonl, Tracer};
use stats::FastestSegments;
use std::path::Path;
use std::process::ExitCode;
use workload::{Detail, Marks, Outcome, System, Totals, Workload};

/// Set-up samples taken before each timed replay; `setup_s` is the
/// fastest sample of the run.
const SETUP_SAMPLES_PER_REPLAY: usize = 5;
/// Shortest wall time of one set-up sample. One set-up takes
/// microseconds, so a sample repeats it until the batch lasts this
/// long and reports the time per set-up.
const SETUP_SAMPLE_SECS: f64 = 0.002;
/// Where the traced run writes its spans, relative to the working
/// directory (the repository root).
const SPANS_DIR: &str = "perfbench/out";
/// The seed kept out of all tuning, for checking a claimed gain on
/// inputs it was not developed on.
const HELD_OUT_SEED: u64 = 20_031_103;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("rtm-perfbench: check failed: {p}");
            }
            // A void run counts every arrival of every design as failed.
            let w = args.workload;
            let arrivals = w.trace().arrivals() * w.design_seeds(args.seed).len();
            println!(
                "{}",
                result_json(false, arrivals, arrivals, &[]).unwrap_or_default()
            );
            ExitCode::from(1)
        }
    }
}

/// What the timed replays of one design seed left.
#[derive(Debug, Default)]
struct Design {
    seed: u64,
    segments: FastestSegments,
    /// The first replay's outcome, which every later one must equal.
    reference: Option<Outcome>,
    device_report: Option<ServiceReport>,
}

/// One whole benchmark run; the result line, or every failed check.
fn run(args: &Args) -> Result<String, Vec<String>> {
    let w = args.workload;
    let mut problems = Vec::new();

    let trace = w.trace();
    let mut designs: Vec<Design> = w
        .design_seeds(args.seed)
        .into_iter()
        .map(|seed| Design {
            seed,
            ..Design::default()
        })
        .collect();
    let design_seeds: Vec<String> = designs.iter().map(|d| d.seed.to_string()).collect();
    println!(
        "rtm-perfbench {}: seed {} (design seeds {}; held-out seed {HELD_OUT_SEED}), \
         {} arrivals, {} events, measuring {} s",
        w.name(),
        args.seed,
        design_seeds.join(", "),
        trace.arrivals(),
        trace.events().len(),
        args.seconds,
    );

    // Timed replays, untraced, each on a fresh system, the designs in
    // turn, until every design has one and the next replay would
    // overrun the measuring time. Each replay's marks feed its design's
    // per-segment fastest times. Set-up is sampled before each replay,
    // so its fastest sample, like each segment's, comes from the
    // quietest moment of the run.
    let batch = setup_batch_len(w, designs[0].seed);
    let mut setup_secs = Vec::new();
    let mut replay_secs: Vec<f64> = Vec::new();
    let count = designs.len();
    loop {
        let n = replay_secs.len();
        let design = &mut designs[n % count];
        for _ in 0..SETUP_SAMPLES_PER_REPLAY {
            setup_secs.push(setup_secs_each(w, design.seed, batch));
        }
        let marks = Marks::default();
        let mut system = w.system(design.seed, &marks);
        let mut detail = Detail::default();
        let sw = Stopwatch::start();
        let outcome = system
            .replay(&trace, &mut Tracer::disabled(), &mut detail, &marks)
            .map_err(|e| {
                vec![format!(
                    "replay {n} (design seed {}) failed: {e}",
                    design.seed
                )]
            })?;
        let secs = sw.elapsed_secs();
        replay_secs.push(secs);
        if let Err(e) = design.segments.add(&marks.take()) {
            problems.push(e);
        }
        check_replay(&system, &outcome, &mut design.reference, &mut problems);
        design.device_report = design.device_report.take().or(detail.device_report);
        let measured: f64 = replay_secs.iter().sum();
        if n + 1 >= count && measured + secs > args.seconds {
            break;
        }
    }

    let mut outcomes = Vec::new();
    for design in &mut designs {
        let outcome = design.reference.take().unwrap_or_default();
        check_outcome(&trace, &outcome, &mut problems);
        // The stepped device replay must reproduce RuntimeService::run.
        if let Some(stepped) = design.device_report.take() {
            let mut service = RuntimeService::new(w.service_config(design.seed));
            match service.run(&trace) {
                Ok(whole) if whole == stepped => {}
                Ok(_) => problems.push(format!(
                    "design seed {}: stepped device report differs from RuntimeService::run",
                    design.seed
                )),
                Err(e) => problems.push(format!("RuntimeService::run failed: {e}")),
            }
        }
        outcomes.push(outcome);
    }
    let totals = Totals::of(&outcomes);

    let host = HostTimes {
        setup_secs,
        replay_secs,
        segments: designs.iter().map(|d| d.segments.clone()).collect(),
    };
    let e2e = end_to_end(trace.arrivals(), &totals, &host);
    print!(
        "{}",
        table("end to end (peak_rss_mb is added by run.py)", &e2e)
    );
    for (design, outcome) in designs.iter().zip(&outcomes) {
        let title = format!("simulated detail, design seed {}", design.seed);
        print!("{}", table(&title, &sim_detail(outcome)));
        println!(
            "  operations: {} attempted, {} failed ({:?})",
            outcome.submitted,
            outcome.failed.total(),
            outcome.failed,
        );
        println!(
            "  segments: {} per replay, fastest of each summing to {:.3} s (longest {:.3} s)",
            design.segments.len(),
            design.segments.total_secs(),
            design.segments.longest_secs(),
        );
    }
    let secs: Vec<String> = host.replay_secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("  timed replays: {} ({} s)", secs.len(), secs.join(", "));
    let slowest = host.setup_secs.iter().copied().fold(0.0, f64::max);
    println!(
        "  set-up samples: {} of {batch} set-ups each, per set-up fastest {:.4e} s, \
         slowest {slowest:.4e} s",
        host.setup_secs.len(),
        host.setup_s(),
    );

    let metrics = if args.trace {
        let layer = traced_run(args, &designs[0], &outcomes[0], &mut problems)?;
        print!("{}", table("per layer (traced run)", &layer));
        layer
    } else {
        e2e
    };
    if !problems.is_empty() {
        return Err(problems);
    }
    result_json(true, totals.submitted, totals.failed, &metrics)
        .ok_or_else(|| vec!["a metric is not a finite number".to_string()])
}

/// Wall seconds per set-up — trace generation plus system
/// construction — over `n` set-ups in a row.
fn setup_secs_each(w: Workload, seed: u64, n: usize) -> f64 {
    let sw = Stopwatch::start();
    for _ in 0..n {
        std::hint::black_box((w.trace(), w.system(seed, &Marks::default())));
    }
    sw.elapsed_secs() / n as f64
}

/// Set-ups per sample: doubled from one until a sample lasts
/// [`SETUP_SAMPLE_SECS`].
fn setup_batch_len(w: Workload, seed: u64) -> usize {
    let mut n = 1;
    while setup_secs_each(w, seed, n) * (n as f64) < SETUP_SAMPLE_SECS {
        n *= 2;
    }
    n
}

/// The traced run: set-up and one replay of `design` with spans and
/// the fleet's phase profiler, checked against the design's untraced
/// outcome; the spans are written to [`SPANS_DIR`]. Returns the
/// per-layer metrics.
fn traced_run(
    args: &Args,
    design: &Design,
    untraced: &Outcome,
    problems: &mut Vec<String>,
) -> Result<Vec<report::Metric>, Vec<String>> {
    let w = args.workload;
    let mut tracer = Tracer::enabled();
    let setup = tracer.enter("bench.setup");
    let trace = tracer.leaf("service.trace", || w.trace());
    let new_span = match w {
        Workload::DeviceChurn => "service.new",
        _ => "fleet.new",
    };
    let marks = Marks::default();
    let mut system = tracer.leaf(new_span, || w.system(design.seed, &marks));
    tracer.exit(setup);
    system.enable_profiler();
    let mut detail = Detail::default();
    let outcome = system
        .replay(&trace, &mut tracer, &mut detail, &marks)
        .map_err(|e| vec![format!("traced replay failed: {e}")])?;
    let mut reference = Some(untraced.clone());
    check_replay(&system, &outcome, &mut reference, problems);

    let run_id = format!("{}-s{}-traced", w.name(), args.seed);
    let path = Path::new(SPANS_DIR).join(format!("spans-{}-s{}.jsonl", w.name(), args.seed));
    let written = std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, to_jsonl(tracer.spans(), &run_id)));
    match written {
        Ok(()) => println!(
            "  wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    Ok(per_layer(
        &outcome,
        &Traced {
            spans: tracer.spans(),
            detail: &detail,
            untraced_arrivals_per_s: untraced.submitted as f64 / design.segments.total_secs(),
        },
    ))
}

/// Checks one replay: device bookkeeping, and an outcome identical to
/// the first replay's (simulated results must repeat exactly).
fn check_replay(
    system: &System,
    outcome: &Outcome,
    reference: &mut Option<Outcome>,
    problems: &mut Vec<String>,
) {
    if !system.bookkeeping_consistent() {
        problems.push("a device's function table and area bookkeeping disagree".into());
    }
    match reference {
        None => *reference = Some(outcome.clone()),
        Some(first) if first != outcome => {
            problems.push("simulated outcome differs between replays of one seed".into())
        }
        Some(_) => {}
    }
}

/// Checks the failure accounting: every arrival of the trace is either
/// admitted or failed by the end.
fn check_outcome(trace: &rtm_service::Trace, outcome: &Outcome, problems: &mut Vec<String>) {
    if outcome.submitted != trace.arrivals() {
        problems.push(format!(
            "{} arrivals submitted, trace holds {}",
            outcome.submitted,
            trace.arrivals()
        ));
    }
    if outcome.admitted + outcome.failed.total() != outcome.submitted {
        problems.push(format!(
            "admitted {} + failed {} != submitted {} ({:?})",
            outcome.admitted,
            outcome.failed.total(),
            outcome.submitted,
            outcome.failed
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload device-churn --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DeviceChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet-scale --seed x --seconds 1 --trace 0",
            "--workload fleet-scale --seed 1 --seconds 0 --trace 0",
            "--workload fleet-scale --seed 1 --seconds 1 --trace 2",
            "--workload fleet-scale --seed 1 --seconds 1",
            "--workload fleet-scale --seed 1 --seconds 1 --trace 0 --extra 3",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
