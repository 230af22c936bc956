#!/usr/bin/env bash
# CI gate for the rtm workspace. Mirrors the tier-1 verify plus style
# and lint gates. Run from the repository root.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rtm-lint (static analysis: shard-locality / plan-pipeline discipline)"
# Five rules over every workspace .rs file; every accepted finding is
# justified in lint-allow.toml (stale entries fail the run). The lint
# prints its own runtime — keep it sub-second. Rules and allowlist
# policy: ARCHITECTURE.md, "Static analysis & concurrency-readiness".
cargo run -q --release -p rtm-lint
cargo test -q -p rtm-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q

echo "==> parallel-vs-sequential equivalence (release, full {1,2,4,8} thread pin)"
# The debug workspace pass above runs the schedule-invariance suite in
# its slimmed debug shape; this release pass runs the full net — every
# equality checked under thread counts 1, 2, 4 and 8 — plus the
# baseline-oracle counter pins. Both engines must produce FleetReports
# equal in every field. Argument: crates/fleet/src/engine.rs docs.
cargo test -q --release -p rtm-fleet --test parallel_determinism
cargo test -q --release -p rtm-fleet --test baseline_oracle

echo "==> immediate-vs-deferred admission equivalence (release, full engine x mode grid)"
# Two-phase admission: the routing edge decides (reserve), the engine's
# execute phase implements. Reports and merged event streams must be
# byte-identical between immediate and deferred execution under both
# engines and thread counts {1,2,4,8}, including the forced deferred
# LoadFailed failover anchors. Argument: crates/fleet/src/fleet.rs docs.
cargo test -q --release -p rtm-fleet --test deferred_equivalence

echo "==> router differential net (release): dense find_path vs the reference BFS"
# NetDb::find_path keeps its search state in a dense per-search table.
# The HashMap BFS it replaced survives as a #[cfg(test)] oracle; on
# random XCV50/XCV100 nets, reservations and within-regions (None,
# empty, 1x1, excluding the sink or the source) both must return the
# identical path or the identical SimError.
cargo test -q --release -p rtm-sim --lib route::tests::differential

echo "==> work-stealing-off executor (rtm-fleet --no-default-features)"
# Without the 'parallel' feature the engine deals shards to static
# per-worker hands (no unsafe, no work stealing). The same equivalence
# net must pass verbatim against it.
cargo test -q --release -p rtm-fleet --no-default-features --test parallel_determinism

if [ "${RTM_STRESS:-0}" = "1" ]; then
  echo "==> RTM_STRESS=1: N=1024 soak + N=16/N=64 oracle scale rows (release)"
  # Opt-in: minutes of single-core wall. The soak prints a
  # sequential-vs-parallel speedup ratio (never gated); the scale rows
  # re-pin the big BENCH_fleet.json counters through the library API.
  cargo test -q --release -p rtm-fleet --test stress_parallel -- --ignored --nocapture
  cargo test -q --release -p rtm-fleet --test baseline_oracle -- --ignored
fi

echo "==> cargo doc --workspace --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace --doc"
cargo test --workspace -q --doc

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> example smoke: fleet_loop (3 scenarios x 4 routing policies on a 3-device fleet)"
cargo run --release --example fleet_loop > /dev/null

echo "==> trace smoke: fleet_loop --trace (JSONL export, self-validating)"
# The exporter round-trips every emitted line through the rtm-obs JSONL
# parser (byte-exact) and cross-checks seven event-count identities
# against the FleetReport before exiting 0 — a failed identity or a
# line that doesn't re-serialise identically is a nonzero exit here.
cargo run --release --example fleet_loop -- --trace target/fleet_trace.jsonl > /dev/null
test -s target/fleet_trace.jsonl

echo "==> perf gate: fleet_loop --baseline vs checked-in BENCH_fleet.json"
# Deterministic counters (admissions, frames written, make_room passes,
# plans reused, ...) are exact-match gated; wall time and the
# arrivals/s throughput printed beside each row are for the log, never
# gated. Every row is tagged with its stepping engine and admission
# mode; the N=256 rows (sequential/parallel x immediate/deferred) must
# agree on every counter — the byte diff doubles as a standing
# cross-engine *and* cross-mode equivalence gate. Regenerate with:
#   cargo run --release --example fleet_loop -- --baseline BENCH_fleet.json
baseline_start=$SECONDS
cargo run --release --example fleet_loop -- --baseline target/BENCH_fleet.json \
  | tee target/fleet_baseline.log
# Wall seconds of the whole suite, for the log only (never gated):
# ROADMAP item 1 targets < 100 s on a 2-core host.
echo "baseline suite wall: $((SECONDS - baseline_start)) s"
if ! diff -u BENCH_fleet.json target/BENCH_fleet.json; then
  echo "perf counters drifted from BENCH_fleet.json — investigate, then"
  echo "regenerate the baseline if the change is intentional."
  exit 1
fi

echo "==> twin-row byte agreement: N=256 engine x mode grid"
# Strip the engine/mode tags off the four N=256 rows; the surviving
# counter text must be one identical line repeated four times. This is
# the explicit form of the gate the byte diff above implies: any
# engine- or mode-dependent counter would break the agreement here
# even if someone regenerated the baseline without looking.
n256=$(grep '"devices": 256' BENCH_fleet.json \
  | sed -e 's/"engine": "[^"]*", //' -e 's/"mode": "[^"]*", //' \
  | sort -u | wc -l)
if [ "$n256" != "1" ]; then
  echo "N=256 twin rows disagree across engine/mode (got $n256 distinct rows)"
  exit 1
fi

echo "==> twin-row byte agreement: tiered-mix preemption rows, engine x mode grid"
# Same discipline for the QoS rows: the four preemption-on tiered-mix
# rows (sequential/parallel x immediate/deferred) must agree on every
# counter — per-tier admissions, preemptions, eviction flows and all —
# once the engine/mode tags are stripped.
ntier=$(grep '"scenario": "tiered-mix' BENCH_fleet.json \
  | grep '"preemption": true' \
  | sed -e 's/"engine": "[^"]*", //' -e 's/"mode": "[^"]*", //' -e 's/,$//' \
  | sort -u | wc -l)
if [ "$ntier" != "1" ]; then
  echo "tiered-mix preemption rows disagree across engine/mode (got $ntier distinct rows)"
  exit 1
fi

echo "==> QoS gate: preemption strictly improves interactive admission"
# The headline tiered claim, gated on the checked-in baseline: the
# preemption-on rows must admit strictly more interactive arrivals
# than the preemption-off row of the same workload.
ti_off=$(grep '"scenario": "tiered-mix' BENCH_fleet.json \
  | grep '"preemption": false' \
  | sed -E 's/.*"admitted_interactive": ([0-9]+).*/\1/')
ti_on=$(grep '"scenario": "tiered-mix' BENCH_fleet.json \
  | grep '"preemption": true' | head -1 \
  | sed -E 's/.*"admitted_interactive": ([0-9]+).*/\1/')
if [ -z "$ti_off" ] || [ -z "$ti_on" ] || [ "$ti_on" -le "$ti_off" ]; then
  echo "preemption did not strictly improve interactive admission (off=$ti_off on=$ti_on)"
  exit 1
fi

echo "==> QoS demo smoke: fleet_loop --tiered (exits nonzero unless preemption helps)"
cargo run --release --example fleet_loop -- --tiered > /dev/null

echo "==> profile smoke: execute phase absorbs deferred load work"
# The deferred scale rows' share tables must show a nonzero execute
# phase — the two-phase pipeline actually moving implementation work
# off the routing edge. Shares are wall-clock and never gated beyond
# this presence check.
if ! grep -E 'execute [1-9][0-9]*\.[0-9]%' target/fleet_baseline.log > /dev/null; then
  echo "no deferred run showed a nonzero execute phase share"
  exit 1
fi

echo "CI OK"
