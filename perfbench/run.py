#!/usr/bin/env python3
"""Build the rtm benchmark and run one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload of BENCHMARK.json in turn.

Builds the `rtm-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), runs it with the given
arguments and passes its output through. With `--trace 0` it adds
`peak_rss_mb`, the benchmark process's peak resident memory as the
kernel reports it to the parent on exit, to the result line's metrics.
The result line stays the last line of standard output. Exits non-zero,
printing no result line, when the build fails; otherwise exits with the
benchmark's own code.

The benchmark process runs with glibc's heap trimming and mmap
threshold raised (`MALLOC_TRIM_THRESHOLD_`, `MALLOC_MMAP_THRESHOLD_`),
so memory a replay frees stays in the process for the next one instead
of going back to the kernel and being faulted in again: on the virtual
machine the benchmark was tuned on, those fresh page faults made
replays up to half again slower, by amounts that changed from minute
to minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Keep freed heap memory in the process (see the module docstring).
# 32 MiB is the largest mmap threshold glibc accepts.
MALLOC_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    return os.path.join(target, "release", "rtm-perfbench")


def run(exe, args):
    """Runs the benchmark binary once and prints its output; returns its exit code."""
    env = dict(os.environ, **MALLOC_ENV)
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if code == 0 and lines and "--trace" in args and args[args.index("--trace") + 1] == "0":
        result = json.loads(lines[-1])
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        lines[-1] = json.dumps(result)
    for line in lines:
        print(line)
    return code if code >= 0 else 1


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        i = args.index("--workload") + 1
        codes = [run(exe, args[:i] + [name] + args[i + 1 :]) for name in names]
        return max(codes)
    return run(exe, args)


if __name__ == "__main__":
    sys.exit(main())
