#!/usr/bin/env python3
"""Repository benchmark driver.

Builds perfbench/perfbench.cc against the engine library (through the
repository's own CMake project, into .bench_build/perfbench) and runs one
workload of it:

    python3 perfbench/run.py --workload steady|shift|collocate --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run builds the library (minutes);
later runs rebuild incrementally. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. When
the build or the run fails the script exits non-zero without a result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("steady", "shift", "collocate")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture_stderr):
    """Runs cmd in its own process group and returns its stdout; on timeout
    or interrupt the whole group (compilers included) is killed and reaped."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if capture_stderr else None,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except (subprocess.TimeoutExpired, KeyboardInterrupt) as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, KeyboardInterrupt):
            raise
        fail(f"{os.path.basename(cmd[0])} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        if capture_stderr:
            sys.stderr.write(out[-6000:])
        fail(f"{' '.join(cmd)} exited with status {proc.returncode}")
    return out


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: the benchmark builds the engine from "
                 "the repository's sources")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, True)
    jobs = max(1, min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(jobs)], max(1.0, deadline - time.monotonic()), True)
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    out = run([binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)],
              RUN_TIMEOUT_S, False)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        fail(f"metrics {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json's {sorted(declared)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
