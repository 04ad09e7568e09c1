#!/usr/bin/env python3
"""Benchmark regression gate: compare BENCH_*.json snapshots to baselines.

Usage:
  bench_compare.py --baseline-dir bench/baselines --candidate-dir DIR \\
      [--candidate-dir DIR2 ...] [--inject-slowdown FACTOR]
  bench_compare.py --self-test

Compares every BENCH_<name>.json present in the baseline directory against
the same file in the candidate directory (or the per-metric MEDIAN across
several candidate directories, for median-of-N noise rejection). Metrics
are gated by a direction-aware policy: only metrics that are meaningful to
gate (deterministic byte counts, pause times, overhead percentages,
unitless ratios, absolute throughput) fail the run, each with a relative
tolerance AND an absolute floor so tiny values cannot trip on rounding
noise. Everything else is advisory — printed, never fatal. A gated
baseline metric that no candidate emits is a regression too, so a bench
that stops emitting a metric cannot lose its gate silently; a missing
advisory metric is only reported.

--inject-slowdown FACTOR degrades every gated candidate metric by FACTOR
(lower-better values multiplied, higher-better divided) before comparing;
CI uses it to prove the gate actually fails when performance regresses.

--self-test runs built-in accept/reject fixtures and exits non-zero on any
fixture failure; no files are read.

Exit codes: 0 = pass, 1 = regression (or self-test failure), 2 = usage.
"""

import argparse
import json
import os
import statistics
import sys


class Rule:
    """One gate policy entry; the first rule whose substring matches the
    metric name (or whose unit matches) decides how the metric is judged."""

    def __init__(self, name, match, direction, rel_tol, abs_floor):
        self.name = name
        self.match = match  # callable(metric, unit) -> bool
        self.direction = direction  # "lower" | "higher" | "abs_points"
        self.rel_tol = rel_tol
        self.abs_floor = abs_floor


# Policy, first match wins. Tolerances are deliberately generous: the gate
# exists to catch step-change regressions (an accidental O(n^2), a debug
# path left on), not scheduler jitter on shared CI runners.
RULES = [
    # Checkpoint/recovery byte counts are deterministic given the same
    # workload knobs; 15% + 8 KiB headroom covers container layout noise.
    Rule("bytes", lambda m, u: "bytes" in m or u == "bytes",
         "lower", 0.15, 8192.0),
    # Pauses (migration / recovery): wall-clock, noisy, but a
    # doubling is a real regression. The 2.0 absolute floor is in the
    # metric's native unit: for *_us metrics it is effectively zero (the
    # relative tolerance governs), for millisecond-scale p99s it absorbs
    # single-outlier-wave jitter (observed 1.1 -> 2.4 ms between runs).
    Rule("pause", lambda m, u: "pause" in m, "lower", 1.0, 2.0),
    # Overhead percentages (telemetry, observability, attribution,
    # checkpointing): gated on absolute percentage-point increase, since
    # the baseline can legitimately be ~0 (or negative, from cache noise).
    # These are ratios of two separately-timed runs, so their variance
    # compounds: measured run-to-run swing on a quiet 1-core container is
    # up to ~23 points (bench_recovery's steady checkpoint overhead). A
    # left-on debug path costs 50+ points; 25 separates the two cleanly,
    # helped by the baselines being per-metric medians of several captures.
    Rule("overhead_pct", lambda m, u: m.endswith("overhead_pct"),
         "abs_points", None, 25.0),
    # Unitless ratios (unit "x", e.g. bench_recovery's delta_ratio; a
    # pause_ratio_* name meets the pause rule first): fairly stable.
    Rule("speedup", lambda m, u: "speedup" in m or u == "x",
         "higher", 0.35, 0.3),
    # Absolute throughput: the noisiest gate, so the widest tolerance —
    # catches only collapse-class regressions (>2x slower).
    Rule("tuples_per_sec", lambda m, u: u == "tuples/s",
         "higher", 0.5, None),
]


def find_rule(metric, unit):
    for rule in RULES:
        if rule.match(metric, unit):
            return rule
    return None


def load_snapshot(path):
    """Returns ({(bench, metric): (value, unit)}, capture_env or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc.get("results", []):
        key = (entry["bench"], entry["metric"])
        out[key] = (float(entry["value"]), entry.get("unit", ""))
    return out, doc.get("capture_env")


def judge(rule, base, cand):
    """Returns (regressed, detail) for a gated metric."""
    if rule.direction == "abs_points":
        delta = cand - base
        return delta > rule.abs_floor, f"{delta:+.2f} points"
    if rule.direction == "lower":
        delta = cand - base
        rel = delta / abs(base) if base != 0 else float("inf")
        worse = delta > 0 and rel > rule.rel_tol
        if rule.abs_floor is not None:
            worse = worse and delta > rule.abs_floor
        return worse, f"{rel:+.1%}"
    # higher-better
    delta = base - cand
    rel = delta / abs(base) if base != 0 else float("inf")
    worse = delta > 0 and rel > rule.rel_tol
    if rule.abs_floor is not None:
        worse = worse and delta > rule.abs_floor
    return worse, f"{-rel:+.1%}"


def degrade(rule, value, factor):
    """Applies the synthetic slowdown to a gated candidate value."""
    if rule.direction in ("lower",):
        return value * factor
    if rule.direction == "abs_points":
        return value + 100.0 * (factor - 1.0)  # factor 1.5 -> +50 points
    return value / factor


def compare(baseline_dir, candidate_dirs, inject_slowdown=None, out=print):
    """Compares snapshots; returns (regressions, gated, advisory) counts."""
    base_files = sorted(
        f for f in os.listdir(baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not base_files:
        out(f"error: no BENCH_*.json in {baseline_dir}")
        return 1, 0, 0

    regressions = 0
    gated = 0
    advisory = 0
    for fname in base_files:
        base, base_env = load_snapshot(os.path.join(baseline_dir, fname))
        cand_values = {}  # key -> [values]
        unit_of = {}
        cand_env = None
        found = 0
        for cdir in candidate_dirs:
            cpath = os.path.join(cdir, fname)
            if not os.path.exists(cpath):
                continue
            found += 1
            snap, cand_env = load_snapshot(cpath)
            for key, (value, unit) in snap.items():
                cand_values.setdefault(key, []).append(value)
                unit_of[key] = unit
        if found == 0:
            out(f"{fname}: missing from candidate dir(s) — skipped "
                "(build the benches and rerun run_benches.sh)")
            continue
        if base_env and cand_env and base_env != cand_env:
            out(f"{fname}: note: capture env differs "
                f"(baseline {base_env} vs candidate {cand_env}) — "
                "thresholds assume comparable machines")

        out(f"== {fname} ({found} candidate run(s), median compared)")
        counts = compare_snapshot(base, cand_values, unit_of,
                                  inject_slowdown, out)
        regressions += counts[0]
        gated += counts[1]
        advisory += counts[2]
    out(f"\ngate: {gated} gated metrics, {advisory} advisory, "
        f"{regressions} regression(s)")
    return regressions, gated, advisory


def compare_snapshot(base, cand_values, unit_of, inject_slowdown=None,
                     out=print):
    """Judges one snapshot's candidate medians against its baseline.

    base maps (bench, metric) -> (value, unit); cand_values maps the same
    keys to the candidate runs' values. Returns (regressions, gated,
    advisory) counts. A baseline metric absent from every candidate fails
    when a rule gates it and is only reported when it is advisory."""
    regressions = 0
    gated = 0
    advisory = 0
    for key in sorted(base):
        bench, metric = key
        base_value, unit = base[key]
        rule = find_rule(metric, unit_of.get(key, unit))
        if key not in cand_values:
            if rule is None:
                advisory += 1
                out(f"  MISSING  {metric} (advisory; baseline "
                    f"{base_value:g} {unit})")
            else:
                gated += 1
                regressions += 1
                out(f"  MISSING  {metric} [{rule.name}]: gated baseline "
                    f"{base_value:g} {unit} has no candidate value (FAIL)")
            continue
        cand_value = statistics.median(cand_values[key])
        if rule is None:
            advisory += 1
            out(f"  advisory {metric}: {base_value:g} -> "
                f"{cand_value:g} {unit}")
            continue
        gated += 1
        if inject_slowdown is not None:
            cand_value = degrade(rule, cand_value, inject_slowdown)
        worse, detail = judge(rule, base_value, cand_value)
        verdict = "FAIL" if worse else "ok"
        if worse:
            regressions += 1
        out(f"  {verdict:8} {metric} [{rule.name}]: "
            f"{base_value:g} -> {cand_value:g} {unit} ({detail})")
    return regressions, gated, advisory


# ---------------------------------------------------------------------------
# Self-test fixtures: synthetic baseline/candidate pairs that must accept
# or reject. Run by CI (and check_docs.sh) so the gate's policy is itself
# under test.

def self_test():
    failures = []

    def expect(name, cond):
        if not cond:
            failures.append(name)

    def one(metric, unit, base, cand, inject=None):
        rule = find_rule(metric, unit)
        if rule is None:
            return None  # advisory
        if inject is not None:
            cand = degrade(rule, cand, inject)
        worse, _ = judge(rule, base, cand)
        return worse

    # Byte counts: small wobble passes, step change fails, and a large
    # relative jump on a tiny absolute value stays under the floor.
    expect("bytes-noise-ok",
           one("checkpoint_bytes_total", "bytes", 1e6, 1.05e6) is False)
    expect("bytes-step-fails",
           one("checkpoint_bytes_total", "bytes", 1e6, 1.5e6) is True)
    expect("bytes-abs-floor",
           one("delta_bytes", "bytes", 1000, 2000) is False)
    # Lease metrics have zero baselines by construction (a lease flip ships
    # no bytes and pauses nothing), so the relative tolerance is moot and
    # the absolute floors carry the gate: staying at zero passes, any real
    # bytes or a milliseconds-scale pause appearing fails.
    expect("lease-bytes-zero-ok",
           one("lease_migration_bytes", "bytes", 0, 0) is False)
    expect("lease-bytes-appear-fails",
           one("lease_migration_bytes", "bytes", 0, 10000) is True)
    expect("lease-pause-zero-ok",
           one("lease_pause_ms", "ms", 0.0, 0.0) is False)
    expect("lease-pause-appear-fails",
           one("lease_pause_ms", "ms", 0.0, 3.0) is True)
    expect("scaleout-pause-gated",
           one("scaleout_lease_pause_ms", "ms", 0.0, 3.0) is True)
    # Pauses: 50% jitter passes, 3x fails; ms-unit metrics gate too, but a
    # millisecond-scale p99 doubling stays under the absolute floor.
    expect("pause-noise-ok", one("p99_pause_us", "us", 400, 600) is False)
    expect("pause-3x-fails", one("p99_pause_us", "us", 400, 1200) is True)
    expect("pause-ms-fails", one("direct_pause_ms", "ms", 2.0, 6.0) is True)
    expect("pause-ms-jitter-ok",
           one("large_wave_pause_p99_rehash_off_ms", "ms", 1.1, 2.4) is False)
    # Overheads: absolute points, baseline may be negative, and two-run
    # ratio noise (up to ~23 points observed) must pass.
    expect("overhead-ok",
           one("attribution_overhead_pct", "%", -2.0, 20.0) is False)
    expect("overhead-fails",
           one("attribution_overhead_pct", "%", -2.0, 25.0) is True)
    # Unitless ratios: modest loss passes, halving fails.
    expect("ratio-ok", one("delta_ratio", "x", 2.4, 2.0) is False)
    expect("ratio-fails", one("delta_ratio", "x", 2.4, 1.1) is True)
    # Throughput: very generous, only collapse fails.
    expect("tps-noise-ok",
           one("batched_1worker", "tuples/s", 2e7, 1.2e7) is False)
    expect("tps-collapse-fails",
           one("batched_1worker", "tuples/s", 2e7, 0.8e7) is True)
    # Injected slowdown trips every gated direction.
    expect("inject-lower",
           one("p99_pause_us", "us", 400, 400, inject=3.0) is True)
    expect("inject-higher",
           one("batched_1worker", "tuples/s", 2e7, 2e7, inject=3.0) is True)
    expect("inject-points",
           one("attribution_overhead_pct", "%", 0.0, 0.0, inject=1.5) is True)
    # Advisory metrics never gate.
    expect("advisory-none", find_rule("steady_p99_ms_direct", "ms") is None)
    expect("unknown-advisory", one("some_random_metric", "widgets", 1, 99)
           is None)

    # A baseline metric no candidate emits: a gated one fails (the bench
    # stopped emitting it, which must not drop its gate), an advisory one
    # is reported and passes. Present metrics beside it still gate.
    def missing(metric, unit):
        base = {("b", metric): (2.0, unit), ("b", "tps"): (1e6, "tuples/s")}
        cand = {("b", "tps"): [1e6]}
        return compare_snapshot(base, cand, {("b", "tps"): "tuples/s"},
                                out=lambda line: None)

    expect("missing-gated-fails",
           missing("delta_ratio", "x") == (1, 2, 0))
    expect("missing-advisory-ok",
           missing("steady_p99_ms_direct", "ms") == (0, 1, 1))

    if failures:
        print("bench_compare self-test FAILED:", ", ".join(failures))
        return 1
    print("bench_compare self-test: all fixtures passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir")
    parser.add_argument("--candidate-dir", action="append", default=[])
    parser.add_argument("--inject-slowdown", type=float, default=None)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if not args.baseline_dir or not args.candidate_dir:
        parser.print_usage(sys.stderr)
        return 2
    regressions, gated, _ = compare(
        args.baseline_dir, args.candidate_dir, args.inject_slowdown)
    if gated == 0:
        print("error: nothing was gated — snapshot files empty or missing")
        return 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
