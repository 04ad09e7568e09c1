#!/usr/bin/env python3
"""Summarize a controller decision journal (JSONL, core/round_journal.h).

Usage: analyze_journal.py JOURNAL.jsonl
       analyze_journal.py --self-test

Reads one ControllerRound record per line and reports:
  - round counts (total, recovery rounds)
  - planning time per round (plan_ms: p50 and max), and the rounds whose
    planning a wall-clock cap cut short (plan_capped)
  - migration mode shares and the reasons the controller recorded
  - predicted-vs-actual pause error per mode (the cost model's accuracy)
  - checkpoint volume and recovery totals
  - causal attribution: the dominant wave-phase histogram across rounds
    and the top attributed (operator, group) service costs

Exits non-zero on malformed input — every record must carry exactly the
top-level keys in JOURNAL_KEYS and a valid "attribution" object
(dominant_phase is "off" when the engine ran without wave-phase profiling)
— so CI can use it as a schema check. --self-test validates the checks
themselves against inline pass/fail fixtures.
"""

import json
import statistics
import sys

# A record's top-level keys, in the order RoundJournal::ToJson writes them
# (src/core/round_journal.cc). A record with any other key set means the
# journal and the analyzer drifted.
JOURNAL_KEYS = (
    "round", "measured_costs", "plan_ms", "plan_capped", "tuples",
    "migrations",
    "decisions", "checkpoint", "recovery", "cluster", "load", "latency",
    "attribution",
)

# WavePhaseName's fixed vocabulary (src/common/profiler.h), plus "off" for
# rounds journaled without profiling.
VALID_PHASES = frozenset([
    "off", "idle", "ingest", "service", "wave_barrier", "window",
    "checkpoint", "migration", "recovery",
])

# The controller's fixed decision-reason vocabulary (core/controller_loop.cc).
# A reason outside this set means the journal and the controller drifted.
VALID_REASONS = frozenset([
    "no-checkpointing", "forced-indirect", "indirect-cheaper",
    "lease-zero-cost", "direct-cheapest",
])


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]

    rounds = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"{path}:{lineno}: invalid JSON: {exc}", file=sys.stderr)
                return 1
            missing = [k for k in JOURNAL_KEYS if k not in rec]
            unexpected = sorted(set(rec) - set(JOURNAL_KEYS))
            if missing or unexpected:
                print(f"{path}:{lineno}: key set differs from JOURNAL_KEYS "
                      f"(missing {missing}, unexpected {unexpected})",
                      file=sys.stderr)
                return 1
            phase = rec["attribution"].get("dominant_phase")
            if phase not in VALID_PHASES:
                print(f"{path}:{lineno}: invalid dominant_phase {phase!r}",
                      file=sys.stderr)
                return 1
            for d in rec["decisions"]:
                if d.get("reason") not in VALID_REASONS:
                    print(f"{path}:{lineno}: invalid decision reason "
                          f"{d.get('reason')!r}", file=sys.stderr)
                    return 1
            rounds.append(rec)

    if not rounds:
        print(f"{path}: empty journal", file=sys.stderr)
        return 1

    recovery_rounds = sum(
        1 for r in rounds if r["recovery"]["groups_recovered"] > 0)
    planned = sum(r["migrations"]["planned"] for r in rounds)
    applied = sum(r["migrations"]["applied"] for r in rounds)

    print(f"journal: {path}")
    print(f"rounds: {len(rounds)} (with recovery: {recovery_rounds})")
    print(f"migrations: {applied} applied of {planned} planned")
    plan_ms = [r["plan_ms"] for r in rounds]
    print(f"planning: p50 {statistics.median(plan_ms):.3f} ms, "
          f"max {max(plan_ms):.3f} ms")
    capped = sum(1 for r in rounds if r["plan_capped"])
    print(f"capped plans: {capped} of {len(rounds)} rounds")

    # Mode shares, reasons and prediction error, from the decision records.
    by_mode = {}
    reasons = {}
    for r in rounds:
        for d in r["decisions"]:
            mode = d["mode"]
            stats = by_mode.setdefault(
                mode, {"n": 0, "pred": 0.0, "actual": 0.0, "abs_err": 0.0})
            stats["n"] += 1
            stats["pred"] += d["predicted_pause_us"]
            stats["actual"] += d["actual_pause_us"]
            stats["abs_err"] += abs(
                d["predicted_pause_us"] - d["actual_pause_us"])
            reasons[d["reason"]] = reasons.get(d["reason"], 0) + 1

    if by_mode:
        print("\nper-mode pause prediction (from decision records):")
        print(f"  {'mode':10} {'count':>6} {'predicted':>12} "
              f"{'actual':>12} {'mean |err|':>12}")
        for mode in sorted(by_mode):
            s = by_mode[mode]
            print(f"  {mode:10} {s['n']:>6} {fmt_us(s['pred']):>12} "
                  f"{fmt_us(s['actual']):>12} "
                  f"{fmt_us(s['abs_err'] / s['n']):>12}")
        print("\ndecision reasons:")
        for reason in sorted(reasons, key=reasons.get, reverse=True):
            print(f"  {reason}: {reasons[reason]}")
    else:
        print("no migration decisions recorded")

    ckpt_taken = sum(r["checkpoint"]["taken"] for r in rounds)
    ckpt_bytes = sum(r["checkpoint"]["bytes"] for r in rounds)
    print(f"\ncheckpoints: {ckpt_taken} snapshots, {ckpt_bytes} bytes")

    failed = sum(r["recovery"]["nodes_failed"] for r in rounds)
    recovered = sum(r["recovery"]["groups_recovered"] for r in rounds)
    if failed or recovered:
        pause = sum(r["recovery"]["pause_us"] for r in rounds)
        wall = sum(r["recovery"]["wall_us"] for r in rounds)
        print(f"recovery: {failed} node failures, {recovered} groups "
              f"restored, modeled pause {fmt_us(pause)}, wall {fmt_us(wall)}")

    # Causal attribution: where did each round's wall time dominantly go,
    # and which (operator, group) pairs carried the service load.
    phase_hist = {}
    share_sum = {}
    for r in rounds:
        att = r["attribution"]
        phase = att["dominant_phase"]
        phase_hist[phase] = phase_hist.get(phase, 0) + 1
        share_sum[phase] = share_sum.get(phase, 0.0) + att.get(
            "dominant_share", 0.0)
    print("\ndominant wave phase per round:")
    for phase in sorted(phase_hist, key=phase_hist.get, reverse=True):
        n = phase_hist[phase]
        if phase == "off":
            print(f"  off (profiling disabled): {n} round(s)")
        else:
            print(f"  {phase}: {n} round(s), "
                  f"mean share {share_sum[phase] / n:.0%}")

    op_cost = {}
    for r in rounds:
        for c in r["attribution"].get("top_costs", []):
            key = (c["op"], c["group"])
            op_cost[key] = op_cost.get(key, 0) + c["service_ns"]
    if op_cost:
        total = sum(op_cost.values())
        print("top attributed service costs (operator, group):")
        ranked = sorted(op_cost, key=op_cost.get, reverse=True)[:5]
        for op, group in ranked:
            ns = op_cost[(op, group)]
            print(f"  op {op} group {group}: {fmt_us(ns / 1000.0)} "
                  f"({ns / total:.0%} of attributed)")

    return 0


def self_test():
    """Inline fixtures: the schema checks must accept a valid record and
    reject ones with a missing or unexpected key, a bad phase or a bad
    reason."""
    import io
    import os
    import tempfile

    valid = {
        "round": 0, "measured_costs": False, "plan_ms": 0.25,
        "plan_capped": False,
        "tuples": {"processed": 0, "ingested": 0, "buffered": 0,
                   "replayed": 0},
        "migrations": {"planned": 0, "applied": 0},
        "decisions": [],
        "checkpoint": {"taken": 0, "bytes": 0},
        "recovery": {"nodes_failed": 0, "groups_recovered": 0,
                     "pause_us": 0.0, "wall_us": 0.0},
        "cluster": {"active": 2, "marked": 0, "added": 0, "terminated": 0},
        "load": {"mean": 50.0, "distance": 0.0},
        "latency": {"count": 0, "p50_us": 0, "p99_us": 0, "max_us": 0,
                    "queue_p99_us": 0},
        "attribution": {"dominant_phase": "service", "dominant_share": 0.8,
                        "wall_ns": 1000,
                        "top_costs": [{"group": 1, "op": 0,
                                       "service_ns": 800, "share": 1.0}]},
    }
    off = dict(valid, attribution={"dominant_phase": "off",
                                   "dominant_share": 0.0, "wall_ns": 0,
                                   "top_costs": []})
    lease_decision = {
        "group": 3, "from": 0, "to": 1, "mode": "lease",
        "reason": "lease-zero-cost",
        "predicted_pause_us": 0.0, "actual_pause_us": 0.0,
        "est": {"direct_us": 512.0, "indirect_us": -1.0, "lease_us": 0.0},
    }
    lease = dict(valid, migrations={"planned": 1, "applied": 1},
                 decisions=[lease_decision])
    missing = {k: v for k, v in valid.items() if k != "attribution"}
    no_plan_ms = {k: v for k, v in valid.items() if k != "plan_ms"}
    extra_key = dict(valid, unknown_key=True)
    bad_phase = dict(valid, attribution={"dominant_phase": "banana"})
    bad_reason = dict(valid,
                      decisions=[dict(lease_decision, reason="vibes")])

    failures = []

    def run_on(records):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".jsonl", delete=False) as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            name = fh.name
        old_stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            rc = main(["analyze_journal.py", name])
        finally:
            sys.stdout = old_stdout
            os.unlink(name)
        return rc

    if run_on([valid, off, lease]) != 0:
        failures.append("valid-journal-accepted")
    if run_on([missing]) == 0:
        failures.append("missing-attribution-rejected")
    if run_on([no_plan_ms]) == 0:
        failures.append("missing-plan-ms-rejected")
    if run_on([extra_key]) == 0:
        failures.append("unexpected-key-rejected")
    if run_on([bad_phase]) == 0:
        failures.append("invalid-phase-rejected")
    if run_on([bad_reason]) == 0:
        failures.append("invalid-reason-rejected")

    if failures:
        print("analyze_journal self-test FAILED:", ", ".join(failures))
        return 1
    print("analyze_journal self-test: all fixtures passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        sys.exit(self_test())
    sys.exit(main(sys.argv))
