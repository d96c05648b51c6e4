#!/usr/bin/env python3
"""Diff two BENCH_*.json perf-trajectory files with tolerances.

Usage:
    compare_bench.py OLD.json NEW.json [--tol FRAC] [--metric-tol KEY=FRAC ...]

Records are matched by their identity fields (every string-valued field:
scenario, model, executor, ...). For each matched record, numeric metrics
are compared with a *direction-aware* relative tolerance: a metric only
fails the gate when it moves in its BAD direction (latency/bytes up,
throughput/hit-rate down) by more than the tolerance. Improvements and
in-tolerance noise are reported but never fail.

Exit status: 0 = no out-of-tolerance regression, 1 = regression (or a
record present in OLD but missing from NEW), 2 = usage/schema error.

Intended workflow: download the BENCH_*.json artifact from a baseline CI
run (or regenerate it from the parent commit), then

    ./scripts/compare_bench.py baseline/BENCH_serving_gauntlet.json \
        BENCH_serving_gauntlet.json
"""

import argparse
import json
import sys

# Direction of "worse" per metric: +1 = larger is worse (latency, bytes,
# queueing), -1 = smaller is worse (throughput, hit rate). Metrics not
# listed are informational: drift is reported but never gates.
METRIC_DIRECTION = {
    "p50_ms": +1,
    "p90_ms": +1,
    "p99_ms": +1,
    "max_ms": +1,
    "overflow": +1,
    "h2d_mb": +1,
    "d2h_mb": +1,
    "achieved_qps": -1,
    "max_qps": -1,
    "offered_qps": 0,  # identity of the load point, not an outcome
    "requests": 0,
    "batches": 0,
    "cache_hit_rate": -1,
    "cache_saved_mb": -1,
}

# Metrics compared with an ABSOLUTE tolerance floor as well: tiny baselines
# (0.01 ms, 2% hit rate) make pure relative gates hair-trigger.
ABSOLUTE_FLOOR = {
    "p50_ms": 0.05,
    "p90_ms": 0.05,
    "p99_ms": 0.05,
    "max_ms": 0.05,
    "cache_hit_rate": 0.01,
    "overflow": 1.0,
    "h2d_mb": 0.01,
    "d2h_mb": 0.01,
    "cache_saved_mb": 0.01,
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    for key in ("bench", "schema", "records"):
        if key not in doc:
            sys.exit(f"error: {path} is not a BENCH_*.json file "
                     f"(missing '{key}')")
    return doc


def record_key(record):
    """Identity = every string-valued field, in insertion order."""
    return tuple((k, v) for k, v in record.items() if isinstance(v, str))


def fmt_key(key):
    return " / ".join(v for _, v in key)


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json files with tolerances.")
    parser.add_argument("old", help="baseline trajectory file")
    parser.add_argument("new", help="candidate trajectory file")
    parser.add_argument("--tol", type=float, default=0.10,
                        help="default relative tolerance (default: 0.10)")
    parser.add_argument("--metric-tol", action="append", default=[],
                        metavar="KEY=FRAC",
                        help="per-metric tolerance override, repeatable")
    args = parser.parse_args()

    per_metric_tol = {}
    for spec in args.metric_tol:
        key, _, value = spec.partition("=")
        if not value:
            parser.error(f"--metric-tol expects KEY=FRAC, got '{spec}'")
        per_metric_tol[key] = float(value)

    old_doc = load(args.old)
    new_doc = load(args.new)
    if old_doc["bench"] != new_doc["bench"]:
        sys.exit(f"error: bench mismatch: {old_doc['bench']} vs "
                 f"{new_doc['bench']}")
    if old_doc["schema"] != new_doc["schema"]:
        print(f"warning: schema changed {old_doc['schema']} -> "
              f"{new_doc['schema']}; comparing shared metrics only")

    old_records = {record_key(r): r for r in old_doc["records"]}
    new_records = {record_key(r): r for r in new_doc["records"]}

    regressions = []
    improvements = []
    drifts = []

    missing = sorted(set(old_records) - set(new_records))
    added = sorted(set(new_records) - set(old_records))
    for key in missing:
        regressions.append(f"MISSING record: {fmt_key(key)}")
    for key in added:
        print(f"note: new record (no baseline): {fmt_key(key)}")

    for key in sorted(set(old_records) & set(new_records)):
        old_r, new_r = old_records[key], new_records[key]
        for metric, old_v in old_r.items():
            if not isinstance(old_v, (int, float)) or isinstance(old_v, bool):
                continue
            if metric not in new_r:
                regressions.append(
                    f"{fmt_key(key)}: metric '{metric}' disappeared")
                continue
            new_v = new_r[metric]
            direction = METRIC_DIRECTION.get(metric)
            tol = per_metric_tol.get(metric, args.tol)
            floor = ABSOLUTE_FLOOR.get(metric, 0.0)
            delta = new_v - old_v
            # Worse = moved in the bad direction beyond BOTH the relative
            # tolerance and the absolute floor.
            allowed = max(tol * abs(old_v), floor)
            line = (f"{fmt_key(key)}: {metric} {old_v:g} -> {new_v:g} "
                    f"({delta:+g}, allowed ±{allowed:g})")
            if direction is None:
                if abs(delta) > allowed:
                    drifts.append(line)
            elif direction == 0:
                continue
            elif direction * delta > allowed:
                regressions.append(line)
            elif direction * delta < -allowed:
                improvements.append(line)

    if improvements:
        print(f"-- {len(improvements)} improvement(s):")
        for line in improvements:
            print(f"   {line}")
    if drifts:
        print(f"-- {len(drifts)} unclassified metric drift(s) "
              "(informational):")
        for line in drifts:
            print(f"   {line}")
    if regressions:
        print(f"-- {len(regressions)} REGRESSION(s):")
        for line in regressions:
            print(f"   {line}")
        print(f"FAIL: {args.new} regressed vs {args.old}")
        return 1
    print(f"OK: {len(set(old_records) & set(new_records))} records within "
          f"tolerance ({args.old} -> {args.new})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
