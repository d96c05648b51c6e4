#!/usr/bin/env bash
# Runs the section-5 optimization ablation and verifies its table:
#   1. the text summary is byte-identical to docs/expected/
#      bench_ablation_optimizations.txt (the determinism gate for the DTDG
#      schedules), and
#   2. every row's numerics column reads `identical` and no optimized
#      (staged) row is slower than its baseline (eager) row, so a
#      regenerated golden cannot quietly accept a slower or numerically
#      different schedule, and
#   3. every model with a staged schedule has its staged row: EvolveGCN-O,
#      EvolveGCN-H, MolDGNN, ASTGNN, TGAT and JODIE.
# Registered as the `ablation_optimizations_diff` CTest (label: schedule).
#
# Usage: check_schedule.sh <bench-binary> <workdir>
set -euo pipefail

bench=$1
workdir=$2
repo=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$workdir"
cd "$workdir"

"$bench" > bench_ablation_optimizations.txt
diff -u "$repo/docs/expected/bench_ablation_optimizations.txt" \
    bench_ablation_optimizations.txt

# Table rows: | name | baseline (ms) | optimized (ms) | speedup | numerics |
awk -F'|' -v staged_models=6 '
    NF == 7 && $3 ~ /^ *[0-9.]+ *$/ {
        rows++
        name = $2; gsub(/^ +| +$/, "", name)
        if (name ~ / staged( |$)/) {
            staged++
        }
        numerics = $6; gsub(/ /, "", numerics)
        if (numerics != "identical") {
            print name ": numerics " numerics; bad = 1
        }
        if ($4 + 0 > $3 + 0) {
            print name ": optimized " $4 + 0 " ms > baseline " $3 + 0 " ms"; bad = 1
        }
    }
    END {
        if (rows == 0) { print "no ablation rows found"; exit 1 }
        if (staged != staged_models) {
            print staged " staged rows, expected " staged_models; exit 1
        }
        exit bad
    }' bench_ablation_optimizations.txt
