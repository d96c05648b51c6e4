#!/usr/bin/env bash
# Runs the kernel-fusion ablation and verifies its artifacts:
#   1. the text summary is byte-identical to docs/expected/
#      bench_fusion_dispatch.txt (the determinism gate for the fusion
#      path),
#   2. BENCH_fusion_dispatch.json passes compare_bench.py against the
#      committed baseline (the cross-PR perf-trajectory gate), and
#   3. the acceptance claims hold in the fresh JSON:
#        (a) at least one launch-bound cell cuts launch overhead >= 2x
#            when its registered chains are fused,
#        (b) the fused hybrid session's max QPS under the SLO is >= the
#            unfused hybrid session's, on every seed for every model, and
#        (c) every placement's seed spread (max-min)/median of max QPS is
#            <= 0.25, so the saturation table ranks placements by more
#            than seed noise.
# Registered as the `fusion_dispatch_diff` CTest (label: fusion).
#
# Usage: check_fusion.sh <bench-binary> <workdir>
set -euo pipefail

bench=$1
workdir=$2
repo=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$workdir"
cd "$workdir"

"$bench" > bench_fusion_dispatch.txt
diff -u "$repo/docs/expected/bench_fusion_dispatch.txt" bench_fusion_dispatch.txt

if command -v python3 > /dev/null; then
    python3 - << 'EOF'
import json

records = json.load(open("BENCH_fusion_dispatch.json"))["records"]

ablation = [r for r in records if r["table"] == "launch_ablation"]
assert ablation, "no launch_ablation records"
best = max(r["launch_reduction"] for r in ablation)
assert best >= 2.0, f"no launch-bound cell reaches a 2x reduction (best {best})"

sweep = [r for r in records if r["table"] == "saturation"]
assert sweep, "no saturation records"
qps = {}
for r in sweep:
    qps.setdefault((r["model"], r["placement"]), {})[r["seed"]] = r["max_qps"]
for (model, placement), by_seed in qps.items():
    if placement != "hybrid+fused":
        continue
    unfused = qps[(model, "hybrid")]
    assert by_seed.keys() == unfused.keys(), f"{model}: seed sets differ"
    for seed, fused in by_seed.items():
        assert fused >= unfused[seed], (
            f"{model} seed {seed}: fused max QPS {fused} < unfused "
            f"{unfused[seed]}")
worst = 0.0
for key, by_seed in qps.items():
    values = sorted(by_seed.values())
    median = values[len(values) // 2]
    assert median > 0, f"{key}: no sustained rate"
    spread = (values[-1] - values[0]) / median
    assert spread <= 0.25, f"{key}: seed spread {spread:.2f} > 0.25"
    worst = max(worst, spread)

print(f"acceptance ok: best launch reduction {best}x, fused >= unfused on "
      f"every seed, worst seed spread {worst:.2f} over {len(qps)} cells")
EOF
    "$repo/scripts/compare_bench.py" \
        "$repo/docs/expected/BENCH_fusion_dispatch.json" \
        BENCH_fusion_dispatch.json > /dev/null
else
    echo "note: python3 not found; skipped JSON validation"
fi

echo "fusion dispatch matches docs/expected/ and the JSON baseline"
