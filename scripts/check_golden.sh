#!/usr/bin/env bash
# Runs one bench or example binary and diffs its stdout against
# docs/expected/<binary name>.txt byte for byte: any difference is a
# behaviour change. Registered as the `<binary>_diff` CTests (label:
# schedule) for the goldens whose batches issue through
# sim::StagingPipeline.
#
# Usage: check_golden.sh <binary> <workdir>
set -euo pipefail

binary=$1
workdir=$2
repo=$(cd "$(dirname "$0")/.." && pwd)
name=$(basename "$binary")

mkdir -p "$workdir"
cd "$workdir"

"$binary" > "$name.txt"
diff -u "$repo/docs/expected/$name.txt" "$name.txt"
