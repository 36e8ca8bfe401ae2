#!/usr/bin/env bash
# Regenerate the committed latency baseline (BENCH_baseline.json) and
# the full grid's result digests (BENCH_grid.sha256) from the current
# build. Run this after an intentional change to results, review the
# `capstat diff` output against the old baseline and the diff of the
# digest list, and commit both files together with the change that
# moved the numbers.
#
# usage: update_baseline.sh [BUILD_DIR]
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$repo/build}
baseline=$repo/BENCH_baseline.json

if [[ -f $baseline ]]; then
    old=$(mktemp)
    cp "$baseline" "$old"
    "$repo/scripts/perf_smoke.sh" "$build" "$baseline"
    echo "--- change vs previous baseline ---"
    "$build/tools/capstat" diff "$old" "$baseline" || true
    rm -f "$old"
else
    "$repo/scripts/perf_smoke.sh" "$build" "$baseline"
fi
echo "update_baseline: wrote $baseline"

# The full grid's run-<hash>.json files hold integers only, so they are
# byte-identical at any --jobs; pin each file's sha256.
grid=$repo/BENCH_grid.sha256
grid_dir=$(mktemp -d)
"$build/bench/sweep_grid" --no-cache --quiet --json-dir "$grid_dir" \
    > /dev/null
(cd "$grid_dir" && sha256sum run-*.json) > "$grid"
rm -rf "$grid_dir"
echo "update_baseline: wrote $grid"
