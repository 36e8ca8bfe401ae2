#!/usr/bin/env bash
# Gate for the host-time self-profiler (obs/prof, --prof-out):
# profiling must observe without perturbing.
#
# Five stages:
#  1. Byte identity: the quick grid runs with the profiler off and on
#     (at --jobs 1 and --jobs N), and every simulated artefact —
#     per-run result JSON and latency artefacts — must be
#     byte-identical across all four runs. Enabling --prof-out /
#     --prof-folded may never change simulated behaviour.
#  2. Profile shape: every profiled run must emit a
#     run-<hash>.prof.json whose schema is capcheck.prof.v1, whose
#     per-domain selfNanos sum exactly to its wallNanos (the "other"
#     domain closes the books), whose shares sum to ~1, and a folded
#     stacks file whose total matches. Attribution must also be
#     nearly complete: summed over the grid, "other" (host time no
#     scope claims) may hold at most 5 % of the summed run wall
#     time. It measures ~0.6 % with the
#     calloc-backed TaggedMemory against ~20 % when every run
#     zero-filled its 64 MiB up front (quick grid, --jobs 1, 4-vCPU
#     host), so that class of unattributed fixed cost cannot return
#     unnoticed. (Cheap single points still
#     show a large "other" share, so the gate is grid-wide, not
#     per run.)
#  3. Dispatches per beat: the event dispatches of the quick grid
#     (the calls of the counted sim/dispatch site: every tick, queued
#     or continued inline) divided by its simulated DMA beats may not
#     exceed MAX_DISPATCHES_PER_BEAT. Both counts are exact and
#     machine-independent, so the ceiling is the measured value
#     (1.0001: one crossbar arbitration per beat and each task's
#     finish; players compute their ticks, and the check stage and
#     the memory controller their cycles at grant): a player that
#     dispatches its ticks again, or a component that starts ticking
#     per cycle, fails it. The same quick grid on the cascaded
#     examples/topologies/gen-mega.json (four leaf crossbars under a
#     root) may not exceed MAX_GEN_MEGA_DISPATCHES_PER_ACCEPT event
#     dispatches per memory-controller accept (2.1603 measured: one
#     arbitration per crossbar level per beat, the leaf's queued
#     because the root's tick runs first on its cycle; a refused
#     crossbar waits for its refuser's retry). A crossbar that
#     re-offers a refused beat every cycle again measured 2.5139.
#  4. Reader tools: `capstat prof report` renders the profiles and
#     `capstat prof merge` + self-`diff` at tolerance 0 passes — the
#     merged document is a valid baseline format.
#  5. Overhead ceiling: the full grid at --jobs JOBS, profiled, may
#     take at most PROF_MAX_OVERHEAD times the wall time of the same
#     grid unprofiled, each side the best of three alternating runs
#     (a single sub-second run is too noisy to gate on). The clock is
#     read only where a beat changes domain (arbitration, the player's
#     advance and the check stage), and only on sampled beats: after a
#     64-activation warm-up, arbitration is timed on about one call in
#     16 and the rest are counted. The memory accept and the event
#     dispatches are always counted, and so are the checker's lookups
#     inside the stage. That measures 1.04-1.41x (median 1.19x, ten
#     runs) on a shared 4-vCPU host, against 1.58-1.85x (median 1.74x)
#     when every activation of those scopes reads the clock. The 1.5x
#     default sits above every one of the first ten runs and below
#     every one of the second; it catches a return to timing every
#     beat. Both runs write result JSON only: latency artefacts would
#     add the same cost to both sides and dilute the ratio.
#
# usage: prof_check.sh BUILD_DIR
set -euo pipefail

build=${1:?usage: prof_check.sh BUILD_DIR}
jobs=${JOBS:-4}
max_overhead=${PROF_MAX_OVERHEAD:-1.5}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_grid NAME [sweep_grid args...] -> wall seconds on stdout.
# Runs the grid with result JSON into $work/NAME; caching is off so
# every run simulates.
run_grid() {
    local name=$1
    shift
    local t0 t1
    mkdir -p "$work/$name"
    t0=$(date +%s%N)
    "$build/bench/sweep_grid" --quiet --no-cache \
        --json-dir "$work/$name/results" "$@" >&2
    t1=$(date +%s%N)
    awk "BEGIN { printf \"%.3f\", ($t1 - $t0) / 1e9 }"
}

# quick_grid NAME [sweep_grid args...]: the quick grid, with latency
# artefacts too.
quick_grid() {
    local name=$1
    shift
    run_grid "$name" --quick --latency-json "$work/$name/latency" \
        "$@" > /dev/null
}

echo "prof_check: [1/5] byte identity, profiler off vs on"
quick_grid off-j1 --jobs 1
quick_grid on-j1 --jobs 1 \
    --prof-out "$work/on-j1/prof" --prof-folded "$work/on-j1/folded"
quick_grid off-jN --jobs "$jobs"
quick_grid on-jN --jobs "$jobs" \
    --prof-out "$work/on-jN/prof" --prof-folded "$work/on-jN/folded"

# Per-run result JSON and latency artefacts must match byte for byte.
# The sweep manifest also carries host wall-clock measurements
# (wallMillis, the runWall profile block, workerUtilization) that
# differ between ANY two runs; those are stripped and everything else
# must match exactly.
# Every per-run artefact is --jobs independent, so all four variants
# compare against off-j1.
for variant in on-j1 off-jN on-jN; do
    for sub in results latency; do
        diff -r --exclude=sweep_grid.manifest.json \
            "$work/off-j1/$sub" "$work/$variant/$sub" > /dev/null || {
            echo "prof_check: FAIL: $sub artefacts differ" \
                 "between off-j1 and $variant"
            exit 1
        }
    done
done
# The manifest carries the worker count and host wall-clock
# measurements (wallMillis, the runWall profile block,
# workerUtilization) that legitimately differ between ANY two runs;
# profiler-on vs off is compared at matching --jobs with the host
# timings stripped, and everything else must match exactly.
for pair in j1 jN; do
    python3 - "$work/off-$pair/results/sweep_grid.manifest.json" \
        "$work/on-$pair/results/sweep_grid.manifest.json" <<'EOF'
import json, sys

HOST_TIME_KEYS = {
    "wallMillis", "simWallMillis", "sweepWallMillis", "runWall",
    "workerUtilization",
}

def strip(v):
    if isinstance(v, dict):
        return {k: strip(m) for k, m in v.items()
                if k not in HOST_TIME_KEYS}
    if isinstance(v, list):
        return [strip(e) for e in v]
    return v

a, b = (strip(json.load(open(p))) for p in sys.argv[1:3])
assert a == b, f"manifests diverge beyond host timings: {sys.argv[2]}"
EOF
done
echo "prof_check: artefacts byte-identical across off/on, jobs 1/$jobs"

echo "prof_check: [2/5] profile shape and exact books"
python3 - "$work/on-j1/prof" "$work/on-j1/folded" <<'EOF'
import glob, json, os, sys

# Largest share of the grid's summed run wall time that may go
# unattributed ("other").
MAX_OTHER = 0.05

prof_dir, folded_dir = sys.argv[1], sys.argv[2]
grid_wall = grid_other = 0
profs = sorted(glob.glob(os.path.join(prof_dir, "run-*.prof.json")))
assert profs, "no run-*.prof.json written"
for path in profs:
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "capcheck.prof.v1", path
    assert doc["label"], path
    wall = doc["wallNanos"]
    assert wall > 0, path
    domains = doc["domains"]
    assert domains[-1]["domain"] == "other", path
    grid_wall += wall
    grid_other += domains[-1]["selfNanos"]
    self_sum = sum(d["selfNanos"] for d in domains)
    assert self_sum == wall, f"{path}: domain self {self_sum} != wall {wall}"
    share_sum = sum(d["share"] for d in domains)
    assert abs(share_sum - 1.0) < 1e-6, f"{path}: shares sum to {share_sum}"
    for site in doc["sites"]:
        assert site["calls"] > 0, path

    # The folded twin: same hash, self times sum to the same wall.
    folded = os.path.join(
        folded_dir,
        os.path.basename(path).replace(".prof.json", ".folded"))
    assert os.path.exists(folded), f"missing {folded}"
    folded_sum = 0
    with open(folded) as f:
        for line in f:
            stack, nanos = line.rsplit(" ", 1)
            folded_sum += int(nanos)
    assert folded_sum == wall, \
        f"{folded}: folded total {folded_sum} != wall {wall}"
print(f"{len(profs)} profiles validated (self-times close the books)")
other_share = grid_other / grid_wall
print(f"unattributed ('other') host time: {100 * other_share:.2f} % "
      f"of {grid_wall / 1e6:.0f} ms summed run wall "
      f"(max {100 * MAX_OTHER:.0f} %)")
assert other_share <= MAX_OTHER, \
    f"'other' holds {100 * other_share:.2f} % of the grid's run wall time"
EOF

echo "prof_check: [3/5] dispatches per DMA beat"
mega_dir=$(cd "$(dirname "$0")/.." && pwd)/examples/topologies
run_grid mega --quick --jobs "$jobs" --prof-out "$work/mega/prof" \
    --topology "$mega_dir/gen-mega.json" > /dev/null
python3 - "$work/on-j1/prof" "$work/on-j1/results" "$work/mega/prof" <<'EOF'
import glob, json, os, sys

# Exact counts; raise only with a change that needs more dispatches.
MAX_DISPATCHES_PER_BEAT = 1.0001
MAX_GEN_MEGA_DISPATCHES_PER_ACCEPT = 2.1603

def calls(prof_dir, key):
    total = 0
    for path in glob.glob(os.path.join(prof_dir, "run-*.prof.json")):
        with open(path) as f:
            for site in json.load(f)["sites"]:
                if (site["domain"], site["name"]) == key:
                    total += site["calls"]
    return total

prof_dir, results_dir, mega_dir = sys.argv[1:4]
dispatches = calls(prof_dir, ("sim", "dispatch"))
beats = 0
for path in glob.glob(os.path.join(results_dir, "run-*.json")):
    with open(path) as f:
        beats += json.load(f)["result"]["dmaBeats"]
assert beats > 0, "quick grid simulated no DMA beats"
ratio = dispatches / beats
print(f"{dispatches} dispatches / {beats} DMA beats = {ratio:.4f} "
      f"(max {MAX_DISPATCHES_PER_BEAT})")
assert ratio <= MAX_DISPATCHES_PER_BEAT, \
    f"{ratio:.4f} dispatches per beat exceeds {MAX_DISPATCHES_PER_BEAT}"

dispatches = calls(mega_dir, ("sim", "dispatch"))
accepts = calls(mega_dir, ("mem", "memctrl.accept"))
assert accepts > 0, "gen-mega quick grid accepted no memory beats"
ratio = dispatches / accepts
print(f"gen-mega: {dispatches} dispatches / {accepts} memory accepts = "
      f"{ratio:.4f} (max {MAX_GEN_MEGA_DISPATCHES_PER_ACCEPT})")
assert ratio <= MAX_GEN_MEGA_DISPATCHES_PER_ACCEPT, \
    f"gen-mega: {ratio:.4f} dispatches per accept exceeds " \
    f"{MAX_GEN_MEGA_DISPATCHES_PER_ACCEPT}"
EOF

echo "prof_check: [4/5] capstat prof report / merge / diff"
"$build/tools/capstat" prof report --sites 3 \
    "$work"/on-j1/prof/run-*.prof.json > /dev/null
"$build/tools/capstat" prof merge -o "$work/merged.prof.json" \
    "$work"/on-j1/prof/run-*.prof.json
"$build/tools/capstat" prof diff --tolerance 0 \
    "$work/merged.prof.json" "$work/merged.prof.json"

echo "prof_check: [5/5] overhead ceiling, full grid at --jobs $jobs"
# Best of three runs a side, alternating, so one slow run on a busy
# host does not decide the ratio.
off_runs=() on_runs=()
for _ in 1 2 3; do
    off_runs+=("$(run_grid full-off --jobs "$jobs")")
    on_runs+=("$(run_grid full-on --jobs "$jobs" \
        --prof-out "$work/full-on/prof" \
        --prof-folded "$work/full-on/folded")")
done
base_secs=$(printf '%s\n' "${off_runs[@]}" | sort -n | head -1)
prof_secs=$(printf '%s\n' "${on_runs[@]}" | sort -n | head -1)
echo "prof_check: off ${off_runs[*]}s, on ${on_runs[*]}s"
echo "prof_check: best off ${base_secs}s, on ${prof_secs}s" \
     "($(awk "BEGIN { printf \"%.2f\", $prof_secs / $base_secs }")x," \
     "max ${max_overhead}x)"
awk "BEGIN { exit !($prof_secs <= $base_secs * $max_overhead) }" || {
    echo "prof_check: FAIL: profiled grid ${prof_secs}s exceeds" \
         "${max_overhead}x of unprofiled ${base_secs}s"
    exit 1
}
echo "prof_check: PASS"
