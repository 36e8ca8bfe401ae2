#!/usr/bin/env bash
# Gate the capcheckd service mode: the quick experiment grid run
# through a live daemon must produce artefacts byte-identical to an
# in-process run (capstat diff --tolerance 0 over merged latency
# summaries, plus a literal byte compare of every run-<hash>.json and
# of every artefact the daemon writes: traces, samples, audit logs,
# flight tables and latency summaries), a sink the daemon does not
# write (--prof-out) must be refused with --server, and a daemon
# restarted on the same --cache-dir must serve the whole batch from
# the disk cache without executing a single simulation.
#
# The daemon runs with its telemetry on, and the gate also covers it:
#  - `capstat live --once` must render a non-empty dashboard and write
#    a service-latency document that self-diffs green at tolerance 0;
#  - the Prometheus exposition must satisfy the counter conservation
#    identities (received = admitted + rejected; admitted = executed +
#    cacheHitsMem + cacheHitsDisk + coalesced + failed), and carry the
#    task-memo counters, with at least one task preparation reused;
#  - every "complete" event in the JSONL log must have span segments
#    summing exactly to its end-to-end time.
# Set SERVICE_ARTIFACTS=DIR to keep the telemetry files for upload.
#
# Usage: scripts/service_check.sh [--build-dir DIR] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build
JOBS=${JOBS:-2}
while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) BUILD=$2; shift 2 ;;
        --build-dir=*) BUILD=${1#--build-dir=}; shift ;;
        --jobs) JOBS=$2; shift 2 ;;
        --jobs=*) JOBS=${1#--jobs=}; shift ;;
        *) echo "service_check.sh: unknown option '$1'" >&2; exit 2 ;;
    esac
done

for tool in bench/sweep_grid tools/capstat tools/capcheckd; do
    if [ ! -x "$BUILD/$tool" ]; then
        cmake -B "$BUILD" -G Ninja
        cmake --build "$BUILD" --target sweep_grid capstat capcheckd
        break
    fi
done

WORK=$(mktemp -d)
SOCK="$WORK/capcheck.sock"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null || true
    if [ -n "${SERVICE_ARTIFACTS:-}" ]; then
        mkdir -p "$SERVICE_ARTIFACTS"
        cp -f "$WORK"/metrics-*.prom "$WORK"/events-*.jsonl \
            "$WORK/live.out" "$WORK/service.latency.json" \
            "$SERVICE_ARTIFACTS"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# start_daemon TAG: telemetry artefacts are per-phase (metrics-TAG.prom
# / events-TAG.jsonl) so the restart phase does not clobber the first
# daemon's exposition before the conservation check reads it.
start_daemon() {
    local tag=$1
    "$BUILD/tools/capcheckd" --socket "$SOCK" --jobs "$JOBS" \
        --cache-dir "$WORK/cache" --quiet \
        --metrics-out "$WORK/metrics-$tag.prom" \
        --metrics-interval 200 \
        --log-json "$WORK/events-$tag.jsonl" \
        > "$WORK/daemon.out" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$SOCK" ] && return 0
        sleep 0.1
    done
    echo "service_check: daemon never became ready" >&2
    cat "$WORK/daemon.out" >&2
    exit 1
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID"
    DAEMON_PID=""
}

# sink_flags SIDE: every artefact flag the daemon honours, writing
# into SIDE-* directories (samples land beside the traces).
sink_flags() {
    SINK_FLAGS=(--trace-out "$WORK/$1-trace" --audit-log "$WORK/$1-audit"
        --flight-out "$WORK/$1-flight" --latency-json "$WORK/$1-lat"
        --sample-interval 1000)
}

echo "== in-process baseline =="
sink_flags local
"$BUILD/bench/sweep_grid" --quick --quiet --jobs "$JOBS" \
    --json-dir "$WORK/local" "${SINK_FLAGS[@]}" > /dev/null
"$BUILD/tools/capstat" merge -o "$WORK/local.json" \
    "$WORK/local-lat"/*.latency.json > /dev/null

echo "== same grid through capcheckd =="
start_daemon grid
sink_flags remote
"$BUILD/bench/sweep_grid" --quick --quiet --jobs "$JOBS" \
    --json-dir "$WORK/remote" "${SINK_FLAGS[@]}" \
    --server "$SOCK" --trace-id service-check > /dev/null

echo "== --prof-out with --server is refused =="
status=0
"$BUILD/bench/sweep_grid" --quick --quiet --server "$SOCK" \
    --prof-out "$WORK/prof" > /dev/null 2> "$WORK/prof.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q -- "--prof-out" "$WORK/prof.err" ||
    [ -e "$WORK/prof" ]; then
    echo "service_check: --prof-out with --server exited $status" \
        "(want 2, naming the flag, writing nothing):" >&2
    cat "$WORK/prof.err" >&2
    exit 1
fi

echo "== capstat live dashboard + service latency document =="
"$BUILD/tools/capstat" live "$SOCK" --once \
    --latency-out "$WORK/service.latency.json" > "$WORK/live.out"
grep -q "requests: received=" "$WORK/live.out" || {
    echo "service_check: capstat live rendered no dashboard:" >&2
    cat "$WORK/live.out" >&2
    exit 1
}
"$BUILD/tools/capstat" diff --tolerance 0 \
    "$WORK/service.latency.json" "$WORK/service.latency.json" \
    > /dev/null
stop_daemon

echo "== telemetry conservation + span-sum identities =="
python3 - "$WORK/metrics-grid.prom" "$WORK/events-grid.jsonl" <<'EOF'
import json, sys

counters = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            counters[parts[0]] = float(parts[1])

def c(name):
    return counters.get("capcheck_" + name, 0)

received = c("requests_received")
admitted = c("requests_admitted")
rejected = c("requests_rejected")
outcomes = (c("requests_executed") + c("requests_cacheHitsMem") +
            c("requests_cacheHitsDisk") + c("requests_coalesced") +
            c("requests_failed"))
assert received == admitted + rejected, (received, admitted, rejected)
assert admitted == outcomes, (admitted, outcomes)
assert admitted > 0, "daemon admitted nothing"
assert c("span_endToEnd_count") == admitted
for name in ("tasks_prepared", "tasks_reused"):
    assert "capcheck_" + name in counters, "no counter " + name
assert c("tasks_reused") > 0, "the daemon reused no task preparation"

completes = 0
with open(sys.argv[2]) as f:
    for line in f:
        ev = json.loads(line)
        if ev.get("event") != "complete":
            continue
        completes += 1
        parts = (ev["admitNanos"] + ev["queueNanos"] +
                 ev["executeNanos"] + ev["renderNanos"] +
                 ev["streamNanos"])
        assert parts == ev["endToEndNanos"], ev
        assert ev["traceId"].startswith("service-check#"), ev
assert completes == admitted, (completes, admitted)
print(f"conservation OK: {int(admitted)} requests, "
      f"{completes} spans sum exactly, tasks="
      f"{int(c('tasks_prepared'))} prepared/"
      f"{int(c('tasks_reused'))} reused")
EOF

echo "== byte compare of run JSON and every daemon-written artefact =="
diff -r "$WORK/local" "$WORK/remote" --exclude='*.manifest.json'
for sink in trace audit flight lat; do
    diff -r "$WORK/local-$sink" "$WORK/remote-$sink"
done

echo "== capstat diff --tolerance 0 =="
"$BUILD/tools/capstat" merge -o "$WORK/remote.json" \
    "$WORK/remote-lat"/*.latency.json > /dev/null
"$BUILD/tools/capstat" diff --tolerance 0 \
    "$WORK/local.json" "$WORK/remote.json"

echo "== restart: batch must come entirely from the disk cache =="
start_daemon restart
"$BUILD/bench/sweep_grid" --quick --quiet --jobs "$JOBS" \
    --json-dir "$WORK/restart" --server "$SOCK" > /dev/null
stop_daemon
if ! grep -q "executed=0" "$WORK/daemon.out"; then
    echo "service_check: restarted daemon re-executed simulations:" >&2
    cat "$WORK/daemon.out" >&2
    exit 1
fi
diff -r "$WORK/remote" "$WORK/restart" --exclude='*.manifest.json'

echo "service_check: PASS"
