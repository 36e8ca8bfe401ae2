#!/usr/bin/env python3
"""CapCheckerSim benchmark: one command per workload run.

Builds the simulator library, the capcheckd daemon and the perfbench
workload runner from this checkout (an incremental CMake build under
.bench_build/), runs one workload, checks its outputs, prints every
metric by name with its unit and base, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (README.md lists both and what each should move).

Usage, from the repository root:
    python3 perfbench/run.py --workload paper_grid|service_mix
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test   # metric arithmetic + smoke run
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("paper_grid", "service_mix")
BUILD_TYPE = "RelWithDebInfo"
SETUPS = 3
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no simulator sources under {ROOT}/src")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            log("perfbench: cmake configure failed")
            sys.exit(1)
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources
    the benchmark builds."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools/capcheckd", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def stop_group(proc):
    """Kill whatever is left in the runner's process group (a daemon
    survives the runner only if the runner died) and wait until the
    group is empty."""
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.returncode is None:
            proc.wait()
        time.sleep(0.05)


def run_workload(out, args, setups):
    """Run the C++ runner as a process-group leader (so a timeout can
    stop it and any daemon it spawned) and return its document."""
    work = out.parent / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc_path = work / "samples.json"
    cmd = [str(out / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setups", str(setups),
           "--work-dir", os.path.relpath(work / "run", ROOT),
           "--out", str(doc_path),
           "--capcheckd", str(out / "capcheckd")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "timeout"
    stop_group(proc)
    try:
        if code != 0:
            log(f"perfbench: workload runner failed ({code})")
            sys.exit(1)
        with open(doc_path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, doc):
    attempted, failed = metrics.failures(doc)
    if args.trace:
        values, units = metrics.per_layer(doc), metrics.PER_LAYER_UNITS
    else:
        values, units = metrics.end_to_end(doc), metrics.END_TO_END_UNITS
    print(f"perfbench provenance: host={platform.node()} "
          f"nproc={os.cpu_count()} jobs={doc['jobs']} "
          f"build={BUILD_TYPE} capprof="
          f"{'on' if doc['prof_compiled_in'] else 'off'} "
          f"commit={source_id()} seed={args.seed} "
          f"command={shlex.join([sys.executable] + sys.argv)}")
    print(f"perfbench {args.workload}: fail_ratio = "
          f"{failed / attempted if attempted else 0:g} "
          f"(base: {failed} failed / {attempted} attempted)")
    for err in doc["errors"] + doc.get("layers", {}).get("violations", []):
        print(f"perfbench {args.workload}: FAILURE {err}")
    for name, unit in units.items():
        value, note = values[name]
        print(f"perfbench {args.workload}: {name} = {value:.6g} {unit} "
              f"(base: {note})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


def self_test():
    """Metric arithmetic tests, then a tiny-length smoke run of every
    workload and mode that must print every metric with its unit."""
    suite = unittest.defaultTestLoader.discover(str(HERE), "test_*.py")
    if not unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful():
        return 1
    out = build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0,
                                      seconds=0, trace=trace)
            doc = run_workload(out, args, setups=1)
            report(args, doc)
            names = (metrics.per_layer(doc) if trace
                     else metrics.end_to_end(doc))
            units = (metrics.PER_LAYER_UNITS if trace
                     else metrics.END_TO_END_UNITS)
            if set(names) != set(units):
                log(f"perfbench: {workload} trace={trace} metric names "
                    "do not match their units")
                return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    out = build()
    doc = run_workload(out, args, SETUPS)
    report(args, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
