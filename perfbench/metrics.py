"""Metric arithmetic of the CapCheckerSim benchmark.

perfbench (the C++ workload runner) writes raw samples; the functions
here turn them into the named metrics of BENCHMARK.json. Every metric
is returned with its unit and a note naming its base (sample count,
numerator and denominator), so a printed ratio never hides what it
divides. test_metrics.py checks this arithmetic.
"""

import statistics

# Fewest samples a reported percentile keeps beyond it.
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cpu_s": "s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "beats_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "mem.tagged_memory_ctor_ms": "ms",
    "system.elaborate_ms": "ms",
    "harness.unattributed_ms_per_run": "ms/run",
    "workloads.ms_per_run": "ms/run",
    "cpu.ms_per_run": "ms/run",
    "sim.ns_per_beat": "ns/beat",
    "sim.dispatches_per_beat": "1/beat",
    "accel.replay_ns_per_beat": "ns/beat",
    "mem.xbar_ns_per_beat": "ns/beat",
    "mem.memctrl_ns_per_beat": "ns/beat",
    "capchecker.ns_per_beat": "ns/beat",
    "protect.stage_ns_per_beat": "ns/beat",
    "capchecker.cache_hit_ratio": "ratio",
    "harness.render_ms_per_run": "ms/run",
    "harness.cache_hit_ratio": "ratio",
    "service.queue_wait_ms_p50": "ms",
    "service.execute_ms_p50": "ms",
    "service.stream_ms_p50": "ms",
    "service.worker_busy_ratio": "ratio",
    "service.wire_bytes_per_req": "B/req",
    "service.coalesced": "count",
    "service.rejected": "count",
    "system.total_cycles": "cycles",
    "accel.dma_beats": "beats",
    "capchecker.peak_table_entries": "entries",
    "obs.trace_overhead": "ratio",
}


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) with linear interpolation between
    order statistics; 0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q):
    """The q-quantile, lowered until at least MIN_BEYOND samples lie
    beyond it. Returns (value, quantile used, sample count); with
    fewer than 2 * MIN_BEYOND samples the median is used."""
    n = len(values)
    if n < 2 * MIN_BEYOND:
        used = 0.5
    else:
        used = min(q, 1 - MIN_BEYOND / n)
        used = max(used, 0.5)
    return percentile(values, used), used, n


def ratio(num, den):
    """num / den as (value, base note); 0 when the base is 0."""
    value = num / den if den else 0.0
    return value, f"{num:g} / {den:g}"


def median(values):
    return statistics.median(values) if values else 0.0


def _pct_note(used, n):
    return f"p{used * 100:g} of {n} samples"


# Workloads whose pass-level metrics use every measured pass. Their
# clients contend with each other by design, so a slow pass is part of
# what they measure, not host interference to drop.
EVERY_PASS = {"service_mix"}


def steady_passes(doc, traced=False):
    """The untraced or traced passes a metric is computed from: every
    one on EVERY_PASS workloads, else the faster half (rounded up) by
    wall time. Every pass does the same work, so the slower half holds
    the passes that host interference slowed; dropping them keeps
    run-to-run spread down without touching what a pass measures."""
    chosen = sorted((p for p in doc["passes"] if p["traced"] == traced),
                    key=lambda p: p["wall_s"])
    if doc.get("workload") in EVERY_PASS:
        return chosen
    return chosen[:(len(chosen) + 1) // 2]


def end_to_end(doc):
    """{name: (value, note)} for every END_TO_END_UNITS metric, from
    the steady untraced passes of one perfbench document."""
    passes = steady_passes(doc)
    total = sum(not p["traced"] for p in doc["passes"])
    of = (f"of all {total} passes" if len(passes) == total
          else f"of the faster {len(passes)} of {total} passes")
    walls = [p["wall_s"] for p in passes]
    sims = [p["sim_ms"] / 1e3 for p in passes]
    out = {
        "setup_s": (median(doc["setup_s"]),
                    f"median of {len(doc['setup_s'])} set-ups"),
        "wall_s": (median(walls), f"median {of}"),
        "sim_cpu_s": (median(sims), f"median {of}"),
    }
    for name, key, q in (("run_p50_ms", "run_ms", 0.5),
                         ("run_p90_ms", "run_ms", 0.9),
                         ("req_p50_ms", "req_ms", 0.5),
                         ("req_p99_ms", "req_ms", 0.99)):
        samples = [x for p in passes for x in p[key]]
        value, used, n = tail_percentile(samples, q)
        out[name] = (value, f"{_pct_note(used, n)} {of}")
    beats = sum(p["beats"] for p in passes)
    value, base = ratio(beats, sum(sims))
    out["beats_per_s"] = (value, f"beats / simulation s = {base}")
    value, base = ratio(sum(p["requests"] for p in passes), sum(walls))
    out["req_per_s"] = (value, f"requests / wall s = {base}")
    out["peak_rss_mb"] = (doc["peak_rss_kib"] / 1024,
                          "max resident set of the simulating process")
    return out


def per_layer(doc):
    """{name: (value, note)} for every PER_LAYER_UNITS metric, from the
    layers block of a traced perfbench document. A layer that does not
    run on the workload reads 0 with a zero base."""
    lay = doc["layers"]
    runs, beats = lay["runs"], lay["beats"]
    checked = lay["checked_beats"]

    def dom(name):
        return lay["domains"].get(name, {}).get("self_ns", 0)

    def site(name):
        return lay["sites"].get(name, {}).get("self_ns", 0)

    def per(num, den, scale, what):
        value, base = ratio(num * scale, den)
        return value, f"{what}: {base}"

    stage = site("capcheck/stage.accept")
    # Event dispatches: every sim site but the eventq.run scope, plus
    # the memory controller's response events, which capprof books to
    # the mem domain. Needs per-site books, so in-process runs only.
    sites = lay["sites"]
    dispatches = sum(c["calls"] for n, c in sites.items()
                     if n.startswith("sim/") and n != "sim/eventq.run")
    dispatches += sites.get("mem/memctrl.respond", {}).get("calls", 0)
    dispatch_beats = beats if sites else 0
    svc = lay["service"]
    cache = lay["harness_cache"]
    capcache = lay["capcache"]
    traced = [p["wall_s"] for p in steady_passes(doc, True)]
    # Without traced passes (the daemon profiles every request) there
    # is no overhead to compare: 0 over a zero base.
    untraced = ([p["wall_s"] for p in steady_passes(doc)]
                if traced else [])
    cpu = lay["cpu_run_ms"]
    out = {
        "mem.tagged_memory_ctor_ms": (
            median(lay["tagged_memory_ctor_ms"]),
            f"median of {len(lay['tagged_memory_ctor_ms'])} constructions"),
        "system.elaborate_ms": (
            median(lay["elaborate_ms"]),
            f"median of {len(lay['elaborate_ms'])} samples, "
            "mean over 3 accelerator modes"),
        "harness.unattributed_ms_per_run": per(
            dom("other"), runs, 1e-6, "capprof other ms / runs"),
        "workloads.ms_per_run": per(
            dom("workload"), runs, 1e-6, "capprof workload ms / runs"),
        "cpu.ms_per_run": per(
            sum(cpu), len(cpu), 1, "CPU-only run ms / CPU-only runs"),
        "sim.ns_per_beat": per(dom("sim"), beats, 1,
                               "capprof sim ns / beats"),
        "sim.dispatches_per_beat": per(
            dispatches, dispatch_beats, 1,
            "event dispatches (sim sites but eventq.run, "
            "+ mem/memctrl.respond) / beats"),
        "accel.replay_ns_per_beat": per(dom("replay"), beats, 1,
                                        "capprof replay ns / beats"),
        "mem.xbar_ns_per_beat": per(dom("xbar"), beats, 1,
                                    "capprof xbar ns / beats"),
        "mem.memctrl_ns_per_beat": per(dom("mem"), beats, 1,
                                       "capprof mem ns / beats"),
        "capchecker.ns_per_beat": per(
            dom("capcheck") - stage, checked, 1,
            "capprof capcheck ns without stage.accept / checked beats"),
        "protect.stage_ns_per_beat": per(
            stage, checked, 1, "capprof stage.accept ns / checked beats"),
        "capchecker.cache_hit_ratio": per(
            capcache["hits"], capcache["lookups"], 1,
            "capability-cache hits / lookups"),
        "harness.render_ms_per_run": per(
            dom("harness"), runs, 1e-6, "capprof harness ms / runs"),
        "harness.cache_hit_ratio": per(
            cache["hits"], cache["requests"], 1,
            "requests served by a cache or deduplication / requests"),
        "service.queue_wait_ms_p50": (svc["queue_p50_us"] / 1e3,
                                      "daemon span.queue p50"),
        "service.execute_ms_p50": (svc["execute_p50_us"] / 1e3,
                                   "daemon span.execute p50"),
        "service.stream_ms_p50": (svc["stream_p50_us"] / 1e3,
                                  "daemon span.stream p50"),
        "service.worker_busy_ratio": per(
            svc["busy_us"], svc["workers"] * svc["window_us"], 1,
            "worker busy us / (workers x window us)"),
        "service.wire_bytes_per_req": per(
            svc["wire_bytes"], svc["requests"], 1,
            "wire bytes / requests"),
        "service.coalesced": (svc["coalesced"], "requests coalesced"),
        "service.rejected": (svc["rejected"], "requests rejected"),
        "system.total_cycles": (doc["exact"]["total_cycles"],
                                "exact sum over the fixed request set"),
        "accel.dma_beats": (doc["exact"]["dma_beats"],
                            "exact sum over the fixed request set"),
        "capchecker.peak_table_entries": (
            doc["exact"]["peak_table_entries"],
            "exact sum over the fixed request set"),
        "obs.trace_overhead": per(
            median(traced), median(untraced), 1,
            "traced / untraced median pass wall s"),
    }
    return out


def failures(doc):
    """(attempted, failed): requests of every measured pass; a request
    fails when it errs, is incorrect or disagrees with an earlier
    answer, and every broken profiler book counts as one more."""
    attempted = sum(p["requests"] for p in doc["passes"])
    failed = sum(p["failed"] for p in doc["passes"])
    failed += len(doc.get("layers", {}).get("violations", []))
    return attempted, failed
