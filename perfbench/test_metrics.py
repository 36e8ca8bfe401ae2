"""Self-tests of the benchmark's metric arithmetic (metrics.py).

Run with `python3 perfbench/run.py --self-test`, which also makes a
tiny-length smoke run of every workload, or alone with
`python3 -m unittest discover -s perfbench -p 'test_*.py'`.
"""

import json
import unittest
from pathlib import Path

import metrics


def make_doc(traced=False):
    """A small perfbench document with known answers."""
    passes = [
        {"traced": False, "wall_s": 2.0, "requests": 10, "failed": 0,
         "executed": 9, "beats": 1000, "sim_ms": 4000.0,
         "run_ms": [float(i) for i in range(1, 51)], "req_ms": [5.0] * 8},
        # The slowest pass: left out of every end-to-end metric.
        {"traced": False, "wall_s": 4.0, "requests": 10, "failed": 1,
         "executed": 9, "beats": 1000, "sim_ms": 6000.0,
         "run_ms": [1e3] * 50, "req_ms": [50.0] * 8},
        {"traced": False, "wall_s": 3.0, "requests": 10, "failed": 0,
         "executed": 9, "beats": 1000, "sim_ms": 5000.0,
         "run_ms": [float(i) for i in range(51, 101)],
         "req_ms": [5.0] * 7},
    ]
    doc = {
        "workload": "paper_grid", "jobs": 2, "prof_compiled_in": True,
        "setup_s": [3.0, 1.0, 2.0],
        "peak_rss_kib": 2048,
        "passes": passes,
        "errors": ["one"],
        "exact": {"total_cycles": 7, "dma_beats": 8,
                  "peak_table_entries": 9},
    }
    if traced:
        passes.append({"traced": True, "wall_s": 9.0, "requests": 10,
                       "failed": 0, "executed": 9, "beats": 1000,
                       "sim_ms": 8000.0, "run_ms": [], "req_ms": []})
        doc["layers"] = {
            "runs": 4, "beats": 2000, "checked_beats": 500,
            "prof_wall_ns": 0,
            "domains": {"sim": {"self_ns": 4000, "calls": 10000},
                        "capcheck": {"self_ns": 1500, "calls": 3},
                        "other": {"self_ns": 8e6, "calls": 0}},
            "sites": {"capcheck/stage.accept": {"self_ns": 500,
                                                "calls": 1},
                      "sim/eventq.run": {"self_ns": 100, "calls": 4},
                      "sim/tick.player": {"self_ns": 3000, "calls": 8000},
                      "sim/event.generic": {"self_ns": 900, "calls": 2000},
                      "mem/memctrl.respond": {"self_ns": 9, "calls": 2000},
                      "mem/memctrl.deliver": {"self_ns": 9, "calls": 7}},
            "violations": [],
            "cpu_run_ms": [],
            "tagged_memory_ctor_ms": [30.0, 10.0, 20.0],
            "elaborate_ms": [0.5],
            "harness_cache": {"hits": 3, "requests": 159},
            "capcache": {"hits": 0, "lookups": 0},
            "service": {"queue_p50_us": 0,
                        "execute_p50_us": 0, "stream_p50_us": 0,
                        "busy_us": 0, "workers": 0, "window_us": 0,
                        "wire_bytes": 0, "requests": 0,
                        "coalesced": 0, "rejected": 0},
        }
    return doc


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(metrics.percentile([1, 2, 3], 1.0), 3)
        self.assertEqual(metrics.percentile([], 0.9), 0.0)

    def test_tail_keeps_ten_samples_beyond(self):
        values = list(range(1000))
        value, used, n = metrics.tail_percentile(values, 0.99)
        self.assertEqual((used, n), (0.99, 1000))
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_tail_is_lowered_when_samples_are_few(self):
        values = list(range(100))
        value, used, _ = metrics.tail_percentile(values, 0.99)
        self.assertAlmostEqual(used, 0.9)
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_tail_falls_back_to_the_median(self):
        value, used, n = metrics.tail_percentile([1, 2, 3], 0.9)
        self.assertEqual((value, used, n), (2, 0.5, 3))


class RatioTest(unittest.TestCase):
    def test_ratio_names_its_base(self):
        self.assertEqual(metrics.ratio(3, 4), (0.75, "3 / 4"))

    def test_zero_base_reads_zero(self):
        self.assertEqual(metrics.ratio(5, 0), (0.0, "5 / 0"))


class EndToEndTest(unittest.TestCase):
    def test_values(self):
        m = metrics.end_to_end(make_doc())
        self.assertEqual(set(m), set(metrics.END_TO_END_UNITS))
        self.assertEqual(m["setup_s"][0], 2.0)
        self.assertEqual(m["wall_s"][0], 2.5)
        self.assertEqual(m["sim_cpu_s"][0], 4.5)
        self.assertEqual(m["beats_per_s"][0], 2000 / 9)
        self.assertEqual(m["req_per_s"][0], 4.0)
        self.assertEqual(m["peak_rss_mb"][0], 2.0)
        self.assertEqual(m["run_p50_ms"][0], 50.5)
        self.assertIn("p90 of 100 samples", m["run_p90_ms"][1])
        self.assertIn("p50 of 15 samples", m["req_p99_ms"][1])
        self.assertIn("faster 2 of 3 passes", m["wall_s"][1])

    def test_steady_passes_are_the_faster_half(self):
        walls = [p["wall_s"] for p in
                 metrics.steady_passes(make_doc(traced=True))]
        self.assertEqual(walls, [2.0, 3.0])

    def test_service_mix_uses_every_pass(self):
        doc = make_doc()
        doc["workload"] = "service_mix"
        m = metrics.end_to_end(doc)
        self.assertEqual(m["wall_s"][0], 3.0)
        self.assertIn("all 3 passes", m["wall_s"][1])

    def test_traced_passes_are_left_out(self):
        m = metrics.end_to_end(make_doc(traced=True))
        self.assertEqual(m["wall_s"][0], 2.5)

    def test_every_ratio_prints_its_base(self):
        for name, (_, note) in metrics.end_to_end(make_doc()).items():
            self.assertTrue(note, name)

    def test_failures_count_bad_answers_and_broken_books(self):
        doc = make_doc(traced=True)
        self.assertEqual(metrics.failures(doc), (40, 1))
        doc["layers"]["violations"].append("books do not close")
        self.assertEqual(metrics.failures(doc), (40, 2))


class PerLayerTest(unittest.TestCase):
    def test_values(self):
        m = metrics.per_layer(make_doc(traced=True))
        self.assertEqual(set(m), set(metrics.PER_LAYER_UNITS))
        self.assertEqual(m["sim.ns_per_beat"][0], 2.0)
        # 8000 + 2000 sim dispatches + 2000 memctrl responses; the 4
        # eventq.run scopes and memctrl.deliver are not dispatches.
        self.assertEqual(m["sim.dispatches_per_beat"][0], 6.0)
        self.assertEqual(m["capchecker.ns_per_beat"][0], 2.0)
        self.assertEqual(m["protect.stage_ns_per_beat"][0], 1.0)
        self.assertAlmostEqual(m["harness.unattributed_ms_per_run"][0], 2.0)
        self.assertEqual(m["harness.cache_hit_ratio"][0], 3 / 159)
        self.assertIn("3 / 159", m["harness.cache_hit_ratio"][1])
        self.assertEqual(m["mem.tagged_memory_ctor_ms"][0], 20.0)
        self.assertEqual(m["obs.trace_overhead"][0], 3.6)
        self.assertEqual(m["service.worker_busy_ratio"][0], 0.0)
        self.assertEqual(m["system.total_cycles"][0], 7)

    def test_domain_totals_give_no_dispatch_count(self):
        doc = make_doc(traced=True)
        doc["layers"]["sites"] = {}
        m = metrics.per_layer(doc)
        self.assertEqual(m["sim.dispatches_per_beat"][0], 0.0)
        self.assertIn("0 / 0", m["sim.dispatches_per_beat"][1])

    def test_no_traced_passes_give_no_overhead(self):
        doc = make_doc(traced=True)
        doc["passes"] = [p for p in doc["passes"] if not p["traced"]]
        m = metrics.per_layer(doc)
        self.assertEqual(m["obs.trace_overhead"][0], 0.0)
        self.assertIn("0 / 0", m["obs.trace_overhead"][1])


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
