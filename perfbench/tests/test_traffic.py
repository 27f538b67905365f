"""Tests of the benchmark's own logic; no server needed.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import traffic as tr  # noqa: E402

EXPOSITION = """\
# HELP serve_batches counter
# TYPE serve_batches counter
serve_batches 10
serve_feature_cache_hits 90
serve_feature_cache_misses 10
serve_stage_parse_seconds_bucket{le="1e-05"} 3
serve_stage_parse_seconds_bucket{le="+Inf"} 4
serve_stage_parse_seconds_sum 4.0000000000000003e-05
serve_stage_parse_seconds_count 4
serve_batch_size_sum 40
serve_batch_size_count 10
process_threads 9
"""


class Percentiles(unittest.TestCase):
    def test_linear_interpolation_between_ranks(self):
        self.assertEqual(tr.percentile([3, 1, 2], 50), 2)
        self.assertEqual(tr.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(tr.percentile(list(range(101)), 99), 99.0)
        self.assertEqual(tr.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            tr.percentile([], 50)

    def test_latency_is_timed_from_due_time(self):
        # The second request was due at 1.0 but a stall held it until 1.8;
        # its latency includes the stall, not just the 0.1 s on the wire.
        dues = [0.0, 1.0, 2.0]
        answers = [0.5, 1.9, None]
        lat = tr.open_loop_latencies(dues, answers)
        self.assertEqual(len(lat), 2)
        self.assertAlmostEqual(lat[0], 0.5)
        self.assertAlmostEqual(lat[1], 0.9)


class Prometheus(unittest.TestCase):
    def test_parse_keeps_labels_and_skips_comments(self):
        s = tr.parse_prometheus(EXPOSITION)
        self.assertEqual(s["serve_batches"], 10)
        self.assertEqual(s['serve_stage_parse_seconds_bucket{le="+Inf"}'], 4)
        self.assertNotIn("# TYPE serve_batches counter", s)
        self.assertEqual(len(s), 10)

    def test_window_delta_counts_series_created_in_the_window(self):
        before = tr.parse_prometheus(EXPOSITION)
        after = dict(before, serve_batches=25.0, serve_wire_errors=2.0)
        after["serve_stage_parse_seconds_sum"] += 6e-05
        after["serve_stage_parse_seconds_count"] += 2
        d = tr.window_delta(before, after)
        self.assertEqual(d["serve_batches"], 15)
        self.assertEqual(d["serve_wire_errors"], 2)
        self.assertEqual(d["serve_feature_cache_hits"], 0)
        self.assertAlmostEqual(tr.stage_us(d, "parse"), 30.0)
        self.assertEqual(tr.stage_us(d, "spmm"), 0.0)

    def test_predict_layers_of_a_window(self):
        before = tr.parse_prometheus(EXPOSITION)
        after = dict(before)
        for stage, us in (("parse", 4), ("queue", 10), ("dense", 50)):
            after[f"serve_stage_{stage}_seconds_sum"] = (
                before.get(f"serve_stage_{stage}_seconds_sum", 0) + 2 * us * 1e-6)
            after[f"serve_stage_{stage}_seconds_count"] = (
                before.get(f"serve_stage_{stage}_seconds_count", 0) + 2)
        after["serve_feature_cache_hits"] += 3
        after["serve_feature_cache_misses"] += 1
        after["serve_batch_size_sum"] += 2
        after["serve_batch_size_count"] += 1
        proc = {"cpu_s": 0.5, "wall_s": 2.0, "ops": 1000, "threads": 9.0}
        gen = {"cpu_s": 0.2, "wall_s": 2.0}
        m = tr.predict_layers("open", tr.window_delta(before, after), 100.0,
                              proc, gen)
        self.assertAlmostEqual(m["serve.parse_us.open"], 4.0)
        self.assertAlmostEqual(m["engine.queue_us.open"], 10.0)
        self.assertAlmostEqual(m["nn.dense_us.open"], 50.0)
        self.assertAlmostEqual(m["serve.outside_us.open"], 100.0 - 64.0)
        self.assertAlmostEqual(m["features.hit_ratio.open"], 0.75)
        self.assertAlmostEqual(m["engine.batch_size_mean.open"], 2.0)
        self.assertAlmostEqual(m["process.cpu_cores.open"], 0.25)
        self.assertAlmostEqual(m["process.cpu_us_per_op.open"], 500.0)
        self.assertAlmostEqual(m["gen.cpu_cores.open"], 0.1)
        self.assertEqual(m["engine.rejected.open"], 0.0)

    def test_search_layers_split_request_time(self):
        d = {"search_request_seconds_sum": 3.0,
             "search_request_seconds_count": 2,
             "search_queue_wait_seconds_sum": 0.5,
             "search_queue_wait_seconds_count": 2,
             "search_step_seconds_sum": 0.5, "search_step_seconds_count": 50,
             "search_oracle_calls": 400, "search_oracle_batches": 50,
             "search_accepted": 25, "search_steps": 50,
             "sat_attack_attacks": 4, "sat_attack_iterations": 100,
             "sat_attack_caps_hit": 1,
             "sat_attack_dip_solve_seconds_sum": 1.0,
             "sat_attack_dip_solve_seconds_count": 104,
             "sat_attack_propagations": 2e6}
        m = tr.search_layers(d, searches=2)
        self.assertAlmostEqual(m["search.verify_ms"], 1000.0)
        self.assertAlmostEqual(m["search.step_ms"], 10.0)
        self.assertAlmostEqual(m["search.calls_per_batch"], 8.0)
        self.assertAlmostEqual(m["search.accept_ratio"], 0.5)
        self.assertAlmostEqual(m["attack.dips"], 25.0)
        self.assertAlmostEqual(m["attack.cap_ratio"], 0.25)
        self.assertAlmostEqual(m["sat.solves"], 52.0)
        self.assertAlmostEqual(m["sat.props_per_s"], 2e6)
        self.assertEqual(m["sat.conflicts"], 0.0)


class Declared(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics a run prints."""

    def setUp(self):
        self.gated, self.layer_units = run.declared_units()

    def test_traced_run_emits_every_declared_per_layer_metric(self):
        proc = {"cpu_s": 0.0, "wall_s": 1.0, "ops": 0, "threads": 0.0}
        gen = {"cpu_s": 0.0, "wall_s": 1.0}
        layers = tr.all_layers({p: ({}, 0.0, proc, gen) for p in tr.PHASES},
                               0, 0.0, 1, [[0]])
        self.assertEqual(set(layers), set(self.layer_units))

    def test_untraced_run_emits_every_declared_end_to_end_metric(self):
        bench = run.Bench.__new__(run.Bench)  # summary only, no server
        bench.spec, bench.conns = run.WORKLOADS["predict-small"], 4
        bench.slice_s = {p: 1.0 for p in tr.PHASES}
        bench.setups = {"cpu_s": [0.003, 0.004], "wall_s": [0.005, 0.006]}
        bench.phases = {p: run.Phase() for p in tr.PHASES}
        for p in tr.PHASES:
            bench.phases[p].steal = [0.1]
            bench.phases[p].proc.update(cpu_s=1.0, ops=100)
        bench.phases["open"].slices = [(0.001, 0.002)]
        bench.phases["closed"].slices = [1000.0]
        bench.phases["search"].slices = [0.5]
        bench.search_cpu, bench.rss_mb = [0.4], 10.0
        e2e = bench.end_to_end()
        self.assertEqual(set(e2e), set(self.gated) | set(run.REPORTED_UNITS))
        self.assertFalse(set(self.gated) & set(run.REPORTED_UNITS))
        self.assertAlmostEqual(e2e["setup_s"][0], 0.0035)
        self.assertAlmostEqual(e2e["setup_wall_s"][0], 0.0055)
        self.assertAlmostEqual(e2e["predict_cpu_us"][0], 1e4)
        metrics = run.declared({k: v for k, (v, _) in e2e.items()},
                               self.gated)
        self.assertEqual(set(metrics), set(self.gated))
        with self.assertRaises(run.BenchError):
            run.declared({}, self.gated)

    def test_every_declared_workload_runs(self):
        # predict-small runs too, but is not gated (README.md says why).
        doc = json.loads((run.HERE.parent / "BENCHMARK.json")
                         .read_text())
        self.assertEqual({w["name"] for w in doc["workloads"]},
                         set(run.WORKLOADS) - {"predict-small"})


class Overhead(unittest.TestCase):
    """A traced run is compared only with the untraced run of the same
    workload, seed, length and code."""

    def test_only_the_matching_untraced_run_counts(self):
        traced = {"fingerprint": "abc", "seconds": 30.0,
                  "e2e": {"setup_s": 0.012, "predict_cpu_us": 130.0}}
        with tempfile.TemporaryDirectory() as tmp:
            untraced = Path(tmp)
            self.assertIsNone(run.tracing_overhead(untraced, traced))
            base = dict(traced, e2e={"setup_s": 0.010,
                                     "predict_cpu_us": 100.0})
            (untraced / "result.json").write_text(json.dumps(base))
            d = run.tracing_overhead(untraced, traced)
            self.assertAlmostEqual(d["setup_s"], 0.002)
            self.assertAlmostEqual(d["predict_cpu_us"], 30.0)
            for other in ({"fingerprint": "old"}, {"seconds": 10.0}):
                (untraced / "result.json").write_text(
                    json.dumps(dict(base, **other)))
                self.assertIsNone(run.tracing_overhead(untraced, traced))


class Failures(unittest.TestCase):
    def test_every_kind_of_failure_counts_once(self):
        t = tr.Tally()
        self.assertTrue(t.answer({"ok": True, "seconds": 0.1}))
        self.assertFalse(t.answer({"ok": False, "status": "rejected"}))
        self.assertFalse(t.answer({"ok": False, "status": "deadline"}))
        self.assertFalse(t.answer({"ok": False}))
        t.ok(5)
        t.unanswered(2)
        t.wire_errors = 1
        t.mismatch("replay differs")
        self.assertEqual(t.attempted, 11)
        self.assertEqual(t.non_ok, {"rejected": 1, "deadline": 1, "error": 1})
        self.assertEqual(t.failed, 3 + 2 + 1 + 1)
        self.assertAlmostEqual(t.fail_ratio, 7 / 11)

    def test_clean_run_has_zero_ratio(self):
        t = tr.Tally()
        self.assertEqual(t.fail_ratio, 0.0)
        t.ok(10)
        self.assertEqual((t.failed, t.fail_ratio), (0, 0.0))


class SeededTraffic(unittest.TestCase):
    def test_selections_are_deterministic_distinct_and_in_range(self):
        a = tr.make_selections(tr.rng_for(7, "pool"), 200, 32, 160, 1, 6)
        b = tr.make_selections(tr.rng_for(7, "pool"), 200, 32, 160, 1, 6)
        c = tr.make_selections(tr.rng_for(8, "pool"), 200, 32, 160, 1, 6)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for s in a:
            self.assertTrue(1 <= len(s) <= 6)
            self.assertEqual(len(set(s)), len(s))
            self.assertEqual(s, sorted(s))
            self.assertTrue(all(32 <= g < 160 for g in s))

    def test_streams_are_independent(self):
        pool = tr.make_selections(tr.rng_for(7, "pool"), 10, 0, 100, 1, 6)
        other = tr.make_selections(tr.rng_for(7, "open"), 10, 0, 100, 1, 6)
        self.assertNotEqual(pool, other)

    def test_arrival_schedule_is_deterministic_poisson(self):
        a = tr.poisson_schedule(tr.rng_for(3, "arrivals"), 2000, 5.0)
        b = tr.poisson_schedule(tr.rng_for(3, "arrivals"), 2000, 5.0)
        c = tr.poisson_schedule(tr.rng_for(4, "arrivals"), 2000, 5.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(a, sorted(a))
        self.assertTrue(0 < a[0] and a[-1] < 5.0)
        self.assertAlmostEqual(len(a) / 10000, 1.0, delta=0.05)

    def test_search_seeds_are_deterministic(self):
        self.assertEqual(tr.search_seeds(tr.rng_for(1, "search"), 5),
                         tr.search_seeds(tr.rng_for(1, "search"), 5))

    def test_request_lines_are_single_json_lines(self):
        line = tr.predict_line("o7", b"[3,9]")
        self.assertTrue(line.endswith(b"\n") and line.count(b"\n") == 1)
        self.assertEqual(json.loads(line),
                         {"op": "predict", "request_id": "o7", "select": [3, 9]})
        self.assertEqual(json.loads(tr.search_line("s1", 42)),
                         {"op": "search", "request_id": "s1",
                          "search": {"seed": 42}})

    def test_circuit_gates_counts_inputs_then_gates(self):
        bench = "# c\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOT(x)\n"
        self.assertEqual(tr.circuit_gates(bench), (2, 4))

    def test_input_descriptors(self):
        d = tr.input_descriptors(100, [[1], [1, 2, 3], list(range(10))])
        self.assertEqual(d["input.circuit_gates"], 100.0)
        self.assertAlmostEqual(d["input.selection_gates_mean"], 14 / 3)
        self.assertAlmostEqual(d["input.small_selection_share"], 2 / 3)


if __name__ == "__main__":
    unittest.main()
