#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no simulator build needed).

    python3 perfbench/test_run.py
"""
import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REFERENCE = {"B1.total_cycles": 396699, "B1.macs": 710656,
             "B1.macs_per_cycle": 710656 / 396699}


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        value, pct, beyond = run.tail(list(range(1, 101)))
        self.assertEqual((value, beyond), (90, 10))
        self.assertEqual(pct, 90.0)

    def test_small_sample_falls_to_a_lower_percentile(self):
        value, pct, beyond = run.tail([float(v) for v in range(30, 0, -1)])
        self.assertEqual((value, beyond), (20.0, 10))
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)

    def test_ties_move_the_percentile_down(self):
        # The 11th-largest value ties with the 10th: only 9 samples lie
        # strictly above it, so the next lower distinct value is taken.
        samples = [1.0] * 5 + [2.0] * 5 + [3.0] * 2 + [4.0] * 9
        value, pct, beyond = run.tail(samples)
        self.assertEqual((value, beyond), (2.0, 11))
        self.assertAlmostEqual(pct, 100.0 * 10 / 21)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)
        with self.assertRaises(ValueError):
            run.tail([1.0] * 30)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,100] has children a [10,40] and b [30,60] (overlapping) and
        # c [80,90]; a has a child d [15,25]; e [95,120] runs past root's end.
        spans = [
            ["bench.job", 1, -1, 0, 100],
            ["api.a", 1, 0, 10, 40],
            ["api.b", 1, 0, 30, 60],
            ["cluster.c", 1, 0, 80, 90],
            ["state.d", 1, 1, 15, 25],
            ["sim.e", 1, 0, 95, 120],
        ]
        self.assertEqual(run.self_times(spans), [100 - 50 - 10 - 5, 20, 30, 10, 10, 25])
        layers = run.layer_self_ms(spans)
        self.assertEqual(layers["bench"], 35 / 1e6)
        self.assertEqual(layers["api"], 50 / 1e6)
        self.assertEqual(layers["serve"], 0.0)


def raw_run(mismatched=0, cycles=396699):
    """A synthetic train_b1 driver output."""
    specs = [f"network:batch=1,warm=1,input_seed={i}" for i in range(8)]
    oracle = [{"ok": True, "z_hash": 1000 + i, "cycles": cycles, "macs": 710656,
               "fma_ops": 8204288} for i in range(8)]
    problems = [f"unloaded job {specs[0]} does not match its cold oracle"] * mismatched
    return {"workload": "train_b1", "seed": 1, "specs": specs, "oracle": oracle,
            "tallies": {"warmup": {"attempted": 3, "failed": 0, "mismatched": 0},
                        "unloaded": {"attempted": 12, "failed": 0,
                                     "mismatched": mismatched},
                        "saturated": {"attempted": 5, "failed": 0, "mismatched": 0}},
            "problems": problems, "setup_s": [0.2, 0.3, 0.25],
            "latency_ms": {"unloaded": [100.0 + i for i in range(12)]},
            "saturated_jobs": 5, "saturated_s": 1.5, "peak_rss_kib": 4096,
            "counts": {}, "spans": []}


class GateTest(unittest.TestCase):
    def run_main(self, raw):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "train_b1", "--seed", "1", "--seconds", "1"],
                            driver=lambda args: raw, reference=REFERENCE)
        return code, out.getvalue().strip().splitlines()[-1]

    def test_clean_run_passes(self):
        code, last = self.run_main(raw_run())
        result = run.json.loads(last)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (20, 0))
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)
        self.assertEqual(result["metrics"]["sim_cycles_per_job"]["value"], 396699)

    def test_mismatch_counts_as_an_error(self):
        attempted, errors, problems = run.check(raw_run(mismatched=1), REFERENCE)
        self.assertEqual((attempted, errors), (20, 1))
        self.assertEqual(len(problems), 1)
        code, last = self.run_main(raw_run(mismatched=1))
        result = run.json.loads(last)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)

    def test_cycles_off_the_committed_record_fail(self):
        code, last = self.run_main(raw_run(cycles=396700))
        self.assertNotEqual(code, 0)
        self.assertEqual(run.json.loads(last)["failed"], 20)

    def test_injected_oracle_mismatch_through_the_driver(self):
        # End to end: the driver flips one bit of an oracle hash, so the jobs
        # of that spec mismatch; error_rate must rise and the command fail.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "serve_small", "--seed", "1",
                             "--seconds", "1", "--corrupt-oracle"])
        result = run.json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = run.json.load(f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "train_b1", "--seed", "1", "--seconds", "1"],
                     driver=lambda args: raw_run(), reference=REFERENCE)
        printed = run.json.loads(out.getvalue().strip().splitlines()[-1])["metrics"]
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: v["unit"] for k, v in printed.items()})
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
