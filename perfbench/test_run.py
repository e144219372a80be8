#!/usr/bin/env python3
"""Self-tests of the benchmark's own bookkeeping.

    python3 perfbench/test_run.py

The pure checks run instantly; the two that need perfbench_e2e build it
first, the same way run.py does (under $CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_result(makespan=10.0, tasks=4, error=""):
    method = {"ok": not error, "error": error, "makespan": makespan, "local_fraction": 0.5,
              "planned_local_fraction": 0.5, "peak_over_mean": 1.0, "io_mean": 1.0,
              "served_digest": "1", "tasks_executed": 0 if error else tasks}
    return {"run_s": 1.0, "setup_s": [0.1], "peak_rss_mb": 10.0, "sinks_ok": True,
            "sinks": {}, "methods": {"baseline": dict(method), "opass": dict(method)}}


class MetricNames(unittest.TestCase):
    def all_names(self):
        return ([n for n, _, _ in run.END_TO_END] + [n for n, _, _, _ in run.PER_LAYER]
                + list(run.WORKLOADS))

    def test_names_use_only_allowed_characters(self):
        for name in self.all_names():
            self.assertRegex(name, run.NAME_RE, name)
        self.assertIsNone(run.NAME_RE.match("bad name"))
        self.assertIsNone(run.NAME_RE.match("_leading"))
        self.assertIsNone(run.NAME_RE.match("x" * 65))

    def test_names_are_unique(self):
        names = self.all_names()
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(n, u, b) for n, u, b, _ in run.PER_LAYER])
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))


class Median(unittest.TestCase):
    def test_odd_even_and_single(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(run.median([7.0]), 7.0)
        self.assertEqual(run.median(x for x in (1.0, 9.0, 5.0)), 5.0)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            run.median([])

    def test_end_to_end_takes_deterministic_metrics_per_input(self):
        runs = []
        for k, frac in ((0, 0.1), (0, 0.1), (0, 0.1), (1, 0.2), (2, 0.3)):
            r = fake_result()
            r["methods"]["opass"]["local_fraction"] = frac
            runs.append((k, r))
        # Median over the three inputs, not over the five runs.
        self.assertEqual(run.end_to_end(runs)["opass_local_frac"], 0.2)


class Tally(unittest.TestCase):
    def test_two_scenario_runs_per_child(self):
        t = run.Tally()
        t.record(fake_result(), 4)
        self.assertEqual((t.attempted, t.failed), (2, 0))

    def test_missing_result_fails_both_methods(self):
        t = run.Tally()
        t.record(None, 4)
        self.assertEqual((t.attempted, t.failed, t.fail_frac), (2, 2, 1.0))

    def test_output_differing_from_reference_fails(self):
        t = run.Tally()
        ref = fake_result()
        changed = fake_result()
        changed["methods"]["opass"]["makespan"] = 10.000000000000002
        t.record(changed, 4, reference=ref["methods"])
        self.assertEqual((t.attempted, t.failed), (2, 1))

    def test_spans_exceeding_the_traced_wall_fail(self):
        t = run.Tally()
        traced = fake_result()
        traced.update(wall_s=1.0, spans={"opass.plan": 0.7, "runtime.execute": 0.4})
        t.record(traced, 4)
        self.assertEqual(t.failed, 2)

    def test_failed_audit_fails_both_methods(self):
        t = run.Tally()
        bad = fake_result()
        bad["failed_checks"] = ["audit_plan: duplicate task"]
        t.record(bad, 4)
        self.assertEqual(t.failed, 2)


class WithBinary(unittest.TestCase):
    """Checks that run perfbench_e2e itself."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_fail_frac_counts_a_scenario_that_throws(self):
        # replication 3 on a 2-node cluster: both methods throw in layout.
        result = run.run_child([self.binary, "run", "--scenario=multi", "--nodes=2",
                                "--tasks=4", "--replication=3"], timeout=60)
        t = run.Tally()
        t.record(result, 4)
        self.assertEqual((t.attempted, t.failed), (2, 2))
        self.assertTrue(all(m["error"] for m in result["methods"].values()))

    def test_peak_rss_is_taken_per_workload_run(self):
        big = run.run_child([self.binary, "run", "--scenario=multi", "--nodes=512",
                             "--tasks=20480"], timeout=120)
        small = run.run_child([self.binary, "run", "--scenario=multi", "--nodes=16",
                               "--tasks=32"], timeout=60)
        self.assertGreater(big["peak_rss_mb"], 60)
        # A run after a large one reports its own peak, not the earlier one.
        self.assertLess(small["peak_rss_mb"], big["peak_rss_mb"] / 4)


if __name__ == "__main__":
    unittest.main()
