"""Self-tests of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

The last test makes two traced runs of every workload (about two
minutes on two cores).  The file is not named test_*.py, so the
repository's pytest run does not collect it.
"""
import contextlib
import io
import json
import unittest

import run
import traced
import workloads

# Per-layer metrics the traced run must see nonzero on each workload.
ASSIGNED = {
    "jones-color": ("laurent.mul.", "laurent.exact_divide.",
                    "jones.assemble_sum.", "jones.sigma_basis."),
    "rec-grid": ("qseries.is_zero_sum.", "laurent.eval_fraction.",
                 "qrec."),
    "aj-family": ("laurent.mul.", "laurent.exact_divide.", "apoly."),
    "volume-scan": ("volnum.", "mpmath.polyroots.",
                    "laurent.eval_complex."),
}
EVERYWHERE = ("cli.main.", "trace.")


class Requests(unittest.TestCase):
    def test_same_seed_same_list(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.requests(name, 7),
                             workloads.requests(name, 7))
            self.assertNotEqual(workloads.requests(name, 7),
                                workloads.requests(name, 8))

    def test_list_length_and_reference_coverage(self):
        reference = workloads.load_reference()
        for name in workloads.WORKLOADS:
            self.assertEqual(len(workloads.requests(name, 1)),
                             workloads.LIST_LENGTH)
            for key in workloads.key_space(name):
                self.assertIn(key, reference)

    def test_trace_subset_has_one_per_stratum(self):
        for name, strata in workloads.WORKLOADS.items():
            subset = workloads.trace_subset(name,
                                            workloads.requests(name, 3))
            self.assertEqual(len(subset), len(strata))


class Gate(unittest.TestCase):
    def setUp(self):
        self.reference = workloads.load_reference()

    def entry(self, key):
        return self.reference[key]["certified"]

    def test_rejects_exit_code_and_unknown_request(self):
        argv = "volume --p 2".split()
        self.assertEqual(workloads.check(self.reference, argv, 3, ""),
                         (False, False))
        self.assertEqual(workloads.check(self.reference, ["volume", "--p",
                                                          "9"], 0, ""),
                         (False, False))

    def test_zero_points_is_a_failure(self):
        argv = "rec-check --fixture fivetwo_kfree --n-min 9 --n-max 9".split()
        got = dict(self.entry(" ".join(argv)), points=0)
        self.assertFalse(workloads.matches(argv, got, got))

    def test_volume_tolerance(self):
        argv = "volume --p 2".split()
        want = self.entry("volume --p 2")
        value = want["volume"]
        last = value[:-1] + str((int(value[-1]) + 1) % 10)
        self.assertTrue(workloads.matches(argv, {"volume": last}, want))
        off = "%.6f" % (float(value) + 1e-6)
        self.assertFalse(workloads.matches(argv, {"volume": off}, want))

    def test_changed_digest_is_not_a_failure(self):
        argv = "verify-aj --p-min 15 --p-max 15".split()
        ok, changed = workloads.check(self.reference, argv, 0,
                                      "p = 15: equal\nextra line\n")
        self.assertTrue(ok)
        self.assertTrue(changed)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        #  a [0, 10] -> b [1, 4] -> c [2, 3]
        #            -> c [5, 9]
        spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                 ["c", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0]]
        self.assertEqual(traced.self_times(spans), {
            "a": [1, 10.0, 3.0], "b": [1, 3.0, 2.0], "c": [2, 5.0, 5.0]})

    def test_tail_rank(self):
        value, pct = run.tail([float(i) for i in range(30, 0, -1)])
        self.assertEqual(value, 20.0)
        self.assertAlmostEqual(pct, 200.0 / 3)

    def test_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in declared["per_layer"]],
            traced.LAYER_METRICS)
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]),
                         sorted(workloads.WORKLOADS))


class TracedRuns(unittest.TestCase):
    def run_twice(self, name, seed=11):
        out = []
        for _ in range(2):
            tally = run.Tally(workloads.load_reference())
            with contextlib.redirect_stdout(io.StringIO()):
                metrics, layers = run.per_layer(name, seed, tally)
            self.assertEqual(tally.failed, 0)
            out.append((metrics, layers))
        return out

    def test_layers_nonzero_counts_repeat_focus_dominates(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                (first, layers), (second, _) = self.run_twice(name)
                for metric, unit, _ in traced.LAYER_METRICS:
                    if metric.startswith(ASSIGNED[name] + EVERYWHERE):
                        self.assertGreater(first[metric][0], 0, metric)
                    if unit == "count":
                        self.assertEqual(first[metric], second[metric],
                                         metric)
                focus = sum(layers[n][1] for n in workloads.FOCUS[name])
                self.assertGreater(focus, 0.5 * layers["cli.main"][1])


if __name__ == "__main__":
    unittest.main()
