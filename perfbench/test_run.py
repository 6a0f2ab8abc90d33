"""Unit tests for the steadiness mode of run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)

    def test_exclusive_quartiles_of_a_known_set(self):
        # 1..9 with the default (exclusive) method: Q1 = 2.5, Q3 = 7.5.
        self.assertAlmostEqual(run.spread(list(range(1, 10))), 5.0 / 5.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.spread([4.0] * 10), 0.0)


class WorseByTest(unittest.TestCase):
    def test_direction_follows_better(self):
        self.assertAlmostEqual(run.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 80.0, "higher"), 0.20)


class VerdictTest(unittest.TestCase):
    latency = {"name": "latency_p50_ms", "better": "lower", "bound": 0.2}
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}

    def test_agreeing_sets(self):
        a = [10.0, 10.2, 9.9, 10.1, 10.0]
        b = [10.1, 10.0, 10.3, 9.8, 10.2]
        v = run.verdict(self.latency, a, b)
        self.assertTrue(v["agree"])
        self.assertEqual(v["median_a"], 10.0)
        self.assertEqual(v["median_b"], 10.1)

    def test_shift_beyond_bound_either_way_disagrees(self):
        a = [10.0] * 5
        b = [13.0] * 5
        self.assertFalse(run.verdict(self.latency, a, b)["agree"])
        self.assertFalse(run.verdict(self.latency, b, a)["agree"])
        self.assertTrue(run.verdict(self.latency, a, [11.9] * 5)["agree"])
        self.assertTrue(run.verdict(self.latency, a, [8.1] * 5)["agree"])

    def test_spread_beyond_bound_disagrees_except_for_setup(self):
        wide = [5.0, 10.0, 15.0, 10.0, 10.0, 20.0, 2.0]
        self.assertGreater(run.spread(wide), 0.25)
        self.assertFalse(run.verdict(self.latency, wide, wide)["agree"])
        self.assertTrue(run.verdict(self.setup, wide, wide)["agree"])
        # A setup_s shift is still a disagreement, either way.
        self.assertFalse(run.verdict(self.setup, wide, [x * 1.3 for x in wide])["agree"])
        self.assertFalse(run.verdict(self.setup, wide, [x * 0.7 for x in wide])["agree"])

if __name__ == "__main__":
    unittest.main()
