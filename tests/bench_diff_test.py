#!/usr/bin/env python3
"""Tier-1 tests for scripts/bench_diff.py on the fixture artifacts in
tests/bench_diff_fixtures/ and on the committed BENCH_*.json baselines.

Run directly (python3 tests/bench_diff_test.py) or through ctest.
"""

import pathlib
import subprocess
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_diff.py"
FIXTURES = REPO / "tests" / "bench_diff_fixtures"


def bench_diff(current, previous, *flags):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(current), str(previous), *flags],
        capture_output=True, text=True, check=False)


class BenchDiffTest(unittest.TestCase):
    def test_identical_files_pass(self):
        run = bench_diff(FIXTURES / "baseline.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertNotIn("WARNING", run.stdout)
        self.assertIn("alpha: 2 metrics unchanged (+0.0%)", run.stdout)

    def test_regression_in_either_direction_warns(self):
        run = bench_diff(FIXTURES / "regressed.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertIn("WARNING: regression over 10%: alpha.latency_ms: 10 -> 12 (+20.0%",
                      run.stdout)
        self.assertIn("WARNING: regression over 10%: alpha.ops_per_sec: 100 -> 80 (-20.0%",
                      run.stdout)
        self.assertIn("note: alpha.dominant changed: wire -> order_wait", run.stdout)

    def test_strict_turns_regressions_into_failure(self):
        run = bench_diff(FIXTURES / "regressed.json", FIXTURES / "baseline.json", "--strict")
        self.assertEqual(run.returncode, 1, run.stdout)

    def test_threshold_above_the_change_is_quiet(self):
        run = bench_diff(FIXTURES / "regressed.json", FIXTURES / "baseline.json",
                         "--threshold", "25", "--strict")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertNotIn("WARNING", run.stdout)

    def test_row_missing_from_previous_has_no_previous_data(self):
        run = bench_diff(FIXTURES / "new_row.json", FIXTURES / "baseline.json", "--strict")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertIn("beta: (no previous data)", run.stdout)

    def test_failed_check_fails_without_strict(self):
        run = bench_diff(FIXTURES / "failed_check.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("FAILED check: alpha.ok", run.stdout)

    def test_committed_baselines_hold_every_check(self):
        baselines = sorted(REPO.glob("BENCH_*.json"))
        self.assertTrue(baselines)
        for path in baselines:
            with self.subTest(path.name):
                run = bench_diff(path, path, "--strict")
                self.assertEqual(run.returncode, 0, run.stdout)


if __name__ == "__main__":
    unittest.main()
