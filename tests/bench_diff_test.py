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


def bench_diff(current, previous):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(current), str(previous)],
        capture_output=True, text=True, check=False)


class BenchDiffTest(unittest.TestCase):
    def test_identical_files_pass(self):
        run = bench_diff(FIXTURES / "baseline.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertNotIn("DRIFT", run.stdout)
        self.assertIn("alpha: 3 sim values unchanged (+0.0%)", run.stdout)

    def test_changed_sim_metric_fails_even_when_better(self):
        run = bench_diff(FIXTURES / "sim_drift.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("DRIFT: alpha.latency_ms: 10 -> 9 (-10.0%, lower is better)", run.stdout)
        self.assertIn("fixture: 1 sim value(s) drifted", run.stdout)

    def test_changed_info_value_fails(self):
        run = bench_diff(FIXTURES / "info_drift.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("DRIFT: alpha.dominant: wire -> order_wait (info)", run.stdout)

    def test_sim_metric_no_longer_reported_fails(self):
        run = bench_diff(FIXTURES / "missing_metric.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("DRIFT: alpha.latency_ms (lower) no longer reported", run.stdout)

    def test_row_no_longer_reported_fails(self):
        run = bench_diff(FIXTURES / "baseline.json", FIXTURES / "new_row.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("DRIFT: row beta no longer reported", run.stdout)

    def test_changed_host_metric_is_a_note(self):
        run = bench_diff(FIXTURES / "host_drift.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertNotIn("DRIFT", run.stdout)
        self.assertIn("note: host alpha.events_per_sec: 1000 -> 750 (-25.0%, host)",
                      run.stdout)

    def test_row_missing_from_previous_has_no_previous_data(self):
        run = bench_diff(FIXTURES / "new_row.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertIn("beta: (no previous data)", run.stdout)

    def test_failed_check_fails(self):
        run = bench_diff(FIXTURES / "failed_check.json", FIXTURES / "baseline.json")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("FAILED check: alpha.ok", run.stdout)

    def test_duplicate_row_name_fails(self):
        for current, previous in (("duplicate_row.json", "baseline.json"),
                                  ("baseline.json", "duplicate_row.json")):
            with self.subTest(current=current, previous=previous):
                run = bench_diff(FIXTURES / current, FIXTURES / previous)
                self.assertEqual(run.returncode, 1, run.stdout)
                self.assertIn("DUPLICATE row name: alpha in", run.stdout)

    def test_committed_baselines_hold_every_check(self):
        baselines = sorted(REPO.glob("BENCH_*.json"))
        self.assertTrue(baselines)
        for path in baselines:
            with self.subTest(path.name):
                run = bench_diff(path, path)
                self.assertEqual(run.returncode, 0, run.stdout)


if __name__ == "__main__":
    unittest.main()
