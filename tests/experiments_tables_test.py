#!/usr/bin/env python3
"""Tier-1 tests for scripts/experiments_tables.py: EXPERIMENTS.md's tables
match the committed BENCH_*.json, and a stale or broken table is caught.

Run directly (python3 tests/experiments_tables_test.py) or through ctest.
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "experiments_tables.py"
DOC = REPO / "EXPERIMENTS.md"


def tables(*flags):
    return subprocess.run([sys.executable, str(SCRIPT), *flags],
                          capture_output=True, text=True, check=False)


class ExperimentsTablesTest(unittest.TestCase):
    def check_copy(self, edit):
        """Run --check on a copy of EXPERIMENTS.md changed by `edit`."""
        with tempfile.TemporaryDirectory() as tmp:
            doc = pathlib.Path(tmp) / "EXPERIMENTS.md"
            doc.write_text(edit(DOC.read_text(encoding="utf-8")), encoding="utf-8")
            return tables("--check", "--doc", str(doc), "--artifacts", str(REPO))

    def test_committed_tables_are_fresh(self):
        run = tables("--check")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def test_a_hand_edited_cell_is_stale(self):
        def edit(text):
            start = text.index("<!-- table: graphs_1_4 -->")
            row = text.index("| LAN (graphs 1–2) | 1 | ", start)
            return text[:row] + "| LAN (graphs 1–2) | 1 | 9.99 | 1 |" + \
                text[text.index("\n", row):]
        run = self.check_copy(edit)
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn("-| LAN (graphs 1–2) | 1 | 9.99 | 1 |", run.stdout)
        self.assertIn("is stale", run.stderr)

    def test_a_missing_table_is_an_error(self):
        run = self.check_copy(lambda text: text.replace("<!-- table: mttr -->\n", ""))
        self.assertEqual(run.returncode, 2, run.stdout + run.stderr)
        self.assertIn("mttr", run.stderr)


if __name__ == "__main__":
    unittest.main()
