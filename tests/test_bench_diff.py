#!/usr/bin/env python3
"""Regression tests for scripts/bench_diff.py.

Exercised through the CLI (subprocess), matching how CI calls it. The
cases that matter historically: a zero-IPC cell (deadlock-aborted run)
used to either raise ZeroDivisionError from hmean() or be silently
"skipped" with exit 0; both must now be a reported exit-2 failure
naming the offending cell. --exact must refuse anything but the same
simulations: an IPC rise, a moved counter, a missing cell.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "bench_diff.py")


def dump(cells, bench="fig12", scheduler="wakeup", sim_khz=100.0):
    return {
        "schema": "rbsim-bench-1",
        "bench": bench,
        "scale": 1,
        "scheduler": scheduler,
        "machines": sorted({m for m, _, _ in cells}),
        "cells": [{"machine": m, "workload": w, "ipc": ipc,
                   "host_ms": 1.0, "sim_khz": sim_khz}
                  for m, w, ipc in cells],
        "summary": {},
    }


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, old, new, *extra):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("old.json", old), ("new.json", new)):
                p = os.path.join(d, name)
                with open(p, "w") as f:
                    json.dump(doc, f)
                paths.append(p)
            return subprocess.run(
                [sys.executable, SCRIPT, *extra, *paths],
                capture_output=True, text=True)

    def test_clean_pass(self):
        doc = dump([("Baseline", "espresso", 1.5),
                    ("RB-full", "espresso", 1.8)])
        r = self.run_diff(doc, doc)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no machine regressed", r.stdout)

    def test_regression_detected(self):
        old = dump([("Baseline", "espresso", 1.5)])
        new = dump([("Baseline", "espresso", 1.2)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_zero_ipc_cell_fails_with_diagnostic(self):
        """A deadlocked cell (IPC 0.0) must exit 2 with the cell named —
        not a ZeroDivisionError traceback, not a silent pass."""
        old = dump([("Baseline", "espresso", 1.5),
                    ("Baseline", "li", 1.4)])
        new = dump([("Baseline", "espresso", 0.0),
                    ("Baseline", "li", 1.4)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("non-positive IPC", r.stderr)
        self.assertIn("espresso", r.stderr)
        self.assertIn("Baseline", r.stderr)
        self.assertIn("new.json", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_zero_ipc_in_old_dump_also_fails(self):
        old = dump([("RB-full", "compress", 0.0)])
        new = dump([("RB-full", "compress", 1.0)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("old.json", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_negative_ipc_cell_fails(self):
        old = dump([("Ideal", "gcc", 2.0)])
        new = dump([("Ideal", "gcc", -1.0)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_empty_machine_list_is_not_a_traceback(self):
        """Dumps with no cells at all: nothing comparable, exit 0 with a
        message (and in no case an unguarded max()/hmean() blowup)."""
        r = self.run_diff(dump([]), dump([]))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("nothing to compare", r.stdout)
        self.assertNotIn("Traceback", r.stderr)

    def test_disjoint_dumps_nothing_to_compare(self):
        old = dump([("Baseline", "espresso", 1.5)])
        new = dump([("RB-full", "li", 1.4)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("nothing to compare", r.stdout)

    def test_bad_schema_rejected(self):
        old = dump([("Baseline", "espresso", 1.5)])
        bad = dict(old, schema="rbsim-bench-0")
        r = self.run_diff(old, bad)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("unsupported schema", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_threshold_respected(self):
        old = dump([("Baseline", "espresso", 1.00)])
        new = dump([("Baseline", "espresso", 0.98)])
        r = self.run_diff(old, new, "--threshold", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_speed_not_gating_by_default(self):
        """A big slowdown passes when --speed-gate is absent."""
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=1000.0)
        new = dump([("Baseline", "espresso", 1.5)], sim_khz=10.0)
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("non-gating", r.stdout)

    def test_speed_gate_fails_on_slowdown(self):
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=1000.0)
        new = dump([("Baseline", "espresso", 1.5)], sim_khz=400.0)
        r = self.run_diff(old, new, "--speed-gate", "50")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("TOO SLOW", r.stdout)
        self.assertIn("simulate too slowly", r.stdout)

    def test_speed_gate_passes_within_tolerance(self):
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=1000.0)
        new = dump([("Baseline", "espresso", 1.5)], sim_khz=700.0)
        r = self.run_diff(old, new, "--speed-gate", "50")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("speed gate 50% passed", r.stdout)

    def test_speed_gate_improvement_passes(self):
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=100.0)
        new = dump([("Baseline", "espresso", 1.5)], sim_khz=400.0)
        r = self.run_diff(old, new, "--speed-gate", "25")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_speed_gate_without_speed_data_refuses(self):
        """Gating against dumps without sim_khz must fail loudly, not
        skip to a green exit."""
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=0.0)
        new = dump([("Baseline", "espresso", 1.5)], sim_khz=0.0)
        r = self.run_diff(old, new, "--speed-gate", "50")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("no common cells carry sim_khz", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def ci_dump(self, cells):
        """cells: (machine, workload, ipc, ci95-or-None)."""
        doc = dump([(m, w, ipc) for m, w, ipc, _ in cells])
        for jc, (_, _, _, ci) in zip(doc["cells"], cells):
            if ci is not None:
                jc["ci95"] = ci
        return doc

    def test_ci_cells_pass_within_combined_interval(self):
        """A drop inside the combined CI half-widths is statistical
        noise, not a regression — even far past --threshold."""
        old = self.ci_dump([("RB-full", "compress", 1.50, 0.10)])
        new = self.ci_dump([("RB-full", "compress", 1.35, 0.08)])
        r = self.run_diff(old, new, "--threshold", "1")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("CI-gated", r.stdout)

    def test_ci_cells_fail_beyond_combined_interval(self):
        old = self.ci_dump([("RB-full", "compress", 1.50, 0.02)])
        new = self.ci_dump([("RB-full", "compress", 1.35, 0.03)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("beyond combined CI", r.stdout)

    def test_ci_on_one_side_gates_on_that_ci(self):
        """Sampled-vs-full comparison: the full dump has no ci95, so the
        sampled run's own CI is the whole allowance — the acceptance
        check of docs/PERFORMANCE.md."""
        full = self.ci_dump([("RB-full", "compress", 1.50, None)])
        sampled = self.ci_dump([("RB-full", "compress", 1.45, 0.06)])
        r = self.run_diff(full, sampled)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        sampled_far = self.ci_dump([("RB-full", "compress", 1.40, 0.06)])
        r = self.run_diff(full, sampled_far)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_ci_improvement_never_fails(self):
        old = self.ci_dump([("RB-full", "compress", 1.30, 0.01)])
        new = self.ci_dump([("RB-full", "compress", 1.60, 0.01)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_ci_and_exact_cells_mix(self):
        """Exact cells keep the hmean threshold gate while CI cells are
        gated per cell; an exact regression still fails the run."""
        old = self.ci_dump([("Baseline", "espresso", 1.50, None),
                            ("Baseline", "compress", 1.40, 0.10)])
        new = self.ci_dump([("Baseline", "espresso", 1.20, None),
                            ("Baseline", "compress", 1.35, 0.10)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_zero_ipc_in_ci_cell_still_exit_2(self):
        old = self.ci_dump([("Baseline", "compress", 1.40, 0.10)])
        new = self.ci_dump([("Baseline", "compress", 0.0, 0.0)])
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def stats_dump(self, cells):
        """cells: (machine, workload, ipc, holeWaitCycles)."""
        doc = dump([(m, w, ipc) for m, w, ipc, _ in cells])
        for jc, (_, _, ipc, holes) in zip(doc["cells"], cells):
            jc["stats"] = {
                "counters": {"core.cycles": 1000,
                             "core.holeWaitCycles": holes},
                "formulas": {"core.ipc": ipc},
                "vectors": {"core.holeWait": [holes, 0]},
            }
        return doc

    def test_exact_equal_dumps_pass(self):
        doc = self.stats_dump([("Baseline", "go", 0.9, 0),
                               ("RB-limited", "go", 1.1, 7)])
        r = self.run_diff(doc, doc, "--exact")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("exact — 2 cells", r.stdout)

    def test_exact_fails_on_ipc_rise(self):
        """An IPC rise passes the hmean gate at --threshold 0 but is not
        the same simulation."""
        old = self.stats_dump([("Baseline", "go", 0.9, 0)])
        new = self.stats_dump([("Baseline", "go", 0.95, 0)])
        r = self.run_diff(old, new, "--threshold", "0")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        r = self.run_diff(old, new, "--threshold", "0", "--exact")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("'Baseline'", r.stdout)
        self.assertIn("ipc 0.9 -> 0.95", r.stdout)

    def test_exact_fails_on_moved_counter_with_equal_ipc(self):
        old = self.stats_dump([("RB-limited", "li", 1.2, 40),
                               ("RB-limited", "go", 1.1, 7)])
        new = self.stats_dump([("RB-limited", "li", 1.2, 40),
                               ("RB-limited", "go", 1.1, 8)])
        r = self.run_diff(old, new, "--exact")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("workload='go'", r.stdout)
        self.assertIn("stat counters/core.holeWaitCycles 7 -> 8",
                      r.stdout)

    def test_exact_fails_on_missing_cell(self):
        old = self.stats_dump([("Ideal", "gcc", 2.0, 0),
                               ("Ideal", "li", 2.1, 0)])
        new = self.stats_dump([("Ideal", "gcc", 2.0, 0)])
        r = self.run_diff(old, new, "--exact")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("workload='li'", r.stdout)
        self.assertIn("missing from the new dump", r.stdout)
        r = self.run_diff(new, old, "--exact")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("missing from the old dump", r.stdout)

    def test_exact_skips_ci_cells(self):
        """Sampled cells keep their statistical gate under --exact."""
        old = self.ci_dump([("RB-full", "compress", 1.50, 0.10)])
        new = self.ci_dump([("RB-full", "compress", 1.45, 0.10)])
        r = self.run_diff(old, new, "--exact")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_ipc_regression_wins_over_speed_gate_pass(self):
        old = dump([("Baseline", "espresso", 1.5)], sim_khz=100.0)
        new = dump([("Baseline", "espresso", 1.0)], sim_khz=100.0)
        r = self.run_diff(old, new, "--speed-gate", "50")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)


if __name__ == "__main__":
    unittest.main()
