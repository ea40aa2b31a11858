#!/usr/bin/env python3
"""Tests of the benchmark's own rules: tail percentiles, the serve-jobs
request generator, the output checks and the sampled references.

    python3 perfbench/test_run.py
"""

import copy
import json
import unittest
from collections import OrderedDict

import run


def grid_pass(n=4):
    return {"seconds": 1.0, "cells": [
        {"machine": f"M{i % 2}", "workload": f"w{i // 2}", "ok": True,
         "halted": True, "cycles": 100 + i, "retired": 50 + i,
         "digest": f"d{i}"} for i in range(n)]}


def campaigns(n=4):
    camps = [{"machine": f"M{i % 2}", "workload": f"w{i // 2}", "scale": 40,
              "seed": 2002, "program_hash": f"h{i // 2}", "ok": True,
              "completed": True, "windows": 5 + i, "ipc": 1.0 + i / 10,
              "ff_insts": 1000} for i in range(n)]
    refs = [{"machine": c["machine"], "workload": c["workload"],
             "scale": 40, "seed": 2002, "program_hash": c["program_hash"],
             "windows": c["windows"], "sampled_ipc": c["ipc"],
             "full_ipc": c["ipc"] * 1.1}
            for c in camps]
    return {"seconds": 1.0, "campaigns": camps}, refs


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        value, beyond = run.tail_percentile(range(1, 101), 90)
        self.assertEqual((value, beyond), (90, 10))
        with self.assertRaises(run.BenchError):
            run.tail_percentile(range(1, 100), 90)
        with self.assertRaises(run.BenchError):
            run.tail_percentile(range(50), 90)

    def test_order_does_not_matter(self):
        xs = list(range(200))
        self.assertEqual(run.tail_percentile(xs[::-1], 90),
                         run.tail_percentile(xs, 90))


class RequestGenerator(unittest.TestCase):
    def test_same_seed_same_lines(self):
        self.assertEqual(run.generate_requests(7, 10),
                         run.generate_requests(7, 10))
        self.assertNotEqual(run.generate_requests(7, 10),
                            run.generate_requests(8, 10))

    def test_every_block_asks_for_the_same_mix(self):
        for seed in (1, 2002):
            reqs = run.generate_requests(seed, 3)
            self.assertEqual(len(reqs), 3 * run.BLOCK)
            for b in range(3):
                block = reqs[b * run.BLOCK:(b + 1) * run.BLOCK]
                fresh = [json.loads(line) for line, rep in block
                         if rep is None]
                self.assertEqual(
                    sorted((r["workload"], r["machine"], r["width"])
                           for r in fresh), sorted(run.COMBOS))
                self.assertEqual(len(block) - len(fresh),
                                 run.BLOCK // run.REPEAT_EVERY)

    def test_repeats_are_completed_and_cache_resident(self):
        reqs = run.generate_requests(2002, 40)
        lru = OrderedDict()  # the server's result cache, replayed
        ids = set()
        repeats = 0
        for i, (line, rep) in enumerate(reqs):
            req = json.loads(line)
            self.assertNotIn(req["id"], ids)
            ids.add(req["id"])
            key = (req["workload"], req["machine"], req["width"],
                   req["max_insts"])
            if rep is None:
                self.assertNotIn(key, lru)
                lru[key] = i
                if len(lru) > run.CACHE_CAPACITY:
                    lru.popitem(last=False)
            else:
                repeats += 1
                self.assertLess(rep, i)
                self.assertIn(key, lru)
                self.assertEqual(lru[key], rep)
                lru.move_to_end(key)
                first = json.loads(reqs[rep][0])
                self.assertEqual(dict(first, id=req["id"]), req)
        self.assertEqual(repeats * run.REPEAT_EVERY, len(reqs))


class OutputChecks(unittest.TestCase):
    def test_grid_corrupt_expectation_fails_that_cell(self):
        p = grid_pass()
        expected = {(c["machine"], c["workload"]): (c["cycles"], c["retired"])
                    for c in p["cells"]}
        self.assertEqual(run.check_grid([p], expected), set())
        expected[("M1", "w0")] = (0, 51)
        self.assertEqual(run.check_grid([p], expected), {(0, 1)})

    def test_grid_without_expectation_needs_repeatable_passes(self):
        a, b = grid_pass(), grid_pass()
        self.assertEqual(run.check_grid([a, b]), set())
        b["cells"][2]["digest"] = "other"
        self.assertEqual(run.check_grid([a, b]), {(1, 2)})
        traced = copy.deepcopy(a["cells"])
        traced[3]["digest"] = "other"
        self.assertEqual(run.check_grid([a], traced=traced), {(0, 3)})

    def test_grid_cell_that_does_not_halt_fails(self):
        p = grid_pass()
        p["cells"][0]["halted"] = False
        self.assertEqual(run.check_grid([p]), {(0, 0)})

    def test_sampled_corrupt_expectation_fails_that_campaign(self):
        p, refs = campaigns()
        index = run.ref_index(refs)
        self.assertEqual(run.check_sampled([p], index), set())
        refs[2]["windows"] += 1
        self.assertEqual(run.check_sampled([p], run.ref_index(refs)),
                         {(0, 2)})

    def test_stale_or_missing_reference_is_rejected(self):
        p, refs = campaigns()
        refs[1]["program_hash"] = "stale"
        index = run.ref_index(refs)
        self.assertEqual(run.check_sampled([p], index), {(0, 1)})
        self.assertEqual(len(run.sampled_errors(p["campaigns"], index)), 3)
        del refs[3]
        self.assertEqual(run.check_sampled([p], run.ref_index(refs)),
                         {(0, 1), (0, 3)})

    def test_reference_from_another_detailed_model_is_rejected(self):
        # Same program and window count, but the timed campaign's sampled
        # IPC moved: the model changed since the references were made.
        p, refs = campaigns()
        refs[2]["sampled_ipc"] += 1e-12
        index = run.ref_index(refs)
        self.assertEqual(run.check_sampled([p], index), {(0, 2)})
        self.assertEqual(len(run.sampled_errors(p["campaigns"], index)), 3)

    def test_sampled_errors_are_signed_percent(self):
        p, refs = campaigns(2)
        errs = run.sampled_errors(p["campaigns"], run.ref_index(refs))
        for e in errs:
            self.assertAlmostEqual(e, (1 / 1.1 - 1) * 100)

    def test_jobs_corrupt_expectation_fails_that_job(self):
        jobs = [{"ok": True, "cache_hit": hit, "ipc": ipc,
                 "latency_ms": [1.0], "differing_rounds": []}
                for hit, ipc in ((False, 1.5), (False, 0.7), (True, 1.5),
                                 (True, 0.7))]
        repeats = [None, None, 0, 1]
        self.assertEqual(run.check_jobs(jobs, repeats), set())
        self.assertEqual(run.check_jobs(jobs, [None, None, 1, 1]), {(0, 2)})
        self.assertEqual(run.check_jobs(jobs, [None, None, 0, None]),
                         {(0, 3)})
        refused = copy.deepcopy(jobs)
        refused[1]["ok"] = False
        self.assertEqual(run.check_jobs(refused, repeats), {(0, 1)})
        unsteady = copy.deepcopy(jobs)
        unsteady[2]["latency_ms"] = [1.0, 1.0, 1.0]
        unsteady[2]["differing_rounds"] = [2]
        self.assertEqual(run.check_jobs(unsteady, repeats), {(2, 2)})


def raws():
    """(workload, untraced raw results, summarize keywords) of each
    workload, as rbperf writes them."""
    common = {"setup_s": [0.1, 0.2, 0.3], "peak_rss_mb": 20.0,
              "provenance": {"seed": 7}}
    grid = [grid_pass(), grid_pass(), grid_pass()]
    for k, p in enumerate(grid):
        for c in p["cells"]:
            c["seconds"] = 0.1 * (k + 1)
        p["ref_s"] = [0.01 * (k + 1)] * len(p["cells"])
    sampled, refs = campaigns()
    for c in sampled["campaigns"]:
        c["seconds"] = 1.0
    sampled["ref_s"] = [0.01, 0.012]
    jobs = [{"ok": True, "cache_hit": i % 5 == 4, "ipc": 1.0,
             "retired": 3000, "host_ms": 5.0, "latency_ms": [6.0 + i],
             "differing_rounds": []} for i in range(120)]
    repeats = [i - 1 if i % 5 == 4 else None for i in range(120)]
    for j, rep in zip(jobs, repeats):
        if rep is not None:
            j["ipc"] = jobs[rep]["ipc"]
    return [("detailed-grid", dict(common, passes=grid), {}),
            ("sampled-long", dict(common, passes=[sampled]),
             {"refs": run.ref_index(refs)}),
            ("serve-jobs", dict(common, jobs=jobs, ref_s=[[0.01] * 120]),
             {"repeats": repeats})]


class Declaration(unittest.TestCase):
    def test_every_metric_is_declared_once(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in doc["workloads"]},
                         set(run.WORKLOADS))

    def test_every_workload_reports_every_end_to_end_metric(self):
        declared = run.declared(0)
        self.assertIn("setup_s", declared)
        for workload, raw, kw in raws():
            attempted, failed, values, _ = run.summarize(workload, raw, 0,
                                                         **kw)
            self.assertEqual(failed, 0, workload)
            self.assertGreater(attempted, 0, workload)
            for name in declared:
                self.assertGreater(values[name], 0, (workload, name))

    def test_times_are_operation_medians_in_reference_runs(self):
        # Each pass ran slower than the one before, and so did the
        # reference runs made between its cells: every cell takes 10 of
        # the run's median reference runs.
        _, _, values, _ = run.summarize(*raws()[0][:2], 0)
        self.assertAlmostEqual(values["job_p50_ms"], 200.0)
        self.assertAlmostEqual(values["ref_ms"], 20.0)
        self.assertAlmostEqual(values["job_p50_ref"], 10.0)
        self.assertAlmostEqual(values["jobs_per_kref"], 100.0)
        self.assertAlmostEqual(values["sim_minst_per_kref"],
                               sum(50 + i for i in range(4)) / 40 / 1e3)
        self.assertEqual(values["setup_s"], 0.2)


if __name__ == "__main__":
    unittest.main()
