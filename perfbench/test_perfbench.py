#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale.

    python3 perfbench/test_perfbench.py      (from the repository root)

They build the benchmark through run.py like any run, then check that every
metric BENCHMARK.json names is emitted with its unit, that one seed
repeats its sim metrics, space_amp and per-layer counts exactly, that a
second seed changes the inputs and still passes every output check, that
fleet's capacity lies inside its rate ladder at full size, that a corrupted
read fails the run, that run.py refuses to run without the
sources, and compare.py's verdicts.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

TINY = "0.05"
WORKLOADS = ("paper", "hot", "churn", "fleet")
# Deterministic for a seed: single-threaded sim time and sizes.
EXACT_E2E = ("sim_create_MBps", "sim_read_MBps", "sim_write_MBps",
             "sim_p50_ms", "sim_p99_ms", "sim_capacity_ops_per_s", "space_amp")
# Per-layer counts of single-threaded workloads (times excluded).
EXACT_LAYER_SUFFIXES = ("_per_op", "_ratio", "_per_miss", "_per_commit",
                        "_per_row", "_per_pass", "_per_chunk_lookup",
                        "_batch", ".runs", ".migrations", ".platter_loads",
                        ".retries", "write_amp", "_share")
TIMED = ("_us", "_ms", "_us_per_op", "overhead_ratio", "wall_share",
         "sim.other_share")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace=0, extra=(), cwd=ROOT, seconds=TINY,
        header=False):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if header:
        return proc.returncode, result, json.loads(lines[0])
    return proc.returncode, result


def exact_layer(name):
    return (name.endswith(EXACT_LAYER_SUFFIXES) and
            not name.endswith(TIMED) and not name.startswith("self."))


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = bench()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    rc, result = run(w, 7, trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_sim_metrics_and_counts(self):
        for w in ("paper", "churn", "fleet"):
            with self.subTest(workload=w):
                a = run(w, 3)[1]["metrics"]
                b = run(w, 3)[1]["metrics"]
                for name in EXACT_E2E:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                la = run(w, 3, 1)[1]["metrics"]
                lb = run(w, 3, 1)[1]["metrics"]
                for name in la:
                    if exact_layer(name):
                        self.assertEqual(la[name]["value"], lb[name]["value"],
                                         name)

    def test_second_seed_changes_inputs_and_passes_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc3, a = run(w, 3)
                rc4, b = run(w, 4)
                self.assertEqual((rc3, rc4), (0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                self.assertNotEqual(
                    [a["metrics"][n]["value"] for n in EXACT_E2E],
                    [b["metrics"][n]["value"] for n in EXACT_E2E])


class FleetLadder(unittest.TestCase):
    def test_capacity_inside_the_ladder(self):
        # At the benchmark's own size the capacity must sit strictly between
        # the lowest and the highest offered rate: a value pinned to either
        # end could not move.
        rc, result, head = run("fleet", 3, seconds=bench()["run_seconds"],
                               header=True)
        self.assertEqual(rc, 0)
        ladder = head["fleet_ladder"]
        capacity = result["metrics"]["sim_capacity_ops_per_s"]["value"]
        self.assertGreater(capacity, ladder[0])
        self.assertLess(capacity, ladder[-1])


class Checks(unittest.TestCase):
    def test_corrupted_read_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = run(w, 5, extra=("--corrupt-read", "3"))
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_without_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, result = run("hot", 1, cwd=d)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)


class CompareVerdicts(unittest.TestCase):
    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(compare.verdict(base, [v * 0.8 for v in base],
                                         "higher", 0.1), "worse")
        self.assertEqual(compare.verdict(base, [v * 1.3 for v in base],
                                         "higher", 0.1), "better")
        self.assertEqual(compare.verdict(base, [v * 1.01 for v in base],
                                         "lower", 0.1), "unresolved")
        self.assertEqual(compare.verdict(base, [v * 0.8 for v in base],
                                         "lower", 0.1), "better")


if __name__ == "__main__":
    unittest.main()
