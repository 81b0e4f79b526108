#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs of every workload, untraced and
traced, must pass the verdict gate and print every metric BENCHMARK.json
names, with its unit; a tree without the program must fail without a
result.

    python3 perfbench/test_perfbench.py

The first test builds the benchmark (into $CARGO_TARGET_DIR or
.bench_build/), which takes about a minute on four cores.
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
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = smoke(workload, trace)
        self.assertEqual(code, 0, lines[-3:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        provenance = [l for l in lines if l.startswith("provenance ")]
        self.assertEqual(len(provenance), 1)
        fields = json.loads(provenance[0][len("provenance "):])
        for key in ("source_sha256", "build_type", "compiler", "nproc",
                    "hardware_concurrency", "seed", "timestamp",
                    "timed_operations"):
            self.assertIn(key, fields)
        return result, fields

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, fields = self.check(w["name"], 0)
                self.assertEqual(
                    result["metrics"]["completed_share"]["value"], 1)
                # The gated figures are medians over windows and tail
                # blocks; smoke runs go through the same code.
                self.assertGreaterEqual(fields["windows"], 2)
                self.assertGreaterEqual(fields["tail_blocks"], 1)
                self.assertIn("setup_first_s", fields)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = self.check(w["name"], 1)
                self.assertEqual(result["metrics"]["net.failed"]["value"], 0)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


class BareTreeTest(unittest.TestCase):
    def test_fails_without_result(self):
        os.makedirs(build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
