#!/usr/bin/env python3
"""Smoke tests of the two-clock benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root. Every workload runs at smoke size (tiny
inputs, one repetition) untraced and traced; the tests check that every
metric BENCHMARK.json names is printed exactly once with its unit, that a
wrong pinned checksum is counted as a failure, and that the benchmark fails
cleanly when the library sources are missing.
"""

import json
import os
import re
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
with open(os.path.join(HERE, "manifest.json")) as f:
    MANIFEST = json.load(f)


def no_duplicates(pairs):
    keys = [key for key, _ in pairs]
    duplicates = {key for key in keys if keys.count(key) > 1}
    if duplicates:
        raise ValueError(f"duplicate keys {sorted(duplicates)}")
    return dict(pairs)


def run_smoke(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(run):
    lines = run.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1], object_pairs_hook=no_duplicates)


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload, trace):
        run = run_smoke(workload, trace)
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        lines, result = result_of(run)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], run.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for metric in expected:
            name, unit = metric["name"], metric["unit"]
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float), name)
            measured = not trace or workload in MANIFEST["per_layer"][name]["workloads"]
            # The human-readable table prints each measured metric once.
            pattern = re.compile(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$")
            printed = [line for line in lines if pattern.match(line)]
            self.assertEqual(len(printed), 1 if measured else 0, name)
            if not trace:
                self.assertGreater(value, 0, f"{name} must never be 0")
        self.assertEqual(sum(line.startswith("failed_frac = ") for line in lines), 1)

    def test_every_workload_prints_every_metric_once(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_workload(workload, trace)

    def test_wrong_pinned_checksum_raises_failed_frac(self):
        workload = "offline-ctdg"
        _, good = result_of(run_smoke(workload, 0))
        manifest = json.loads(json.dumps(MANIFEST))
        canary = manifest["checksums"]["canary"][workload]
        canary["canary.tgn"] *= 1.01
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "manifest.json")
            with open(path, "w") as f:
                json.dump(manifest, f)
            run = run_smoke(workload, 0, "--manifest", path)
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        lines, bad = result_of(run)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], good["failed"] + 1)
        self.assertGreater(bad["failed"] / bad["attempted"],
                           good["failed"] / good["attempted"])
        self.assertTrue(any("checksum canary.tgn" in line for line in lines))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            command = [sys.executable, "perfbench/run.py", "--workload",
                       "offline-ctdg", "--seed", "1", "--seconds", "1",
                       "--trace", "0"]
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            run = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, timeout=300)
        self.assertNotEqual(run.returncode, 0)
        self.assertFalse(run.stdout.strip().endswith("}"))


if __name__ == "__main__":
    unittest.main()
