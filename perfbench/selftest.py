#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py        # from the repository root, ~3 min

Checks that BENCHMARK.json keeps to the benchmark's format, that every
workload prints every end-to-end metric (untraced) and every per-layer
metric (traced pass) by name with its declared unit, that a tampered
report or an injected ring drop fails the run, and that the command
fails without a result where the simulator's sources are absent.

run.py itself rejects a result line whose keys, metric names or units
differ from BENCHMARK.json, so a run that exits 0 has printed every
metric with its unit; the tests here add what run.py does not check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Spec(unittest.TestCase):
    def test_format(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 <= m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class Metrics(unittest.TestCase):
    def check_printed(self, trace, key):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                got = result(proc)["metrics"]
                if key == "end_to_end":
                    for m in SPEC[key]:
                        self.assertGreater(got[m["name"]]["value"], 0, m["name"])
                else:
                    self.assertEqual(got["obs.dropped"]["value"], 0)

    def test_end_to_end_printed(self):
        self.check_printed(0, "end_to_end")

    def test_per_layer_printed(self):
        self.check_printed(1, "per_layer")


class Failures(unittest.TestCase):
    def assert_fails(self, proc):
        self.assertNotEqual(proc.returncode, 0)
        res = result(proc)
        self.assertIs(res["correct"], False)
        self.assertEqual(res["failed"], res["attempted"])

    def test_tampered_server_report(self):
        self.assert_fails(bench("serve-cgc", 0, "--inject", "tamper"))

    def test_tampered_fleet_report(self):
        self.assert_fails(bench("fleet-chaos", 0, "--inject", "tamper"))

    def test_ring_drop_traced_pass(self):
        self.assert_fails(bench("serve-gen", 1, "--inject", "drop"))

    def test_ring_drop_jbb(self):
        self.assert_fails(bench("jbb-traced", 0, "--inject", "drop"))

    def test_no_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        try:
            proc = bench(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
