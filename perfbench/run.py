#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune into
.bench_build/dune (no shared dune cache), runs it, and checks that the
last line it prints is one JSON object with exactly the keys correct,
attempted, failed and metrics, whose metrics are exactly the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1), each with its declared unit.  Artefacts (reports, traces,
the benchmark's span trace) go to .bench_build/perfbench.

Exits non-zero, without printing a result, when the tree cannot be
built; exits non-zero with correct=false when an output check fails.
The self-tests add --inject tamper|drop (corrupt the written report /
shrink the trace rings so events drop).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune project with lib/ here; run from the repository root")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--cache", "disabled", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    """Problems with the result line, as a list of messages."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    problems = []
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int):
        problems.append("failed must be a whole number")
    if res["correct"] is not True:
        problems.append("an output check failed")
        return problems
    got = res["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %r, want %r" % (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in got:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--inject", choices=["tamper", "drop"])
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    # bench.exe forks a child per repetition: its own process group lets
    # a timeout stop the child too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark timed out", 1)
    lines = out.splitlines()
    last = lines[-1] if lines else ""
    problems = check_result(last, expected_metrics(spec, args.trace))
    if proc.returncode == 0 and not problems:
        sys.stdout.write(out)
        return 0
    for line in lines[:-1]:
        print(line)
    for p in problems or ["bench.exe exited with %d" % proc.returncode]:
        print("perfbench: " + p, file=sys.stderr)
    attempted = 1
    try:
        attempted = max(1, int(json.loads(last)["attempted"]))
    except (ValueError, KeyError, TypeError):
        pass
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted, "metrics": {}}))
    return proc.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
