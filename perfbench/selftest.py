#!/usr/bin/env python3
"""Smoke-size self-test of the rsmem benchmark.

    python3 perfbench/selftest.py

Runs every workload of perfbench/run.py through it at smoke size
(--smoke: tiny inputs, the same code paths), untraced and traced, and checks
that:
  * the run exits 0 and its last line is the JSON result with exactly the
    keys correct / attempted / failed / metrics, and correct is true;
  * every metric BENCHMARK.json declares for that mode (end_to_end untraced,
    per_layer traced) is printed, with its declared unit, as a finite number;
  * the workload's correctness gates ran ("gate PASS" lines) and none failed;
  * traced runs wrote their spans file.
Exits 0 when every check holds.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import WORKLOADS  # noqa: E402


def check(workload, trace, bench):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    problems = []
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-800:])]
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s unit %r, declared %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        elif not math.isfinite(float(got.get("value"))):
            problems.append("metric %s is not finite" % m["name"])
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics %s" % sorted(extra))
    gates = [l for l in lines if l.startswith("gate ")]
    if not any(l.startswith("gate PASS") for l in gates):
        problems.append("no correctness gate ran")
    problems += ["failed %s" % l for l in gates if l.startswith("gate FAIL")]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "run",
                             "spans-%s-7.jsonl" % workload)
        if not os.path.exists(spans) or os.path.getsize(spans) == 0:
            problems.append("no spans written to %s" % spans)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    # Every workload run.py knows, including serve_open_mix, which runs and
    # is gated here but is not in BENCHMARK.json (see README.md).
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, bench)
            status = "ok" if not problems else "FAIL"
            print("%-18s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
