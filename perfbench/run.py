#!/usr/bin/env python3
"""Run one rsmem benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, which pulls in the
repository's library and rsmem_cli from source) into .bench_build/ as a
Release build, runs perfbench/src's binary for the workload, and relays its
output. The last line of stdout is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; run.py checks that every declared metric was
printed with its declared unit. Exits non-zero without a result line when
the build or the run fails. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("mc_duplex_scrub", "mc_simplex_clean", "markov_grid",
             "serve_open_mix")
DEADLINE_S = 170.0  # the whole run, build check included


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(started):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "rsmem_cli"])
    with open(log_path, "a") as log:
        for step in steps:
            # The first build in a checkout may take minutes; later runs
            # only check that everything is up to date.
            budget = max(30.0, 900.0 - (time.monotonic() - started))
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=budget)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                fail("build step failed: %s; see %s" % (" ".join(step),
                                                         log_path))


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: tiny inputs, same code paths")
    args = parser.parse_args()

    started = time.monotonic()
    build(started)
    os.makedirs(WORKDIR, exist_ok=True)
    # Relative paths keep the serve socket path short wherever the checkout
    # lives (unix socket paths are limited to ~107 bytes).
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD, "rsmem", "tools", "rsmem_cli"),
           "--workdir", os.path.relpath(WORKDIR, ROOT),
           "--golden", os.path.join(HERE, "golden", "markov_grid.txt")]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the serve child.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            process_group=0)
    elapsed = time.monotonic() - started
    # A run that paid the first build may use up to 900 s in all.
    budget = DEADLINE_S - elapsed if elapsed < 20.0 else 890.0 - elapsed
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %.0f s" % budget)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive us
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out or "")
        fail("perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        result["metrics"].items()
    except (ValueError, KeyError, AttributeError):
        sys.stderr.write(out)
        fail("the last output line is not a JSON result")
    expected = declared_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, wrong))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
