#!/usr/bin/env python3
"""OmegaCount benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and omegad from the sources one directory up (Release,
into .bench_build/perfbench), runs the harness binary, checks that its
result names every metric BENCHMARK.json lists for the mode (end-to-end
with --trace 0, per-layer with --trace 1) with the right unit, and prints
the result as the last line of standard output.  The host line and the
sample counts come first.  Exits non-zero, printing no result, when the
build, the run or the check fails.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKDIR = os.path.join(".bench_build", "run")
WORKLOADS = ("loopnest-symbolic", "union-blowup", "omegad-open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the OmegaCount sources (src/) are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "omegad", "-j", jobs])
    for cmd in steps:
        try:
            # Build logs go to stderr: stdout carries only the report.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Problems with the result's shape; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = result["metrics"]
    for name, unit in expected_metrics(trace).items():
        m = got.get(name)
        if m is None:
            problems.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            problems.append("metric %s has unit %r, want %r"
                            % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def run(workload, seed, seconds, trace):
    """Runs the harness once; returns (result dict, lines printed before)."""
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--omegad", os.path.join(BUILD, "omegad"),
           "--workdir", WORKDIR, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    problems = check(result, trace)
    if problems:
        fail("%s: %s" % (workload, "; ".join(problems)))
    return result, lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    build()
    result, before = run(args.workload, args.seed, args.seconds, args.trace)
    for line in before:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        print("perfbench: a wrong answer was found; see above", file=sys.stderr)


if __name__ == "__main__":
    main()
