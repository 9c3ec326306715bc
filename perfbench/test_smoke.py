#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload briefly, untraced and traced, through run.py.  run.py
already refuses a result that lacks a metric BENCHMARK.json names or gives
it the wrong unit; this test also requires every answer to be correct, at
least one query attempted and none failed, and the host line to name the
host.  Prints "perfbench smoke: ok" and exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("loopnest-symbolic", "union-blowup", "omegad-open")
HOST_KEYS = {"nproc", "compiler", "build_type", "commit"}


def main():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "7", "--seconds", "2", "--trace",
                   str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            tag = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append("%s: exit code %d" % (tag, proc.returncode))
                continue
            host = json.loads(lines[0])
            result = json.loads(lines[-1])
            if set(host.get("host", {})) != HOST_KEYS or "seed" not in host:
                problems.append("%s: host line lacks %s" % (tag, HOST_KEYS))
            if not result["correct"]:
                problems.append("%s: wrong answer" % tag)
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append("%s: attempted %d, failed %d"
                                % (tag, result["attempted"], result["failed"]))
            print("%s: %d metrics, %d queries" % (tag, len(result["metrics"]),
                                                  result["attempted"]))
    for p in problems:
        print("perfbench smoke: " + p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("perfbench smoke: ok")


if __name__ == "__main__":
    main()
