#!/usr/bin/env python3
"""Self-test of the benchmark, and the one command that runs all of it.

    python3 perfbench/selftest.py                          # toy size, 8 s
    python3 perfbench/selftest.py --scale full --seconds 30

Runs every workload untraced and traced (toy size: a few thousand rows)
and checks that each metric BENCHMARK.json names is printed with its
unit, that the result line is well formed, that every answer matched its
oracle digest, and that rpc_paged returned the same answers as
rpc_resident. Every run's output is passed through, so with --scale
full this is the whole benchmark for one seed, every metric printed.
Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(trace), "--scale", args.scale]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=1200)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("FAIL %s trace=%d: exit %d" %
                         (workload, trace, out.returncode))
    return out.stdout


def check(workload, trace, stdout, expected):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("FAIL %s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        raise SystemExit("FAIL %s trace=%d: %s" % (workload, trace, lines[-1]))
    printed = {}
    for line in lines:
        match = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = match.group(3)
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            raise SystemExit("FAIL %s trace=%d: metric %s not printed with "
                             "unit %s" % (workload, trace, name, unit))
        if result["metrics"].get(name, {}).get("unit") != unit:
            raise SystemExit("FAIL %s trace=%d: metric %s missing from the "
                             "result line" % (workload, trace, name))
    if len(result["metrics"]) != len(expected):
        raise SystemExit("FAIL %s trace=%d: result line has extra metrics" %
                         (workload, trace))
    digest = re.search(r"all_answers_digest=(\w+)", stdout)
    return digest.group(1) if digest else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("toy", "full"), default="toy")
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    answers = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            stdout = run(args, workload, trace)
            sys.stdout.write(stdout)
            answers[(workload, trace)] = check(workload, trace, stdout,
                                               expected)
            print("ok %s trace=%d" % (workload, trace))
    if answers[("rpc_paged", 0)] != answers[("rpc_resident", 0)]:
        raise SystemExit("FAIL rpc_paged answers differ from rpc_resident's")
    print("ok rpc_paged answers equal rpc_resident's")


if __name__ == "__main__":
    main()
