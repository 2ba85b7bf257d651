#!/usr/bin/env python3
"""hostbench entry point: build the simulator from source, then run it.

Run from the repository root:

  python3 hostbench/run.py --workload micro-1cu --seed 1 --seconds 20 --trace 0
  python3 hostbench/run.py --compare PARENT CHANGE

The first form configures and builds hostbench/ (the simulator library
from src/ plus the benchmark binary) under .bench_build/, then runs the
binary, whose last stdout line is the result object.  A traced run
(--trace 1) also writes .bench_build/hostbench-trace/<workload>-seed<N>.json.

The second form compares two traced outputs (files, or directories of
them paired by file name): per-layer self CPU time deltas, and every
deterministic count that moved.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "hostbench-trace")
# The binary budgets its own run; this only bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no simulator sources at src/; "
                 "run from the repository root")
    log = os.path.join(ROOT, ".bench_build", "hostbench-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                    ["cmake", "--build", BUILD, "-j", "4"]):
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                sys.exit("hostbench: build failed, see " + log)
    return os.path.join(BUILD, "hostbench")


def run(argv):
    binary = build()
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1" and "--trace-out" not in opts:
        os.makedirs(TRACE_DIR, exist_ok=True)
        name = "{}-seed{}.json".format(opts.get("--workload"),
                                       opts.get("--seed", "1"))
        args += ["--trace-out", os.path.join(TRACE_DIR, name)]
    try:
        return subprocess.run([binary] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: run exceeded {} s".format(RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


# Per-layer metrics that are simulation state: any change is a change in
# what was simulated, not in how fast.
TIMED = ("_s", "sim.ns_per_event")


def deterministic(metric):
    return not metric.endswith(TIMED)


def pairs(a, b):
    if os.path.isdir(a) and os.path.isdir(b):
        names = sorted(set(os.listdir(a)) & set(os.listdir(b)))
        return [(os.path.join(a, n), os.path.join(b, n))
                for n in names if n.endswith(".json")]
    return [(a, b)]


def load_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("hostbench: cannot read {}: {}".format(path, e))
    if doc.get("schema") != "hostbench-trace-v1":
        sys.exit("hostbench: {} is not a hostbench trace".format(path))
    return doc


def compare_one(pa, pb):
    a, b = load_trace(pa), load_trace(pb)
    moved = 0
    print("== {} (seed {}): {} vs {}".format(
        a["workload"], a["seed"], pa, pb))
    print("  cpu_s (traced)   {:10.4f} {:10.4f} {:+8.1%}".format(
        a["cpu_s"], b["cpu_s"], b["cpu_s"] / a["cpu_s"] - 1))
    print("  {:30s} {:>10s} {:>10s} {:>10s} {:>8s}".format(
        "self CPU s per pass, idle host", "parent", "change", "delta",
        "delta%"))
    sa, sb = a["self_cpu_s"], b["self_cpu_s"]
    for layer in list(sa) + [n for n in sb if n not in sa]:
        va, vb = sa.get(layer, 0.0), sb.get(layer, 0.0)
        pct = "{:+8.1%}".format(vb / va - 1) if va else "     new"
        print("  {:30s} {:10.4f} {:10.4f} {:+10.4f} {}".format(
            layer, va, vb, vb - va, pct))
    ma, mb = a["metrics"], b["metrics"]
    for name in ma:
        if not deterministic(name):
            continue
        va, vb = ma[name]["value"], mb.get(name, {}).get("value")
        if va != vb:
            moved += 1
            print("  MOVED {}: {} -> {}".format(name, va, vb))
    if a["digest"] != b["digest"]:
        moved += 1
        print("  MOVED digest: {} -> {}".format(a["digest"], b["digest"]))
        runs_b = {r["label"]: r for r in b["runs"]}
        for r in a["runs"]:
            other = runs_b.get(r["label"])
            if other != r:
                print("    run {}: {} -> {}".format(r["label"], r, other))
    if not moved:
        print("  every deterministic count and the digest are identical")
    return moved


def compare(a, b):
    found = pairs(a, b)
    if not found:
        sys.exit("hostbench: no traced outputs to pair in {} and {}"
                 .format(a, b))
    moved = sum(compare_one(pa, pb) for pa, pb in found)
    return 1 if moved else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare PARENT CHANGE")
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
