#!/usr/bin/env python3
"""Builds and runs the offered-load exchange benchmark (loadbench).

Run from the repository root:

  python3 loadbench/run.py --workload <name> --seed <n> --seconds <s> \
                           --trace <0|1>
  python3 loadbench/run.py --self-test

The first call configures and builds the load generator (a Release CMake
build of loadbench/ that compiles ../src) under .bench_build/loadbench;
later calls only check that the build is current. Build output goes to
stderr, so the last line of stdout is the load generator's JSON result. A
traced run writes its spans to .bench_build/loadbench/traces/<workload>.csv.

--self-test builds, runs the load generator's own check self-test (tiny
runs whose seeded defects must be caught), then runs every workload in
BENCHMARK.json for half a second in both trace modes and confirms that each
prints exactly the metrics BENCHMARK.json names, with their units.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loadbench")
BINARY = os.path.join(BUILD, "loadbench")


def build():
    """Configures (once) and builds the load generator; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def run_loadgen(workload, seed, seconds, trace, capture=False):
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", os.path.join(traces, workload + ".csv")]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def self_test():
    ok = subprocess.run([BINARY, "--self-test"]).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = run_loadgen(wl["name"], 1, 0.5, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append("last line is not a JSON object")
            if result:
                keys = {"correct", "attempted", "failed", "metrics"}
                if set(result) != keys:
                    problems.append("result keys are %s" % sorted(result))
                if result.get("correct") is not True or proc.returncode:
                    problems.append("run not correct (exit %d)"
                                    % proc.returncode)
                attempted = result.get("attempted")
                if not isinstance(attempted, int) or attempted < 1:
                    problems.append("attempted is not a positive integer")
                got = result.get("metrics", {})
                if set(got) != set(want):
                    problems.append("missing %s, unexpected %s" % (
                        sorted(set(want) - set(got)),
                        sorted(set(got) - set(want))))
                for name, unit in want.items():
                    m = got.get(name, {})
                    v = m.get("value")
                    if m.get("unit") != unit:
                        problems.append("%s has unit %r, want %r"
                                        % (name, m.get("unit"), unit))
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append("%s is not a finite number" % name)
                    elif trace == 0 and v == 0:
                        problems.append("end-to-end metric %s is 0" % name)
            verdict = ("; ".join(problems)
                       or "every metric printed with its unit")
            print("# self-test %-16s trace=%d: %s"
                  % (wl["name"], trace, verdict))
            ok = ok and not problems
    print("# self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        print("loadbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    sys.stdout.flush()
    proc = run_loadgen(args.workload, args.seed, args.seconds, args.trace)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
