#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload online_small --seed 1 --seconds 40 --trace 0

builds the driver from source into .bench_build/ (the first run compiles the
library; later runs only check it is up to date), runs one workload and
prints the driver's output. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (fingerprint, per-workload figures, per-phase detail), which
is also written to .bench_build/out/.

Repeat mode runs a workload N times on consecutive seeds and prints each
metric's median, quartiles and relative spread (q3 - q1) / median next to
its bound from BENCHMARK.json:

    python3 perfbench/run.py --workload bulk_full --seed 1 --seconds 40 --repeat 10

--selftest builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ("online_small", "bulk_full", "train_small")
# One driver run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    """HEAD's sha read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_driver(workload, seed, seconds, trace):
    """Runs the driver once; returns (stdout lines, result dict or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with code %d" % proc.returncode)
        return lines, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: driver printed no result line")
        return lines, None
    return lines, result


def spread_table(results, bounds):
    """Per metric: median, quartiles, relative spread and its bound."""
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds.get(name),
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(f)["end_to_end"]}
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        _, result = run_driver(args.workload, seed, args.seconds, args.trace)
        if result is None:
            return 1
        log("seed %d: correct=%s attempted=%d failed=%d" %
            (seed, result["correct"], result["attempted"], result["failed"]))
        results.append(result)
    rows = spread_table(results, bounds)
    print("%-28s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, row in rows.items():
        bound = row["bound"]
        flag = ""
        if (bound is not None and name != "setup_s"
                and row["spread"] > bound / 3):
            flag = "  > bound/3"
        print("%-28s %12.6g %12.6g %12.6g %7.2f%% %6s%s" %
              (name, row["median"], row["q1"], row["q3"], 100 * row["spread"],
               "-" if bound is None else "%g" % bound, flag))
    print(json.dumps({"workload": args.workload, "runs": len(results),
                      "all_correct": all(r["correct"] for r in results),
                      "metrics": rows}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds and print "
                             "each metric's median and spread")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    if args.repeat > 0:
        return repeat(args)
    lines, result = run_driver(args.workload, args.seed, args.seconds,
                               args.trace)
    if result is None:
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
