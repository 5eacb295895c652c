#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sched_list --seed 1 --trace 0
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (the repository's
libraries, `mdesc` and the benchmark program) into .bench_build/perfbench,
runs one workload and passes the program's output through: its last line is
the result object. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of the traced run.

--smoke runs every workload briefly in both modes and checks that each
metric BENCHMARK.json names is printed and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Every workload the benchmark program knows. BENCHMARK.json gates
# sched_list and sched_portfolio; the other two run on demand (README.md).
WORKLOADS = ("sched_list", "sched_portfolio", "compile_churn", "net_fleet")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; exits non-zero when sources are missing."""
    for rel in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "descriptions"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            log(f"missing {rel}: run from a full checkout of the repository")
            sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """Run the benchmark program once; returns (exit code, stdout text)."""
    workdir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT,
           "--mdesc", os.path.join(BUILD, "tools", "mdesc"),
           "--workdir", workdir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return p.returncode, p.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_once(name, 1, 2, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if rc == 0 else None
            except (IndexError, json.JSONDecodeError):
                result = None
            problems = []
            if result is None:
                problems.append(f"exit code {rc} or no result line")
            else:
                got = set(result["metrics"])
                if got != wanted[trace]:
                    problems.append(
                        f"missing {sorted(wanted[trace] - got)}, "
                        f"extra {sorted(got - wanted[trace])}")
                if not result["correct"] or result["failed"]:
                    problems.append(
                        f"correct={result['correct']} "
                        f"failed={result['failed']}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {name} trace={trace}: {status}")
            ok &= not problems
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required (or use --smoke)")
    rc, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    # A failed run prints no result line.
    (sys.stdout if rc == 0 else sys.stderr).write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
