#!/usr/bin/env python3
"""Wall-clock benchmark of the resilient framework on the Threads backend.

Builds the repository's src/ together with the benchmark runner
(perfbench/CMakeLists.txt, into .bench_build/perfbench) and runs one
workload:

    python3 perfbench/run.py --workload linreg-dense --seed 1 --seconds 30 --trace 0

The last stdout line is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Two more modes:

    --repeat N   steadiness: N runs per workload on seeds seed..seed+N-1
                 (--workload all for every workload), then each end-to-end
                 metric's median, quartiles, min, max and IQR/median
    --selftest   build and run the benchmark's helper unit tests

perfbench/README.md describes the metrics and the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("linreg-dense", "gmres-finish", "pagerank-ckpt")
# A runner process takes --seconds plus about ten seconds of set-up and probes.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures once, builds `target`, and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; "
                 "run from a full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def run_workload(exe, workload, seed, seconds, trace):
    """One runner process; returns (exit code, stdout). Stderr passes through."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        # On timeout, run() kills the runner and waits for it to end.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def steadiness(exe, workloads, seed, seconds, repeat):
    """Runs each workload `repeat` times and summarises every metric."""
    summary = {}
    for workload in workloads:
        values = {}
        for i in range(repeat):
            code, out = run_workload(exe, workload, seed + i, seconds, 0)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                sys.exit(f"perfbench: {workload} seed {seed + i} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {repeat} runs of {seconds} s, "
              f"seeds {seed}..{seed + repeat - 1}")
        print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'min':>12}{'max':>12}{'iqr/med':>9}")
        rows = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                         else (xs[0], xs[0], xs[0]))
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "min": min(xs), "max": max(xs),
                          "iqr_over_median": spread}
            print(f"  {name:<26}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{min(xs):>12.6g}{max(xs):>12.6g}{spread:>9.3f}")
        summary[workload] = rows
    print(json.dumps({"steadiness": summary}))


def main():
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark on the Threads backend.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all" and args.repeat < 1:
        parser.error("--workload all needs --repeat")
    exe = build("perfbench_runner")
    if args.repeat > 0:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        steadiness(exe, workloads, args.seed, args.seconds, args.repeat)
        return
    code, out = run_workload(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
