#!/usr/bin/env python3
"""Benchmark runner for the simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload n1_ckpt_restart --seed 1 --seconds 30 --trace 0

It builds perfbench/driver.cc against ../src into .bench_build/perfbench,
then starts the driver once per rep, each rep in a fresh process, until
--seconds have passed. Every rep of a run uses the same seed, so every rep
must print the same output digest. With --trace 0 the last stdout line
carries the end-to-end metrics (medians over reps); with --trace 1 the runner
alternates untraced and traced reps and reports the per-layer metrics, the
traced per-phase virtual-time split and the tracing overhead. Metric names
and units are the ones declared in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "tio_perfbench"
WORKLOADS = ("n1_ckpt_restart", "nn_create_storm", "cb_kernel_tor")
MIN_REPS = 3           # untraced reps per run, however long they take
MIN_TRACE_PAIRS = 2    # (untraced, traced) pairs per --trace 1 run
CHILD_TIMEOUT_S = 120  # a rep takes seconds; a hung one must not outlive the run


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "tio_perfbench"],
                   check=True, stdout=sys.stderr)


def rep(workload, seed, traced):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout)


def run_reps(workload, seed, seconds, with_traced):
    """Runs reps until `seconds` have passed; returns (untraced, traced)."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(rep(workload, seed, False))
        if with_traced:
            traced.append(rep(workload, seed, True))
        step = time.monotonic() - t0
        done = len(untraced) >= (MIN_TRACE_PAIRS if with_traced else MIN_REPS)
        if done and time.monotonic() - start + step > seconds:
            return untraced, traced


def median_of(reps, section, name):
    return statistics.median(r[section][name] for r in reps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    untraced, traced = run_reps(args.workload, args.seed, args.seconds, args.trace == 1)
    reps = untraced + traced

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = median_of(untraced, "host", m["name"])
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                metrics[name] = (median_of(traced, "host", "wall_s")
                                 - median_of(untraced, "host", "wall_s"))
            elif name in traced[0]["phases"]:
                metrics[name] = median_of(traced, "phases", name)
            else:
                metrics[name] = median_of(untraced, "layers", name)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # Same code, same seed: every rep, traced or not, must simulate the same
    # outputs. A digest that moves means nondeterminism, or tracing that
    # perturbs the simulation.
    digests = sorted({r["digest"] for r in reps})
    errors = sorted({r["error"] for r in reps if r["error"]})
    failed = sum(r["failed"] for r in reps)
    correct = len(digests) == 1 and not errors and failed == 0
    print(f"# {args.workload} seed={args.seed} reps={len(untraced)} traced_reps={len(traced)} "
          f"digest={','.join(digests)}")
    for e in errors:
        print(f"# error: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
