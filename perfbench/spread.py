#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed for each workload,
one run at a time, and prints for every end-to-end metric the median
of the runs and the distance between their first and third quartiles
as a share of that median, beside the metric's bound.

    python3 perfbench/spread.py [--seeds 1,2,3,4,5] [--workload NAME ...] [--seconds S]

Run it from the repository root. Exits 1 when a run fails or when a
spread other than setup_s's reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or manifest["run_seconds"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        walls = []
        for seed in seeds:
            result, wall = run_once(manifest["command"], workload, seed, seconds)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(seeds)} runs, {max(walls):.1f} s longest")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"  {name:14} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}  {'ok' if ok else 'WIDE'}"
                  f"  [{' '.join(f'{x:.4g}' for x in v)}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
