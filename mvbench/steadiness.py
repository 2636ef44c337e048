#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady each metric is.

Usage (from the root of a checkout):

    python3 mvbench/steadiness.py [--workloads update_mix,...] [--seeds 1,2]
                                  [--seconds N] [--trace 0|1]

For every workload it runs the benchmark once per seed, one run at a time,
then prints each metric's median, first and third quartile
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. With
--trace 0 the spread is compared against the metric's bound from
BENCHMARK.json; a metric is flagged when its spread exceeds a third of it.
Runs that fail their correctness check are reported and make the script
exit non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seeds:
            result = run_once(bench["command"], workload, seed, args.seconds,
                              args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload} ({len(seeds)} seeds)")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8}")
        for name, vals in values.items():
            stats = spread(vals)
            if stats is None:
                print(f"  {name:36} {vals[0]:14.4f}")
                continue
            q1, median, q3, s = stats
            flag = ""
            if name in bounds:
                flag = (f"  bound {bounds[name]:.2f}" +
                        ("  WIDE" if s > bounds[name] / 3 and
                         name != "setup_s" else ""))
            print(f"  {name:36} {median:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{s:8.4f}{flag}  {units[name]}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
