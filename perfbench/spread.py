#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload diagnose-http --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of that median, next to the metric's bound from
BENCHMARK.json and a third of it (the target a steady benchmark meets).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())
        ), flush=True)
    print(f"\n{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6} {'bound/3':>8}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        b = bounds.get(name)
        flag = "" if b is None or spread < b / 3 else "  <-- not steady"
        bs = "" if b is None else f"{b:6.3f} {b / 3:8.4f}"
        print(f"{name:32} {med:14.6g} {spread:11.4f} {bs}{flag}")


if __name__ == "__main__":
    main()
