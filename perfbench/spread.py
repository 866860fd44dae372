#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

For every workload and metric this prints the median over the runs and the
interquartile range as a share of the median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --workloads gen-10k --runs 5 --first-seed 100

Each run's JSON result line is appended to ``--log`` when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--log", help="file to append each run's JSON line to")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    worst = 0.0
    for workload in workloads:
        values = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            line = proc.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {line}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs of {seconds}s)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:<30} median {median:>14.6f}  spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'!s:>5} {verdict}")
    if kind == "end_to_end":
        print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
