#!/usr/bin/env python3
"""Run one workload of the benchmark several times, each with its own seed,
and print every metric's median, quartiles and spread (Q3 - Q1 over the
median, quartiles as statistics.quantiles(values, n=4) gives them).

End-to-end metrics are flagged when their spread reaches a third of the
bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/summary.py --workload paper_sql --runs 10
    python3 perfbench/summary.py --workload cube_append --runs 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':42} {'unit':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    steady = True
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        flag = ""
        if name in bounds and not spread < bounds[name] / 3:
            flag = f"  >= bound/3 ({bounds[name] / 3:.3f})"
            steady = False
        print(f"{name:42} {units[name]:12} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
