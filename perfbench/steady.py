#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload N times, rotating the workload order from one round
to the next, with a new seed per round, and prints for each metric its
median, quartiles, quartile spread as a share of the median, and the
ratio of the medians of the first and second half of the runs. The
bounds in BENCHMARK.json are set from this output.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads stocks_drift --trace 1

Run from the root of the repository. Raw results go to
perfbench/out/steady-<trace>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first round")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    raw_path = os.path.join(ROOT, "perfbench", "out", f"steady-{args.trace}.jsonl")
    results = {w: [] for w in workloads}
    with open(raw_path, "w") as raw:
        for r in range(args.runs):
            order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
            for w in order:
                out = run(bench["command"], w, args.seed + r, args.seconds, args.trace)
                raw.write(json.dumps({"workload": w, "seed": args.seed + r, **out}) + "\n")
                raw.flush()
                results[w].append(out)
                print(f"round {r + 1}/{args.runs} {w}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']}", file=sys.stderr)

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {shares}")
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}{'1st/2nd':>9}  unit")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values) or len(values) < 2:
                print(f"  {name:<28} missing values")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            half = len(values) // 2
            m1 = statistics.median(values[:half])
            m2 = statistics.median(values[half:])
            spread = (q3 - q1) / med if med else float("nan")
            ratio = m1 / m2 if m2 else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{'' if bound is None else bound:>7}{ratio:>9.4f}  {first['unit']}")


if __name__ == "__main__":
    main()
