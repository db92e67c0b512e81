#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload oltp_read --seeds 10 [--trace 0]

Runs the command of BENCHMARK.json from the repository root once per
seed (seeds 1..N unless --first says otherwise) and prints, per metric,
the median, the first and third quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, plus the CPU steal each
run reported. The shares are what the benchmark's bounds are held to.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, steals = {}, []
    for seed in range(a.first, a.first + a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", a.trace,
        ]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        steal = re.search(r"cpu steal during run ([0-9.]+)", p.stdout)
        steals.append(float(steal.group(1)) if steal else float("nan"))
        print(f"seed {seed}: correct {res['correct']} attempted {res['attempted']} "
              f"failed {res['failed']} steal {steals[-1]:.2f} s", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{a.workload}: {len(steals)} runs, steal per run {steals}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of its bound"
        print(f"  {k:<28} median {med:14.3f}  q1 {q1:14.3f}  q3 {q3:14.3f}  "
              f"spread {spread:6.3f}  bound {bound}{flag}")
        print("      runs: " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
