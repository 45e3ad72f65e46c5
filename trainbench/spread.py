#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload, then
prints, per metric, the median and the inter-quartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound.
Run from the repository root:

    python3 trainbench/spread.py --seeds 10 [--first-seed 21] [--workload mlp-dp]

Each run lasts the benchmark's run_seconds and is untraced (--trace 0).
Every run's result line is appended to trainbench/out/spread.jsonl.
Exits 1 if a run fails or a spread reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs("trainbench/out", exist_ok=True)
    log = open("trainbench/out/spread.jsonl", "a")
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            log.flush()
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread >= bound / 3:
                flag = "  above a third of the bound"
            b = "-" if bound is None else f"{bound:.3f}"
            print(f"{w:13} {name:34} median {q2:14.6g}  spread {spread:7.4f}  bound {b}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
