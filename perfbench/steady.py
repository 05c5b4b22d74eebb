#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark and report each end-to-end
metric's quartile spread against its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py --seeds 1-10 [--workloads read_bp,...]
    python3 perfbench/steady.py --seeds 7 --repeat 5   # one seed, 5 runs

For every workload the spread of a metric is (Q3 - Q1) / median over
the runs, with quartiles from statistics.quantiles(values, n=4).  A
metric is steady when its spread is below a third of its bound (setup_s
is exempt from the spread rule).  --out writes the medians, quartiles
and spreads as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("wrong answers: %s seed %d" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v, 4) for k, v in runs[-1].items()})),
                  file=sys.stderr, flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "ok": ok,
                          "values": values}
            print("%-12s %-26s median %12.5g  spread %6.3f  bound/3 %6.3f"
                  "  %s" % (workload, name, median, spread, bound / 3,
                            "ok" if ok else "UNSTEADY"))
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
