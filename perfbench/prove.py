#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload once per seed
and prints, per end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median) beside
the metric's bound from BENCHMARK.json.

    python3 perfbench/prove.py [--seeds 10] [--first-seed 1] [workload ...]

Run from the repository root. Runs go through perfbench/run.py with the
run length BENCHMARK.json sets, one after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    steady = True
    for wl in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit("%s seed %d failed:\n%s" % (wl, seed, out.stderr))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                steady = False
                print("%s seed %d: correct=%s failed=%d" %
                      (wl, seed, result["correct"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The summary's unscaled figures, for comparison.
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3 and parts[0].startswith("raw."):
                    values.setdefault(parts[0], []).append(float(parts[1]))
        print("== %s (%d seeds)" % (wl, args.seeds))
        raw = [{"name": "raw." + m["name"], "unit": m["unit"]}
               for m in declared if "raw." + m["name"] in values]
        for m in declared + raw:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print("  %-28s median %14.6g %-9s spread %.4f%s%s" % (
                m["name"], med, m["unit"], spread,
                "" if bound is None else "  bound %.2f" % bound, flag))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
