#!/usr/bin/env python3
"""Perf-regression gate: fresh bench minimums vs BENCH_baseline.json.

Usage:
  perf_gate.py --baseline BENCH_baseline.json --fresh FRESH.json...
               [--reports RUN.json ...] [--tol PCT] [--write-baseline]
  perf_gate.py --ab PARENT_DATAPATH CHANGE_DATAPATH [--pairs N]
  perf_gate.py --ab-bench PARENT_ROOT CHANGE_ROOT [--workloads W ...]
               [--pairs N] [--seconds S]

Each FRESH.json is a BENCH_report.json whose datapath_ns section holds
{"mean": .., "min": ..} per benchmark; when several are given the
per-benchmark minimum across them is compared, so one load spike during
one bench run cannot fake a regression. --reports lists extra report
snapshots whose smallest total_wall_ms is used for the wall-time check.
Minimums are compared rather than means because on a shared machine the
mean absorbs unrelated load spikes while the min tracks the code.

Always prints the full delta table. Exits 1 when any fresh minimum
exceeds its baseline by more than --tol percent. The table also shows
box drift: crc32_60k's fresh/baseline ratio (a primitive whose code
has not changed since the baseline was taken, so its ratio measures
the machine, not the code) and a drift-adjusted delta column that
divides it out. Both are informational; the gate compares raw
minimums. Improvements never
fail the gate; after intentional perf work rerun with --write-baseline
to record the new minimums (the note and pr5_reference are preserved).

--ab compares two `datapath` binaries instead, informationally: it runs
N pairs of fresh processes (default 10), the parent first in odd pairs
and the change first in even ones, so box drift falls on both sides
alike. Per primitive it prints the median over pairs of the
change/parent ratio of run minimums, how many pairs the change won, and
the parent's own spread: the distance between the quartiles of its
minimums, relative to their median. A median ratio beyond that spread
reads "improved" or "regressed"; anything inside it is "within noise".
It never fails and never touches the baseline.

--ab-bench compares two checkouts on the end-to-end benchmark that
BENCHMARK.json declares (read from this script's checkout, never
written). Per pair and workload it runs `python3 ROOT/perfbench/run.py
--workload W --seed k --seconds S --trace 0` fresh in each checkout,
the parent first in odd pairs, with the GENIE_* knobs and
CARGO_TARGET_DIR cleared (each checkout builds into its own
.bench_build). Each run's last stdout line is its JSON result; a run
that is not correct or has failed > 0 is flagged. Per (workload,
metric) it prints the parent's median and quartiles, the change's
median, change/parent, the pairs the change won, and a verdict against
the metric's BENCHMARK.json bound: "within bound", "worse than bound",
or "unresolved" when the parent's own quartile spread exceeds the
bound. S defaults to run_seconds. Exits 1 on a flagged run or a
"worse than bound" verdict. Beside it, informationally, a bootstrap 95%
interval on the change/parent ratio of medians (resampling the pairs
with replacement, seeded, so a rerun on the same numbers prints the
same interval) and a change verdict worded as criterion words it:
"improved" or "regressed" when the whole interval lies on one side of
1, else "change within noise threshold". Last comes the rule a claimed
gain must meet: "gain" when the change won at least 9 in 10 of the
pairs and its median is better than the parent's by more than the
distance between the parent's quartiles, else "no gain".
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

# The box-drift probe: a pure CRC over 60 KB whose code the simulator's
# changes do not touch, so its fresh/baseline ratio is the machine's.
DRIFT_PROBE = "crc32_60k"
# Bootstrap resamples behind --ab-bench's interval on the median ratio.
BOOTSTRAP_RESAMPLES = 2000


def load(path):
    with open(path) as f:
        return json.load(f)


def datapath_mins(binary, out):
    """Runs one fresh `datapath` process; returns its minimum per primitive."""
    subprocess.run([binary, "--out", out], check=True, stdout=subprocess.DEVNULL)
    return {name: e["min"] for name, e in load(out)["datapath_ns"].items()}


def ab(parent, change, pairs):
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(1, pairs + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for side in order:
                binary = parent if side == "parent" else change
                out = os.path.join(tmp, f"{side}{pair}.json")
                runs[side].append(datapath_mins(binary, out))
    print(f"perf gate --ab: {pairs} interleaved pairs, parent {parent}, change {change}")
    print(f"  {'benchmark':<28} {'parent med':>12} {'change/parent':>14} "
          f"{'wins':>6} {'parent IQR':>11}  verdict")
    for name in runs["parent"][0]:
        base = [r[name] for r in runs["parent"]]
        ratios = [c[name] / p[name] for p, c in zip(runs["parent"], runs["change"])]
        wins = sum(r < 1 for r in ratios)
        ratio = statistics.median(ratios)
        q1, _, q3 = statistics.quantiles(base, n=4)
        spread = (q3 - q1) / statistics.median(base)
        verdict = ("regressed" if ratio > 1 + spread
                   else "improved" if ratio < 1 - spread else "within noise")
        print(f"  {name:<28} {statistics.median(base) / 1e3:>10.1f}us {ratio:>14.3f} "
              f"{wins:>3}/{pairs:<2} {spread:>10.1%}  {verdict}")
    return 0


def bench_run(root, workload, seed, seconds):
    """One fresh perfbench run in checkout `root`; returns its JSON result."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GENIE_") and k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": -1, "metrics": {}}


def median_ratio_interval(pairs_ok):
    """Bootstrap 95% interval of median(change) / median(parent) over
    (parent, change) pairs, resampled with replacement from a fixed seed."""
    rng = random.Random(0)
    n = len(pairs_ok)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        sample = [pairs_ok[rng.randrange(n)] for _ in range(n)]
        base = statistics.median(p for p, _ in sample)
        if base:
            ratios.append(statistics.median(c for _, c in sample) / base)
    if not ratios:
        return float("nan"), float("nan")
    ratios.sort()
    return ratios[int(0.025 * len(ratios))], ratios[int(0.975 * len(ratios)) - 1]


def change_verdict(lo, hi, higher):
    """Criterion's wording for an interval on the change/parent ratio."""
    if lo > 1 or hi < 1:
        return "improved" if (lo > 1) == higher else "regressed"
    return "change within noise threshold"


def gain_verdict(wins, n, med, new_med, q1, q3, higher):
    """The claim rule: at least 9/10 wins, and a median better than the
    parent's by more than the parent's interquartile distance."""
    better = (new_med - med) if higher else (med - new_med)
    return "gain" if 10 * wins >= 9 * n and better > q3 - q1 else "no gain"


def ab_bench(parent, change, workloads, pairs, seconds, bench):
    roots = {"parent": parent, "change": change}
    runs = {(w, side): [] for w in workloads for side in roots}
    flagged = []
    for pair in range(1, pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for w in workloads:
            for side in order:
                r = bench_run(roots[side], w, pair, seconds)
                if not r.get("correct") or r.get("failed", 0) != 0:
                    flagged.append(f"{side} {w} seed {pair}: correct={r.get('correct')} "
                                   f"failed={r.get('failed')}")
                runs[(w, side)].append({k: m["value"] for k, m in r.get("metrics", {}).items()})
                print(f"  pair {pair}/{pairs} {w} {side} done", file=sys.stderr, flush=True)
    worse = 0
    print(f"perf gate --ab-bench: {pairs} interleaved pairs of {seconds:g} s runs, "
          f"parent {parent}, change {change}")
    print(f"  {'workload':<12} {'metric':<12} {'parent med':>11} {'q1':>10} {'q3':>10} "
          f"{'change med':>11} {'ratio':>6} {'ratio 95% ci':>15} {'wins':>6} {'bound':>6}  "
          f"verdict; change; claim")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            pairs_ok = [(p[name], c[name]) for p, c in
                        zip(runs[(w, "parent")], runs[(w, "change")])
                        if name in p and name in c]
            if len(pairs_ok) < 2:
                print(f"  {w:<12} {name:<12} {'absent':>11}")
                continue
            base = [p for p, _ in pairs_ok]
            new = [c for _, c in pairs_ok]
            med, new_med = statistics.median(base), statistics.median(new)
            q1, _, q3 = statistics.quantiles(base, n=4)
            ratio = new_med / med if med else float("nan")
            wins = sum((c > p) if higher else (c < p) for p, c in pairs_ok)
            spread = (q3 - q1) / med if med else float("inf")
            loss = (1 - ratio) if higher else (ratio - 1)
            if spread > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse than bound"
                worse += 1
            else:
                verdict = "within bound"
            lo, hi = median_ratio_interval(pairs_ok)
            ci = f"[{lo:.3f}, {hi:.3f}]"
            print(f"  {w:<12} {name:<12} {med:>11.4g} {q1:>10.4g} {q3:>10.4g} {new_med:>11.4g} "
                  f"{ratio:>6.3f} {ci:>15} {wins:>3}/{len(pairs_ok):<2} {bound:>6.0%}  "
                  f"{verdict}; {change_verdict(lo, hi, higher)}; "
                  f"{gain_verdict(wins, len(pairs_ok), med, new_med, q1, q3, higher)}")
    for f in flagged:
        print(f"  FLAGGED RUN: {f}")
    return 1 if flagged or worse else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ab", nargs=2, metavar=("PARENT_DATAPATH", "CHANGE_DATAPATH"))
    ap.add_argument("--ab-bench", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--baseline")
    ap.add_argument("--fresh", nargs="+")
    ap.add_argument("--reports", nargs="*", default=[])
    # CQ snapshots are listed separately from --reports because their
    # total_wall_ms times a different plan: the CQ sweep, the observed
    # fan-in, the Figure 3 grid and the fault-stats exchanges, not
    # report all's exhibits, so it must not enter the report-all wall
    # minimum.
    ap.add_argument("--cq", nargs="*", default=[])
    ap.add_argument("--tol", type=float, default=25.0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    if (args.ab or args.ab_bench) and args.pairs < 2:
        ap.error("--pairs needs at least 2 pairs for quartiles")
    if args.ab:
        return ab(*args.ab, args.pairs)
    if args.ab_bench:
        bench = load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                  "BENCHMARK.json"))
        known = [w["name"] for w in bench["workloads"]]
        workloads = args.workloads or known
        unknown = [w for w in workloads if w not in known]
        if unknown:
            ap.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has "
                     f"{', '.join(known)}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        return ab_bench(*args.ab_bench, workloads, args.pairs, seconds, bench)
    if not (args.baseline and args.fresh):
        ap.error("--baseline and --fresh are required without --ab")

    base = load(args.baseline)
    fresh_ns = {}
    for p in args.fresh:
        for name, entry in load(p).get("datapath_ns", {}).items():
            prev = fresh_ns.get(name)
            if prev is None or entry["min"] < prev["min"]:
                fresh_ns[name] = entry

    walls = []
    for p in args.fresh + args.reports:
        w = load(p).get("total_wall_ms")
        if w is not None:
            walls.append(w)
    fresh_wall = min(walls) if walls else None

    fails = []
    print(f"perf gate: tolerance {args.tol:.0f}% "
          "(GENIE_BENCH_TOL adjusts it; GENIE_BENCH_TOL=skip skips the gate)")
    drift = None
    drift_base = base["datapath_ns"].get(DRIFT_PROBE)
    drift_fresh = fresh_ns.get(DRIFT_PROBE, {}).get("min")
    if drift_base and drift_fresh:
        drift = drift_fresh / drift_base
        print(f"  box drift: {DRIFT_PROBE} fresh/baseline {drift:.3f} "
              "(informational; 'adj' divides it out, the gate does not)")
    print(f"  {'benchmark':<28} {'baseline':>12} {'fresh':>12} {'delta':>8} {'adj':>8}")
    for name, base_min in base["datapath_ns"].items():
        entry = fresh_ns.get(name)
        if entry is None:
            fails.append(f"{name}: missing from fresh bench run")
            print(f"  {name:<28} {base_min:>10.0f}ns {'absent':>12}")
            continue
        fmin = entry["min"]
        delta = (fmin - base_min) / base_min * 100.0
        adj = (f"{(fmin / drift - base_min) / base_min * 100.0:>+7.1f}%"
               if drift else f"{'-':>8}")
        regressed = delta > args.tol
        if regressed:
            fails.append(f"{name}: min {fmin:.0f} ns vs baseline {base_min:.0f} ns "
                         f"(+{delta:.1f}% > {args.tol:.0f}%)")
        print(f"  {name:<28} {base_min:>10.0f}ns {fmin:>10.0f}ns {delta:>+7.1f}% {adj}"
              f"{'  REGRESSION' if regressed else ''}")

    base_wall = base.get("total_wall_ms")
    if base_wall is not None and fresh_wall is not None:
        delta = (fresh_wall - base_wall) / base_wall * 100.0
        regressed = delta > args.tol
        if regressed:
            fails.append(f"report-all wall: {fresh_wall:.1f} ms vs baseline "
                         f"{base_wall:.1f} ms (+{delta:.1f}% > {args.tol:.0f}%)")
        print(f"  {'report_all_wall':<28} {base_wall:>10.1f}ms {fresh_wall:>10.1f}ms "
              f"{delta:>+7.1f}%{'  REGRESSION' if regressed else ''}")

    # Scale-tier gate: any fresh snapshot carrying a "scale" section
    # (from `report --json fabric --scale`) is checked against the
    # fabric_scale baseline's wall ceiling. The ceiling applies only at
    # the baseline's datagram count (CI smoke runs shrink
    # GENIE_SCALE_DATAGRAMS).
    sbase = base.get("fabric_scale")
    if sbase:
        for p in args.fresh + args.reports:
            scale = load(p).get("scale")
            if not scale:
                continue
            cores = scale.get("cores", 1)
            print(f"  scale tier [{p}]: {scale.get('datagrams_total', 0):.0f} datagrams "
                  f"on {cores:.0f} cores, wall {scale.get('wall_total_s', 0):.2f} s")
            wall_max = sbase.get("wall_total_s_max")
            if (wall_max is not None
                    and scale.get("datagrams_total") == sbase.get("datagrams_total")
                    and scale.get("wall_total_s") is not None):
                w = scale["wall_total_s"]
                regressed = w > wall_max
                if regressed:
                    fails.append(f"scale wall: {w:.2f} s vs ceiling {wall_max:.2f} s")
                print(f"  {'scale_wall_total':<28} {wall_max:>10.2f}s {w:>10.2f}s"
                      f"{'  REGRESSION' if regressed else ''}")

    # CQ saturation knees: any fresh snapshot carrying a
    # "cq_saturation" section (from `report --json fabric --cq`) is
    # compared against the baseline knees informationally. The numbers
    # are simulated and machine-independent, but a drifted knee is a
    # semantics-cost change to review, not a perf regression — so it
    # prints, and never fails the gate.
    cq_base = base.get("cq_saturation")
    if cq_base:
        for p in args.cq + args.fresh + args.reports:
            cq = load(p).get("cq_saturation")
            if not cq:
                continue
            print(f"  cq saturation knees [{p}] (informational):")
            print(f"  {'semantics':<28} {'base knee':>10} {'fresh':>10} "
                  f"{'base mbps':>10} {'fresh':>10}")
            for sem, bdepth in cq_base.get("knee_depth", {}).items():
                fdepth = cq.get(f"{sem}.knee_depth")
                bmbps = cq_base.get("knee_mbps", {}).get(sem)
                fmbps = cq.get(f"{sem}.knee_mbps")
                drift = (fdepth is not None and fdepth != bdepth) or (
                    bmbps is not None and fmbps is not None
                    and abs(fmbps - bmbps) > 1e-9)
                print(f"  {sem:<28} {bdepth:>10.0f} "
                      f"{fdepth if fdepth is not None else float('nan'):>10.0f} "
                      f"{bmbps:>10.3f} "
                      f"{fmbps if fmbps is not None else float('nan'):>10.3f}"
                      f"{'  DRIFT (review; refresh baseline if intended)' if drift else ''}")
            break

    pr5 = base.get("pr5_reference", {})
    pr5_ex = pr5.get("exchange_60k_copy_ns")
    ex = fresh_ns.get("exchange_60k_copy", {}).get("min")
    if pr5_ex and ex:
        print(f"  speedup vs PR-5: exchange_60k_copy {pr5_ex / ex:.2f}x "
              f"({pr5_ex:.0f} ns -> {ex:.0f} ns)")
    pr5_wall = pr5.get("report_all_serial_wall_ms")
    if pr5_wall and fresh_wall:
        print(f"  speedup vs PR-5: report all (serial) {pr5_wall / fresh_wall:.2f}x "
              f"({pr5_wall:.1f} ms -> {fresh_wall:.1f} ms)")

    if args.write_baseline:
        base["datapath_ns"] = {k: v["min"] for k, v in fresh_ns.items()}
        if fresh_wall is not None:
            base["total_wall_ms"] = fresh_wall
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=2)
            f.write("\n")
        print(f"perf gate: baseline rewritten from fresh minimums -> {args.baseline}")
        return 0

    if fails:
        print("perf gate: REGRESSION detected:", file=sys.stderr)
        for f in fails:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
