#!/usr/bin/env python3
"""Perf-regression gate: fresh bench minimums vs BENCH_baseline.json.

Usage:
  perf_gate.py --baseline BENCH_baseline.json --fresh FRESH.json...
               [--reports RUN.json ...] [--tol PCT] [--write-baseline]

Each FRESH.json is a BENCH_report.json whose datapath_ns section holds
{"mean": .., "min": ..} per benchmark; when several are given the
per-benchmark minimum across them is compared, so one load spike during
one bench run cannot fake a regression. --reports lists extra report
snapshots whose smallest total_wall_ms is used for the wall-time check.
Minimums are compared rather than means because on a shared machine the
mean absorbs unrelated load spikes while the min tracks the code.

Always prints the full delta table. Exits 1 when any fresh minimum
exceeds its baseline by more than --tol percent. Improvements never
fail the gate; after intentional perf work rerun with --write-baseline
to record the new minimums (the note and pr5_reference are preserved).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", nargs="+", required=True)
    ap.add_argument("--reports", nargs="*", default=[])
    # CQ snapshots are listed separately from --reports because their
    # total_wall_ms covers only the cq sweep and must not shrink the
    # report-all wall minimum.
    ap.add_argument("--cq", nargs="*", default=[])
    ap.add_argument("--tol", type=float, default=25.0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

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
    print(f"  {'benchmark':<28} {'baseline':>12} {'fresh':>12} {'delta':>8}")
    for name, base_min in base["datapath_ns"].items():
        entry = fresh_ns.get(name)
        if entry is None:
            fails.append(f"{name}: missing from fresh bench run")
            print(f"  {name:<28} {base_min:>10.0f}ns {'absent':>12}")
            continue
        fmin = entry["min"]
        delta = (fmin - base_min) / base_min * 100.0
        regressed = delta > args.tol
        if regressed:
            fails.append(f"{name}: min {fmin:.0f} ns vs baseline {base_min:.0f} ns "
                         f"(+{delta:.1f}% > {args.tol:.0f}%)")
        print(f"  {name:<28} {base_min:>10.0f}ns {fmin:>10.0f}ns {delta:>+7.1f}%"
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
