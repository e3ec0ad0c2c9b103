#!/usr/bin/env python3
"""Builds the genie benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. The benchmark prints a readable summary
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pair_sweep", "star_fanin", "cq_rpc", "lossy_fanin"]


def revision():
    """The commit the checkout is at, read from .git without running git
    (git would search parent directories); 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("GENIE_"))
    if knobs:
        sys.exit("run.py: unset %s first; the benchmark runs the default "
                 "configuration" % ", ".join(knobs))

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: building the benchmark failed")

    cmd = [os.path.join(target, "release", "genie-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed % (1 << 64)),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--revision", revision()]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(target, "perfbench-spans")]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish in time")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
