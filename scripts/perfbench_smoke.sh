#!/usr/bin/env bash
# Correctness smoke of the repo benchmark: runs each named workload (all
# four by default) for 2 s untraced at seed 1 and fails unless the
# summary line reports a correct run with no failed operations. The
# benchmark verifies every payload, checks exactly-once completions and
# that the switch drained at quiesce, which in release builds is the
# only check that catches a stranded output port.
#
#   scripts/perfbench_smoke.sh [WORKLOAD...]
set -euo pipefail
cd "$(dirname "$0")/.."

# run.py refuses GENIE_* variables (it measures the default
# configuration), so clear them for the benchmark only.
for v in $(compgen -e); do
  case $v in GENIE_*) unset "$v" ;; esac
done

[ $# -gt 0 ] || set -- pair_sweep star_fanin cq_rpc lossy_fanin
for wl in "$@"; do
  summary=$(python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  python3 - "$wl" "$summary" <<'EOF'
import json, sys
wl, line = sys.argv[1], sys.argv[2]
r = json.loads(line)
ok = r.get("correct") is True and r.get("failed") == 0
print("perfbench %s: correct=%s failed=%s attempted=%s"
      % (wl, r.get("correct"), r.get("failed"), r.get("attempted")))
sys.exit(0 if ok else 1)
EOF
done
