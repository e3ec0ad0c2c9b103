#!/usr/bin/env bash
# Full verification gate: static checks, build, tests, and a
# determinism spot-check of the report binary (serial vs 4 threads must
# render byte-identical output).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temporary file and directory below lives under one scratch
# directory, removed on exit.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# A doc link to a renamed or deleted item is a warning; fail on it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== environment reads stay at the edge =="
# No library result may depend on the process environment: binaries
# parse the knobs and pass them down. The two standing exceptions are
# the crash-dump directory (a deployment path) and genie-model's
# test-harness seed knobs.
env_reads=$(grep -rn 'std::env::var' crates/*/src | grep -v \
  -e '^crates/[^/]*/src/bin/' \
  -e '^crates/core/src/crashdump\.rs:' \
  -e '^crates/model/src/kernel\.rs:' || true)
if [ -n "$env_reads" ]; then
  echo "verify: library code reads the environment (parse it in a binary):" >&2
  echo "$env_reads" >&2
  exit 1
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test --workspace -q

echo "== fault swarm smoke (20 seeds, full semantics x architecture grid) =="
GENIE_FAULT_SWARM_SEEDS=20 cargo test --release --test fault_swarm -q

echo "== model-differential smoke (50 seeds, full semantics x architecture grid) =="
GENIE_MODEL_SEEDS=50 cargo test --release --test model_differential -q

echo "== cq-differential and cq-property smoke (50 seeds each) =="
GENIE_MODEL_SEEDS=50 cargo test --release --test cq_differential -q
GENIE_CQ_PROP_SEEDS=50 cargo test --release --test cq_properties -q

echo "== parallel_fs example smoke (queue-pair API, self-checking) =="
cargo run --release --example parallel_fs >/dev/null

echo "== perfbench correctness smoke (four workloads, 2 s each) =="
./scripts/perfbench_smoke.sh

echo "== report determinism (serial vs 4 threads) =="
./target/release/report all --threads 1 >"$scratch/serial" 2>/dev/null
./target/release/report all --threads 4 >"$scratch/par" 2>/dev/null
cmp "$scratch/serial" "$scratch/par"
cmp "$scratch/serial" report_output.txt

echo "== cq saturation determinism (threads x faults) =="
# The CQ sweep reports simulated numbers only, so the rendered table
# must be byte-identical however many sweep threads run it, with the
# masked fault plan off and on.
./target/release/report fabric --cq --threads 1 >"$scratch/cq" 2>/dev/null
./target/release/report fabric --cq --threads 4 >"$scratch/cq2" 2>/dev/null
cmp "$scratch/cq" "$scratch/cq2"
GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 1 >"$scratch/cq" 2>/dev/null
GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 4 >"$scratch/cq2" 2>/dev/null
cmp "$scratch/cq" "$scratch/cq2"

echo "== fabric goldens (report fabric, --cq, faulted --cq, 20k --scale; fabric --metrics) =="
# Every fabric exhibit is simulated output, so the four runs together
# must match the committed golden byte for byte.
{
  ./target/release/report fabric --threads 1
  ./target/release/report fabric --cq --threads 1
  GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 1
  GENIE_SCALE_DATAGRAMS=20000 ./target/release/report fabric --scale
} >"$scratch/fabric" 2>/dev/null
cmp "$scratch/fabric" scripts/golden_fabric.txt || {
  echo "verify: fabric output drifted from scripts/golden_fabric.txt" >&2
  exit 1
}
# The flight-recorder view of the observed fan-in: per-VC rollups,
# per-port switch observation and the trace ledger, all simulated. The
# golden holds the default sampling, so the trace knobs are cleared.
env -u GENIE_TRACE_SAMPLE -u GENIE_TRACE_BUDGET \
  ./target/release/report fabric --metrics --threads 1 >"$scratch/fabric_metrics" 2>/dev/null
cmp "$scratch/fabric_metrics" scripts/golden_fabric_metrics.txt || {
  echo "verify: report fabric --metrics drifted from scripts/golden_fabric_metrics.txt" >&2
  exit 1
}

echo "== metrics and trace golden (report --metrics, report --trace) =="
# Both exports hold simulated numbers only, so a refactor that moves an
# op charge, a counter or a span shows up as a byte difference.
# Regenerate the goldens only for an intended change, and say why.
./target/release/report --metrics >"$scratch/metrics" 2>/dev/null
grep -q '"host_a.busy_us"' "$scratch/metrics"
grep -q '"emulated copy"' "$scratch/metrics"
cmp "$scratch/metrics" scripts/golden_metrics.json || {
  echo "verify: report --metrics drifted from scripts/golden_metrics.json" >&2
  exit 1
}
./target/release/report --trace "$scratch/trace" >/dev/null 2>&1
grep -q '"ph":"X"' "$scratch/trace"
grep -q '"process_name"' "$scratch/trace"
cmp "$scratch/trace" scripts/golden_trace.json || {
  echo "verify: report --trace drifted from scripts/golden_trace.json" >&2
  exit 1
}

echo "== datapath microbench smoke =="
./target/release/datapath --quick --out "$scratch/bench" >/dev/null
grep -q '"datapath_ns"' "$scratch/bench"
grep -q '"crc32_60k"' "$scratch/bench"
grep -q '"checksum16_60k"' "$scratch/bench"
grep -q '"tcow_write_fault"' "$scratch/bench"
grep -q '"series_reuse_emulated_move"' "$scratch/bench"

echo "== simulated-latency golden guard (report --json vs committed golden) =="
# Host-performance work must never move a simulated number: the
# fault_stats and simulated-latency sections regenerated now have to
# match the committed golden exactly (wall-clock fields are excluded —
# they vary by machine, which is why BENCH_report.json itself is not
# committed).
json_dir="$scratch/json"
mkdir "$json_dir"
(cd "$json_dir" && "$OLDPWD/target/release/report" --json all --threads 1 >/dev/null 2>&1)
for section in fault_stats simulated_latency_60kb_us; do
  sed -n "/\"$section\"/,/}/p" "$json_dir/BENCH_report.json" >"$json_dir/got"
  sed -n "/\"$section\"/,/}/p" scripts/golden_simulated.json >"$json_dir/want"
  cmp "$json_dir/got" "$json_dir/want" || {
    echo "verify: $section drifted from scripts/golden_simulated.json" >&2
    exit 1
  }
done

echo "== report --compare smoke (cq snapshot against itself, non-JSON input) =="
# One `report --json fabric --cq` snapshot, reused by the perf gate
# below. Compared against itself, every cq_saturation row must show a
# zero delta; a file that is not JSON must make --compare exit 2.
cmp_dir="$scratch/cmp"
mkdir "$cmp_dir"
(cd "$cmp_dir" && "$OLDPWD/target/release/report" --json fabric --cq --threads 1 >/dev/null 2>&1)
./target/release/report --compare "$cmp_dir/BENCH_report.json" "$cmp_dir/BENCH_report.json" >"$cmp_dir/cmp.txt"
grep -Eq '^  copy\.knee_depth +[0-9.]+ +[0-9.]+ +\+0\.000 ' "$cmp_dir/cmp.txt" || {
  echo "verify: report --compare printed no zero-delta copy.knee_depth row" >&2
  exit 1
}
echo 'not json at all' >"$cmp_dir/bad.json"
rc=0
./target/release/report --compare "$cmp_dir/bad.json" "$cmp_dir/BENCH_report.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || {
  echo "verify: report --compare on a non-JSON file exited $rc, not 2" >&2
  exit 1
}

echo "== perf regression gate (fresh minimums vs BENCH_baseline.json) =="
# Regenerates the datapath microbench and three serial report runs and
# compares their minimums against the committed baseline. Minimums, not
# means: on a shared machine the mean absorbs unrelated load spikes
# while the min tracks the code. GENIE_BENCH_TOL (percent, default 25)
# sets the failure threshold; CI passes 50 to ride out runner variance;
# GENIE_BENCH_TOL=skip disables the gate entirely.
if [ "${GENIE_BENCH_TOL:-25}" = "skip" ]; then
  echo "perf gate skipped (GENIE_BENCH_TOL=skip)"
else
  perf_dir="$scratch/perf"
  mkdir "$perf_dir"
  for i in 1 2 3; do
    (cd "$perf_dir" && "$OLDPWD/target/release/report" --json all --threads 1 >/dev/null 2>&1)
    cp "$perf_dir/BENCH_report.json" "$perf_dir/run$i.json"
  done
  # Two full bench runs: the gate takes the per-benchmark best, so a
  # load spike during one run cannot fake a regression.
  ./target/release/datapath --out "$perf_dir/dp1.json" >/dev/null
  ./target/release/datapath --out "$perf_dir/dp2.json" >/dev/null
  # The CQ saturation snapshot rides along informationally: the gate
  # prints knee drift against the baseline but never fails on it.
  cp "$cmp_dir/BENCH_report.json" "$perf_dir/cq.json"
  python3 scripts/perf_gate.py --baseline BENCH_baseline.json \
    --fresh "$perf_dir"/dp?.json --reports "$perf_dir"/run?.json \
    --cq "$perf_dir/cq.json" \
    --tol "${GENIE_BENCH_TOL:-25}"
fi

echo "== sampled-tracing overhead smoke (budgeted flight recorder vs untraced) =="
# The flight recorder at a hard ring budget must not perturb the
# report (byte-identical exhibits) and must stay cheap enough to live
# inside the perf gate: best-of-two traced runs within
# GENIE_TRACE_OVERHEAD_TOL percent (default 50) of best-of-two
# untraced runs. Wall time, so the minimum of two runs absorbs load
# spikes the same way the perf gate does.
smoke_dir="$scratch/smoke"
mkdir "$smoke_dir"
run_ms() { # run_ms OUT_FILE CMD... -> wall ms on stdout
  local out=$1 t0 t1
  shift
  t0=$(date +%s%N)
  "$@" >"$out" 2>/dev/null
  t1=$(date +%s%N)
  echo $(((t1 - t0) / 1000000))
}
base_ms=$(run_ms "$smoke_dir/plain1" ./target/release/report all --threads 1)
m=$(run_ms "$smoke_dir/plain2" ./target/release/report all --threads 1)
[ "$m" -lt "$base_ms" ] && base_ms=$m
traced_ms=$(run_ms "$smoke_dir/traced1" env GENIE_TRACE_SAMPLE=8 GENIE_TRACE_BUDGET=4096 \
  ./target/release/report all --threads 1 --trace "$smoke_dir/trace1.json")
m=$(run_ms "$smoke_dir/traced2" env GENIE_TRACE_SAMPLE=8 GENIE_TRACE_BUDGET=4096 \
  ./target/release/report all --threads 1 --trace "$smoke_dir/trace2.json")
[ "$m" -lt "$traced_ms" ] && traced_ms=$m
cmp "$smoke_dir/plain1" "$smoke_dir/traced1" || {
  echo "verify: sampled tracing perturbed the report output" >&2
  exit 1
}
grep -q '"ph":"X"' "$smoke_dir/trace1.json" || {
  echo "verify: sampled trace export is empty" >&2
  exit 1
}
[ "$base_ms" -gt 0 ] || base_ms=1
overhead=$(((traced_ms - base_ms) * 100 / base_ms))
echo "tracing overhead: untraced ${base_ms} ms, sampled+budgeted ${traced_ms} ms (${overhead}%)"
if [ "$overhead" -gt "${GENIE_TRACE_OVERHEAD_TOL:-50}" ]; then
  echo "verify: sampled tracing overhead ${overhead}% exceeds ${GENIE_TRACE_OVERHEAD_TOL:-50}%" >&2
  exit 1
fi

echo "== net line count (scripts/loc.sh) =="
./scripts/loc.sh

echo "verify: all checks passed"
