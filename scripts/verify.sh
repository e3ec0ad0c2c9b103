#!/usr/bin/env bash
# Full verification gate: static checks, build, tests, and a
# determinism spot-check of the report binary (serial vs 4 threads must
# render byte-identical output).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

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
tmp_serial=$(mktemp) && tmp_par=$(mktemp)
tmp_metrics=$(mktemp) && tmp_trace=$(mktemp)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace"' EXIT
./target/release/report all --threads 1 >"$tmp_serial" 2>/dev/null
./target/release/report all --threads 4 >"$tmp_par" 2>/dev/null
cmp "$tmp_serial" "$tmp_par"
cmp "$tmp_serial" report_output.txt

echo "== cq saturation determinism (threads x faults) =="
# The CQ sweep reports simulated numbers only, so the rendered table
# must be byte-identical however many sweep threads run it, with the
# masked fault plan off and on.
tmp_cq=$(mktemp) && tmp_cq2=$(mktemp)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2"' EXIT
./target/release/report fabric --cq --threads 1 >"$tmp_cq" 2>/dev/null
./target/release/report fabric --cq --threads 4 >"$tmp_cq2" 2>/dev/null
cmp "$tmp_cq" "$tmp_cq2"
GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 1 >"$tmp_cq" 2>/dev/null
GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 4 >"$tmp_cq2" 2>/dev/null
cmp "$tmp_cq" "$tmp_cq2"

echo "== fabric golden (report fabric, --cq, faulted --cq, 20k --scale) =="
# Every fabric exhibit is simulated output, so the four runs together
# must match the committed golden byte for byte.
tmp_fabric=$(mktemp)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2" "$tmp_fabric"' EXIT
{
  ./target/release/report fabric --threads 1
  ./target/release/report fabric --cq --threads 1
  GENIE_CQ_FAULT_SEED=7 ./target/release/report fabric --cq --threads 1
  GENIE_SCALE_DATAGRAMS=20000 ./target/release/report fabric --scale
} >"$tmp_fabric" 2>/dev/null
cmp "$tmp_fabric" scripts/golden_fabric.txt || {
  echo "verify: fabric output drifted from scripts/golden_fabric.txt" >&2
  exit 1
}

echo "== metrics and trace smoke =="
./target/release/report --metrics >"$tmp_metrics" 2>/dev/null
grep -q '"host_a.busy_us"' "$tmp_metrics"
grep -q '"emulated copy"' "$tmp_metrics"
./target/release/report --trace "$tmp_trace" >/dev/null 2>&1
grep -q '"ph":"X"' "$tmp_trace"
grep -q '"process_name"' "$tmp_trace"

echo "== datapath microbench smoke =="
tmp_bench=$(mktemp)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2" "$tmp_fabric" "$tmp_bench"' EXIT
./target/release/datapath --quick --out "$tmp_bench" >/dev/null
grep -q '"datapath_ns"' "$tmp_bench"
grep -q '"crc32_60k"' "$tmp_bench"

echo "== simulated-latency golden guard (report --json vs committed golden) =="
# Host-performance work must never move a simulated number: the
# fault_stats and simulated-latency sections regenerated now have to
# match the committed golden exactly (wall-clock fields are excluded —
# they vary by machine, which is why BENCH_report.json itself is not
# committed).
tmp_json_dir=$(mktemp -d)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2" "$tmp_fabric" "$tmp_bench"; rm -rf "$tmp_json_dir"' EXIT
(cd "$tmp_json_dir" && "$OLDPWD/target/release/report" --json all --threads 1 >/dev/null 2>&1)
for section in fault_stats simulated_latency_60kb_us; do
  sed -n "/\"$section\"/,/}/p" "$tmp_json_dir/BENCH_report.json" >"$tmp_json_dir/got"
  sed -n "/\"$section\"/,/}/p" scripts/golden_simulated.json >"$tmp_json_dir/want"
  cmp "$tmp_json_dir/got" "$tmp_json_dir/want" || {
    echo "verify: $section drifted from scripts/golden_simulated.json" >&2
    exit 1
  }
done

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
  perf_dir=$(mktemp -d)
  trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2" "$tmp_fabric" "$tmp_bench"; rm -rf "$tmp_json_dir" "$perf_dir"' EXIT
  for i in 1 2 3; do
    (cd "$perf_dir" && "$OLDPWD/target/release/report" --json all --threads 1 >/dev/null 2>&1)
    cp "$perf_dir/BENCH_report.json" "$perf_dir/run$i.json"
  done
  # Two full bench runs: the gate takes the per-benchmark best, so a
  # load spike during one run cannot fake a regression.
  ./target/release/datapath --out "$perf_dir/dp1.json" >/dev/null
  ./target/release/datapath --out "$perf_dir/dp2.json" >/dev/null
  # One CQ saturation snapshot rides along informationally: the gate
  # prints knee drift against the baseline but never fails on it.
  (cd "$perf_dir" && "$OLDPWD/target/release/report" --json fabric --cq --threads 1 >/dev/null 2>&1)
  cp "$perf_dir/BENCH_report.json" "$perf_dir/cq.json"
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
smoke_dir=$(mktemp -d)
trap 'rm -f "$tmp_serial" "$tmp_par" "$tmp_metrics" "$tmp_trace" "$tmp_cq" "$tmp_cq2" "$tmp_fabric" "$tmp_bench"; rm -rf "$tmp_json_dir" "$smoke_dir"' EXIT
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
traced_ms=$(run_ms "$smoke_dir/traced1" env GENIE_TRACE="$smoke_dir/trace1.json" \
  GENIE_TRACE_SAMPLE=8 GENIE_TRACE_BUDGET=4096 ./target/release/report all --threads 1)
m=$(run_ms "$smoke_dir/traced2" env GENIE_TRACE="$smoke_dir/trace2.json" \
  GENIE_TRACE_SAMPLE=8 GENIE_TRACE_BUDGET=4096 ./target/release/report all --threads 1)
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

echo "verify: all checks passed"
