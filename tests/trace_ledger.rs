//! Trace ↔ ledger consistency: for every semantics, the per-op span
//! durations summed from the structured trace equal the cost ledger's
//! aggregate totals exactly, and the non-device spans account for all
//! of each host's busy time (100% coverage — the trace loses nothing).
//! The flight recorder's environment knobs are read by `report` only,
//! so setting them changes none of this.

use std::collections::BTreeMap;

use genie::{ExperimentSetup, Metric, Semantics, Track};
use genie_machine::{MachineSpec, Op, OpKind, SimTime};

/// Tracks carrying charged-operation spans (phases, point events and
/// the wire are bookkeeping layers above the ledger).
fn is_op_track(t: Track) -> bool {
    matches!(t, Track::Cpu | Track::Vm | Track::Adapter | Track::Overlap)
}

#[test]
fn trace_spans_reconcile_with_ledger_totals_for_every_semantics() {
    reconcile_every_semantics();
}

#[test]
fn trace_sampling_env_vars_leave_traced_rounds_complete() {
    std::env::set_var("GENIE_TRACE_SAMPLE", "8");
    std::env::set_var("GENIE_TRACE_BUDGET", "16");
    reconcile_every_semantics();
}

fn reconcile_every_semantics() {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    for &sem in Semantics::ALL.iter() {
        let (_, trace, metrics) =
            genie::measure_latency_traced(&setup, sem, 61_440).expect("traced exchange");
        for (owner, prefix) in [("host A", "host_a"), ("host B", "host_b")] {
            let events = &trace
                .owners
                .iter()
                .find(|(o, _)| *o == owner)
                .expect("owner present")
                .1;

            // Aggregate op spans: name -> (count, bytes, total dur).
            let mut agg: BTreeMap<&str, (u64, u64, SimTime)> = BTreeMap::new();
            let mut busy_from_spans = SimTime::ZERO;
            for e in events.iter().filter(|e| is_op_track(e.track)) {
                let slot = agg.entry(e.name).or_insert((0, 0, SimTime::ZERO));
                slot.0 += 1;
                slot.1 += e.bytes;
                slot.2 += e.dur;
                let op = e.op.expect("op-track span carries its op");
                assert_eq!(op.name(), e.name);
                if op.kind() != OpKind::Device {
                    busy_from_spans += e.dur;
                }
            }

            // Every charged op appears in the trace with the exact
            // ledger aggregates, and nothing else does.
            for op in Op::ALL.iter() {
                let name = op.name();
                let count = metrics.counter(&format!("{prefix}.ops.{name}.count"));
                let bytes = metrics.counter(&format!("{prefix}.ops.{name}.bytes"));
                let (t_count, t_bytes, t_dur) =
                    agg.get(name).copied().unwrap_or((0, 0, SimTime::ZERO));
                assert_eq!(t_count, count, "{sem} {owner}: {name} count");
                assert_eq!(t_bytes, bytes, "{sem} {owner}: {name} bytes");
                let total_us = match metrics.get(&format!("{prefix}.ops.{name}.total_us")) {
                    Some(Metric::Gauge(g)) => *g,
                    None => 0.0,
                    other => panic!("{sem} {owner}: {name} total_us is {other:?}"),
                };
                assert!(
                    (t_dur.as_us() - total_us).abs() < 1e-9,
                    "{sem} {owner}: {name} total {} != ledger {}",
                    t_dur.as_us(),
                    total_us
                );
            }

            // Non-device spans cover the host's entire busy time.
            let busy_us = match metrics.get(&format!("{prefix}.busy_us")) {
                Some(Metric::Gauge(g)) => *g,
                other => panic!("{sem} {owner}: busy_us is {other:?}"),
            };
            assert!(
                (busy_from_spans.as_us() - busy_us).abs() < 1e-9,
                "{sem} {owner}: spans cover {} us of {} us busy",
                busy_from_spans.as_us(),
                busy_us
            );
        }
    }
}
