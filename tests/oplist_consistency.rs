//! Consistency between the declared operation tables (Tables 2–4, the
//! `genie::oplists` module) and what the executed data paths actually
//! charge. This pins the breakdown model (Table 7 "E" rows) to the
//! simulator: if a data path gains or loses an operation, this test
//! fails.

use std::collections::BTreeMap;

use genie::oplists::{self, OpUse};
use genie::{measure_latency_traced, ExperimentSetup, Semantics};
use genie_machine::{MachineSpec, Op};

/// Ops that belong to the base latency / housekeeping, not to the
/// per-semantics tables.
fn is_base_op(op: Op) -> bool {
    matches!(
        op,
        Op::OsFixedSend
            | Op::OsFixedRecv
            | Op::DeviceFixedSend
            | Op::DeviceFixedRecv
            | Op::DmaSetup
            | Op::CellTx
            | Op::CellRx
            | Op::Fault
            | Op::PageCopy
            | Op::ZeroFill
    )
}

fn expected_counts(sem: Semantics, scheme: &str) -> BTreeMap<Op, usize> {
    let mut lists: Vec<Vec<OpUse>> =
        vec![oplists::output_prepare(sem), oplists::output_dispose(sem)];
    match scheme {
        "early" => {
            lists.push(oplists::input_prepare_early(sem));
            lists.push(oplists::input_ready_early(sem));
            lists.push(oplists::input_dispose_early(sem));
        }
        "pooled-aligned" => {
            lists.push(oplists::input_prepare_early(sem));
            lists.push(oplists::input_ready_pooled(sem));
            lists.push(oplists::input_dispose_pooled(sem, true));
        }
        "pooled-unaligned" => {
            lists.push(oplists::input_prepare_early(sem));
            lists.push(oplists::input_ready_pooled(sem));
            lists.push(oplists::input_dispose_pooled(sem, false));
        }
        other => panic!("unknown scheme {other}"),
    }
    let mut counts = BTreeMap::new();
    for u in lists.into_iter().flatten() {
        *counts.entry(u.op).or_insert(0) += 1;
    }
    counts
}

fn measured_counts(sem: Semantics, scheme: &str, bytes: usize) -> BTreeMap<Op, usize> {
    let m = MachineSpec::micron_p166();
    let mut setup = match scheme {
        "early" => ExperimentSetup::early_demux(m),
        "pooled-aligned" => ExperimentSetup::pooled_aligned(m),
        "pooled-unaligned" => ExperimentSetup::pooled_unaligned(m),
        other => panic!("unknown scheme {other}"),
    };
    setup.genie = setup.genie.without_thresholds();
    let (_lat, trace, _) = measure_latency_traced(&setup, sem, bytes).expect("run");
    let mut counts = BTreeMap::new();
    for (op, s) in trace.charges() {
        if is_base_op(op) {
            continue;
        }
        // Reverse-copyout residue: with the PDU's header offset, the
        // aligned swap path copies a few bytes around the data (fill +
        // short tail). The paper's table lists only "swap pages" for
        // this case; exclude sub-page copy residue from the comparison.
        if op == Op::Copyout && s.bytes < 4096 {
            continue;
        }
        *counts.entry(op).or_insert(0) += 1;
    }
    counts
}

#[test]
fn executed_paths_charge_exactly_the_declared_ops() {
    // Page-multiple size so the aligned paths take pure swaps (the
    // tables' steady-state form) and zero-completion is empty.
    let bytes = 3 * 4096;
    for scheme in ["early", "pooled-aligned", "pooled-unaligned"] {
        for sem in Semantics::ALL {
            let want = expected_counts(sem, scheme);
            let got = measured_counts(sem, scheme, bytes);
            assert_eq!(
                want, got,
                "\nop mismatch for {sem} / {scheme}:\n want {want:?}\n got {got:?}"
            );
        }
    }
}

#[test]
fn short_data_conversion_changes_the_mix_to_copy() {
    // Below the output threshold, emulated copy's *output side* must
    // charge copy's ops (Copyin + system buffers).
    let m = MachineSpec::micron_p166();
    let setup = ExperimentSetup::early_demux(m); // thresholds on
    let (_lat, trace, _) =
        measure_latency_traced(&setup, Semantics::EmulatedCopy, 512).expect("run");
    let ops: Vec<Op> = trace.charges().map(|(op, _)| op).collect();
    assert!(ops.contains(&Op::Copyin), "should have converted to copy");
    assert!(
        !ops.contains(&Op::ReadOnly),
        "no TCOW arming below the threshold"
    );
}
