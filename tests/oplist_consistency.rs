//! Consistency between the declared operation tables (Tables 2–4, the
//! `genie::oplists` module) and what the executed data paths actually
//! charge. This pins the breakdown model (Table 7 "E" rows) to the
//! simulator: if a data path gains or loses an operation, this test
//! fails.

use std::collections::BTreeMap;

use genie::oplists::{self, OpUse};
use genie::{measure_latency_traced, ExperimentSetup, Semantics};
use genie_machine::{MachineSpec, Op};
use genie_mem::Fnv64;

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
    let (_lat, trace, _) = measure_latency_traced(&scheme_setup(scheme), sem, bytes).expect("run");
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

/// A buffering scheme's experiment setup, thresholds off.
fn scheme_setup(scheme: &str) -> ExperimentSetup {
    let m = MachineSpec::micron_p166();
    let mut setup = match scheme {
        "early" => ExperimentSetup::early_demux(m),
        "pooled-aligned" => ExperimentSetup::pooled_aligned(m),
        "pooled-unaligned" => ExperimentSetup::pooled_unaligned(m),
        "outboard" => ExperimentSetup::outboard(m),
        other => panic!("unknown scheme {other}"),
    };
    setup.genie = setup.genie.without_thresholds();
    setup
}

/// The measured round's full charge sequence on both hosts, in order,
/// folded into one FNV-64 digest: each charge's op, bytes, units,
/// start and duration.
fn charge_digest(scheme: &str, sem: Semantics, bytes: usize) -> u64 {
    let (_lat, trace, _) = measure_latency_traced(&scheme_setup(scheme), sem, bytes).expect("run");
    let mut h = Fnv64::new();
    for (op, e) in trace.charges() {
        h.write(op.name().as_bytes());
        for v in [e.bytes, e.units, e.start.0, e.dur.0] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// `(scheme, bytes, digest per semantics in `Semantics::ALL` order)`.
/// 61,440 B is page-multiple (pure swaps, no zero-completion); 5,000 B
/// leaves a partial last page, so it covers zero-completion and the
/// reverse-copyout residue.
const CHARGE_PINS: [(&str, usize, [u64; 8]); 8] = [
    (
        "early",
        61440,
        [
            0xd6f8d04ef3905f59,
            0x98eea4dafb83655e,
            0xa0c96750b1b53020,
            0x6b9392cdd0d5521f,
            0xb019b8f89397bda6,
            0x86c1a9d1df702d35,
            0xf3810c4c69a70348,
            0x69888d97475bee28,
        ],
    ),
    (
        "early",
        5000,
        [
            0x87c4a7e8ad8f881c,
            0x3efa1550f8dc03a7,
            0xa609bafaf6c8e658,
            0x69511b168f374319,
            0xcd141ec7abde9b20,
            0xf8b265dd531f2788,
            0x25721576bc6c5e3c,
            0x8b09c9ae8d6a7f05,
        ],
    ),
    (
        "pooled-aligned",
        61440,
        [
            0x5bd3d931115fa12d,
            0x0ddf3309a244fe80,
            0xb69ac437cf9837b0,
            0x2aef7ec62a172722,
            0x01dd1011a2a39d64,
            0xab39790605a8b330,
            0xf0831fd9fec7efef,
            0x283df06acf3ef48c,
        ],
    ),
    (
        "pooled-aligned",
        5000,
        [
            0xa52aa04bdd256d24,
            0x4a760edceffee497,
            0xf4c329c68b0cd563,
            0x65898c44ea4e2724,
            0x001563d984046b5b,
            0xbfb1e8a4c1a32d66,
            0xf325e05bf535d57d,
            0x6a286a48eb54ee7f,
        ],
    ),
    (
        "pooled-unaligned",
        61440,
        [
            0x102f168cbe69152c,
            0x6552614981485f37,
            0xc59a3d69cb191ffd,
            0x682cc20a83a3a964,
            0x01dd1011a2a39d64,
            0xab39790605a8b330,
            0xf0831fd9fec7efef,
            0x283df06acf3ef48c,
        ],
    ),
    (
        "pooled-unaligned",
        5000,
        [
            0xa52aa04bdd256d24,
            0x989c7ea4c1b309d5,
            0x073bc8baaadb2c38,
            0xfa1e71e55ccbca37,
            0x001563d984046b5b,
            0xbfb1e8a4c1a32d66,
            0xf325e05bf535d57d,
            0x6a286a48eb54ee7f,
        ],
    ),
    (
        "outboard",
        61440,
        [
            0x375bc0dc9610693f,
            0x8e02d596abde2767,
            0x250ad3b3edb8be04,
            0x1981c59bd92e09a3,
            0x6ba438e6c0e52bb8,
            0x830b2fef052a9dd9,
            0x41a64e25bc2aa147,
            0xfafbe649fbc1c4fd,
        ],
    ),
    (
        "outboard",
        5000,
        [
            0x40e97f8ce801cda6,
            0xacef79f92c5f301d,
            0x7d52e1100e5b30ba,
            0xde0eff4bca79e7fe,
            0x577504151d6d6452,
            0xbade9c72b80f6d97,
            0xe059fc6b992132c8,
            0x994c2c0c450aec9f,
        ],
    ),
];

#[test]
fn every_measured_round_charges_its_pinned_sequence() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (scheme, bytes, want) in CHARGE_PINS {
        let digests = Semantics::ALL.map(|sem| charge_digest(scheme, sem, bytes));
        for (i, sem) in Semantics::ALL.into_iter().enumerate() {
            if digests[i] != want[i] {
                mismatches.push(format!("{scheme} / {sem} / {bytes} B"));
            }
        }
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        got.push(format!("    ({scheme:?}, {bytes}, [{}]),", hex.join(", ")));
    }
    assert!(
        mismatches.is_empty(),
        "charge sequence changed for:\n  {}\nmeasured pins:\n{}",
        mismatches.join("\n  "),
        got.join("\n")
    );
}
