//! Focused unit-level tests of the core data paths that the broad
//! integration matrix doesn't isolate: threshold conversion decisions,
//! dispose bookkeeping, completions, and ledger accounting.

use genie::{
    measure_latency_traced, ExperimentSetup, GenieConfig, HostId, InputRequest, OutputRequest,
    Semantics, World, WorldConfig,
};
use genie_machine::{MachineSpec, Op};
use genie_net::Vc;

fn world() -> World {
    World::new(WorldConfig::default())
}

#[test]
fn send_completion_reports_requested_and_effective_semantics() {
    let mut w = world();
    let tx = w.create_process(HostId::A);
    let src = w.alloc_buffer(HostId::A, tx, 4096, 0).expect("src");
    w.app_write(HostId::A, tx, src, &[1u8; 4096]).expect("fill");
    // 512 B < the 1666 B threshold: converts to copy.
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::EmulatedCopy, Vc(1), tx, src, 512),
    )
    .expect("output");
    w.run();
    let sends = w.take_completed_outputs();
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].requested, Semantics::EmulatedCopy);
    assert_eq!(sends[0].effective, Semantics::Copy);
    assert_eq!(sends[0].credit_stalls, 0);
}

#[test]
fn emulated_share_threshold_is_lower_than_emulated_copy_threshold() {
    let mut w = world();
    let tx = w.create_process(HostId::A);
    let src = w.alloc_buffer(HostId::A, tx, 4096, 0).expect("src");
    w.app_write(HostId::A, tx, src, &[1u8; 4096]).expect("fill");
    // 512 B: above emulated share's 280 B threshold -> stays in place.
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::EmulatedShare, Vc(1), tx, src, 512),
    )
    .expect("output");
    w.run();
    let sends = w.take_completed_outputs();
    assert_eq!(sends[0].effective, Semantics::EmulatedShare);
    // 100 B: below it -> copy.
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::EmulatedShare, Vc(1), tx, src, 100),
    )
    .expect("output");
    w.run();
    let sends = w.take_completed_outputs();
    assert_eq!(sends[0].effective, Semantics::Copy);
}

#[test]
fn frames_are_conserved_across_many_exchanges() {
    // No leak: after N full exchanges plus dispose, the free-frame
    // count returns to its steady state for app-allocated semantics.
    for sem in [
        Semantics::Copy,
        Semantics::EmulatedCopy,
        Semantics::EmulatedShare,
    ] {
        let mut w = world();
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let src = w.alloc_buffer(HostId::A, tx, 8192, 0).expect("src");
        let dst = w.alloc_buffer(HostId::B, rx, 8192, 0).expect("dst");
        let mut steady: Option<(usize, usize)> = None;
        for round in 0..6 {
            w.app_write(HostId::A, tx, src, &[round as u8 + 1; 8192])
                .expect("fill");
            w.input(HostId::B, InputRequest::app(sem, Vc(1), rx, dst, 8192))
                .expect("prepost");
            w.output(HostId::A, OutputRequest::new(sem, Vc(1), tx, src, 8192))
                .expect("output");
            w.run();
            let _ = w.take_completed_inputs();
            let now = (
                w.host(HostId::A).vm.phys.free_frames(),
                w.host(HostId::B).vm.phys.free_frames(),
            );
            if round >= 2 {
                match steady {
                    Some(s) => assert_eq!(s, now, "{sem} leaks frames at round {round}"),
                    None => steady = Some(now),
                }
            }
        }
    }
}

#[test]
fn ledger_busy_equals_sum_of_nondevice_charges() {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let (_lat, trace, _) =
        measure_latency_traced(&setup, Semantics::EmulatedCopy, 8192).expect("run");
    // Device-kind ops never contribute to CPU busy.
    let device: Vec<_> = trace
        .charges()
        .filter(|(op, _)| op.kind() == genie_machine::OpKind::Device)
        .collect();
    assert!(!device.is_empty(), "device ops should have been charged");
    let cpu_total: f64 = trace
        .charges()
        .filter(|(op, _)| op.kind() != genie_machine::OpKind::Device)
        .map(|(_, s)| s.dur.as_us())
        .sum();
    assert!(cpu_total > 0.0);
}

#[test]
fn receive_completion_latency_is_positive_and_bounded() {
    let mut w = world();
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let src = w.alloc_buffer(HostId::A, tx, 4096, 0).expect("src");
    let dst = w.alloc_buffer(HostId::B, rx, 4096, 0).expect("dst");
    w.app_write(HostId::A, tx, src, &[7u8; 4096]).expect("fill");
    w.input(
        HostId::B,
        InputRequest::app(Semantics::EmulatedShare, Vc(1), rx, dst, 4096),
    )
    .expect("prepost");
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::EmulatedShare, Vc(1), tx, src, 4096),
    )
    .expect("output");
    w.run();
    let done = w.take_completed_inputs();
    let c = done[0];
    // Must at least cross the wire (~245 us at 4 KB) and stay well
    // under a millisecond for a single 4 KB datagram.
    assert!(c.latency.as_us() > 240.0, "{:?}", c.latency);
    assert!(c.latency.as_us() < 1000.0, "{:?}", c.latency);
    assert_eq!(c.seq, 0);
    assert!(c.checksum_ok);
    assert!(c.region.is_none(), "app-allocated completion has no region");
}

#[test]
fn checksummed_exchange_verifies_end_to_end() {
    let cfg = WorldConfig {
        genie: GenieConfig {
            checksum: genie::ChecksumMode::Separate,
            ..GenieConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut w = World::new(cfg);
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let src = w.alloc_buffer(HostId::A, tx, 8192, 0).expect("src");
    let dst = w.alloc_buffer(HostId::B, rx, 8192, 0).expect("dst");
    w.app_write(HostId::A, tx, src, &[9u8; 8192]).expect("fill");
    w.input(
        HostId::B,
        InputRequest::app(Semantics::EmulatedCopy, Vc(1), rx, dst, 8192),
    )
    .expect("prepost");
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::EmulatedCopy, Vc(1), tx, src, 8192),
    )
    .expect("output");
    w.run();
    let done = w.take_completed_inputs();
    assert!(done[0].checksum_ok, "valid transfer must verify");
}

#[test]
fn share_race_is_caught_by_checksum() {
    // The Section 9 weak-semantics hazard made visible: with share
    // semantics, an overwrite between output and transmission corrupts
    // the data, and the checksum (computed at prepare time) catches it.
    let cfg = WorldConfig {
        genie: GenieConfig {
            checksum: genie::ChecksumMode::Separate,
            ..GenieConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut w = World::new(cfg);
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let src = w.alloc_buffer(HostId::A, tx, 8192, 0).expect("src");
    let dst = w.alloc_buffer(HostId::B, rx, 8192, 0).expect("dst");
    w.app_write(HostId::A, tx, src, &[1u8; 8192]).expect("fill");
    w.input(
        HostId::B,
        InputRequest::app(Semantics::Share, Vc(1), rx, dst, 8192),
    )
    .expect("prepost");
    w.output(
        HostId::A,
        OutputRequest::new(Semantics::Share, Vc(1), tx, src, 8192),
    )
    .expect("output");
    // Race: overwrite while "in flight".
    w.app_write(HostId::A, tx, src, &[2u8; 8192]).expect("race");
    w.run();
    let done = w.take_completed_inputs();
    assert!(
        !done[0].checksum_ok,
        "corrupted share transfer must fail verification"
    );
}

#[test]
fn oplists_cover_every_semantics_without_panic() {
    use genie::oplists;
    for s in Semantics::ALL {
        let _ = oplists::output_prepare(s);
        let _ = oplists::output_dispose(s);
        let _ = oplists::input_prepare_early(s);
        let _ = oplists::input_ready_early(s);
        let _ = oplists::input_dispose_early(s);
        let _ = oplists::input_ready_pooled(s);
        let _ = oplists::input_dispose_pooled(s, true);
        let _ = oplists::input_dispose_pooled(s, false);
    }
}

#[test]
fn recorded_fixed_ops_have_constant_cost() {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let (_l1, s1, _) = measure_latency_traced(&setup, Semantics::Copy, 4096).expect("run");
    let (_l2, s2, _) = measure_latency_traced(&setup, Semantics::Copy, 61_440).expect("run");
    let fixed = |trace: &genie::TraceSet, op: Op| {
        trace
            .charges()
            .find(|&(o, _)| o == op)
            .map(|(_, s)| s.dur)
            .expect("op present")
    };
    // Fixed OS costs do not scale with datagram size...
    assert_eq!(fixed(&s1, Op::OsFixedSend), fixed(&s2, Op::OsFixedSend));
    // ...while copies do.
    assert!(fixed(&s2, Op::Copyin) > fixed(&s1, Op::Copyin) * 10);
}
