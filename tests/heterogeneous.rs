//! Heterogeneous configurations: different machines on the two ends
//! (the paper's PCs talked to AlphaStations) and different semantics
//! at sender and receiver, including the Section 8 additivity claim.

use genie::{
    measure_latency, ExperimentSetup, HostId, OutputRequest, Semantics, World, WorldConfig,
};
use genie_machine::MachineSpec;
use genie_net::Vc;

/// One exchange with independently chosen sender/receiver semantics,
/// returning the measured latency in µs.
fn mixed_exchange(cfg: WorldConfig, s_out: Semantics, s_in: Semantics, len: usize) -> f64 {
    let mut world = World::new(cfg);
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
    let run_once = |world: &mut World, seed: u8| {
        let mut d = data.clone();
        d[0] = seed;
        world.quiesce();
        world
            .post_receive(HostId::B, rx, s_in, Vc(1), len, 0)
            .expect("prepost");
        let src = world.alloc_source(HostId::A, tx, s_out, &d).expect("src");
        world
            .output(HostId::A, OutputRequest::new(s_out, Vc(1), tx, src, len))
            .expect("output");
        world.run();
        let done = world.take_completed_inputs();
        assert_eq!(done.len(), 1);
        let c = done[0];
        let got = world.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
        assert_eq!(got, d, "{s_out} -> {s_in}");
        c.latency.as_us()
    };
    // Warm-up, then measure.
    run_once(&mut world, 1);
    run_once(&mut world, 2)
}

#[test]
fn pc_to_alpha_and_back_deliver_byte_exact_data() {
    // 4 KB pages on one side, 8 KB on the other.
    let cfg = WorldConfig {
        machines: vec![MachineSpec::micron_p166(), MachineSpec::alphastation_255()],
        ..WorldConfig::default()
    };
    for sem in Semantics::ALL {
        let lat = mixed_exchange(cfg.clone(), sem, sem, 12_000);
        assert!(lat > 0.0, "{sem}");
    }
}

#[test]
fn mixed_semantics_latency_is_additive() {
    // Section 8: latency with different semantics at each end equals
    // base + sender-side(s_out) + receiver-side(s_in). Check via
    // differences: swapping only the sender's semantics changes the
    // latency by the same amount regardless of the receiver's.
    let cfg = WorldConfig::default;
    let len = 32_768;
    let d_recv_copy = mixed_exchange(cfg(), Semantics::Copy, Semantics::Copy, len)
        - mixed_exchange(cfg(), Semantics::EmulatedShare, Semantics::Copy, len);
    let d_recv_emu = mixed_exchange(cfg(), Semantics::Copy, Semantics::EmulatedShare, len)
        - mixed_exchange(
            cfg(),
            Semantics::EmulatedShare,
            Semantics::EmulatedShare,
            len,
        );
    assert!(
        (d_recv_copy - d_recv_emu).abs() < 0.05 * d_recv_copy.abs().max(1.0),
        "sender-side delta must not depend on receiver semantics: {d_recv_copy:.1} vs {d_recv_emu:.1}"
    );
}

#[test]
fn faster_receiver_helps_receiver_bound_semantics_most() {
    let len = 61_440;
    // Copy semantics is receiver-bound (copyout); compare a slow
    // receiver against a fast one with the same sender.
    let slow = WorldConfig {
        machines: vec![MachineSpec::micron_p166(), MachineSpec::gateway_p5_90()],
        ..WorldConfig::default()
    };
    let fast = WorldConfig::default();
    let l_slow = mixed_exchange(slow, Semantics::Copy, Semantics::Copy, len);
    let l_fast = mixed_exchange(fast, Semantics::Copy, Semantics::Copy, len);
    // The Gateway's copyout is ~2.4x the P166's: ~1.9 ms extra.
    let delta = l_slow - l_fast;
    assert!(
        (1000.0..3500.0).contains(&delta),
        "slow receiver should add 1-3.5 ms of copyout: {delta:.0} us"
    );
}

#[test]
fn alpha_pages_change_the_granularity_not_the_data() {
    // Unaligned transfer into the Alpha's 8 KB pages via pooled
    // buffering: reverse copyout at a different page size.
    let mut setup = ExperimentSetup::pooled_aligned(MachineSpec::alphastation_255());
    setup.recv_page_off = genie_net::HEADER_LEN;
    for bytes in [5000usize, 8192, 20_000] {
        let lat = measure_latency(&setup, Semantics::EmulatedCopy, bytes).expect("measure");
        assert!(lat.as_us() > 0.0);
    }
}
