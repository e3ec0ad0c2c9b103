//! Threshold behaviour (paper Sections 5.2, 6 and Figure 5): automatic
//! conversion to copy semantics for short output, and reverse copyout
//! around the half-page point. Also the design trade-offs the
//! `ablations` exhibit sweeps: TCOW's overwrite cost (Section 5.1), the
//! reverse-copyout threshold (Section 5.2) and checksum integration
//! (Section 9).

use genie::{
    measure_latency, ChecksumMode, ExperimentSetup, GenieConfig, HostId, OutputRequest, Semantics,
    World, WorldConfig,
};
use genie_machine::MachineSpec;
use genie_net::Vc;

fn early() -> ExperimentSetup {
    ExperimentSetup::early_demux(MachineSpec::micron_p166())
}

#[test]
fn emulated_copy_tracks_copy_below_half_page() {
    // "emulated copy semantics had about the same latency as that of
    // copy semantics for data up to half page long".
    let setup = early();
    for bytes in [64usize, 256, 1024, 1536, 2048] {
        let c = measure_latency(&setup, Semantics::Copy, bytes).expect("copy");
        let e = measure_latency(&setup, Semantics::EmulatedCopy, bytes).expect("emu");
        let diff = (e.as_us() - c.as_us()).abs();
        assert!(
            diff < 0.05 * c.as_us().max(1.0) + 25.0,
            "{bytes}B: copy {c:?} vs emulated copy {e:?}"
        );
    }
}

#[test]
fn emulated_copy_splits_from_copy_above_half_page() {
    // "above that, reverse copyout and swapping significantly reduced
    // the latency of emulated copy relative to that of copy".
    let setup = early();
    for bytes in [3072usize, 4096, 8192] {
        let c = measure_latency(&setup, Semantics::Copy, bytes).expect("copy");
        let e = measure_latency(&setup, Semantics::EmulatedCopy, bytes).expect("emu");
        assert!(
            e.as_us() < c.as_us() - 20.0,
            "{bytes}B: emulated copy {e:?} should beat copy {c:?}"
        );
    }
}

#[test]
fn emulated_share_is_lowest_at_every_short_length() {
    // "Emulated share had, for all data lengths, the lowest latency".
    let setup = early();
    for bytes in [64usize, 512, 2048, 4096, 8192] {
        let share = measure_latency(&setup, Semantics::EmulatedShare, bytes).expect("m");
        for sem in Semantics::ALL {
            if sem == Semantics::EmulatedShare {
                continue;
            }
            let other = measure_latency(&setup, sem, bytes).expect("m");
            assert!(
                share <= other,
                "{bytes}B: emulated share {share:?} vs {sem} {other:?}"
            );
        }
    }
}

#[test]
fn gap_between_emulated_copy_and_share_is_maximal_at_half_page() {
    // "The difference ... was maximal at half page size: 325 vs 254".
    let setup = early();
    let gap = |b: usize| {
        let e = measure_latency(&setup, Semantics::EmulatedCopy, b).expect("m");
        let s = measure_latency(&setup, Semantics::EmulatedShare, b).expect("m");
        e.as_us() - s.as_us()
    };
    let at_half = gap(2048);
    assert!(gap(256) < at_half, "gap grows toward half page");
    assert!(gap(4096) < at_half, "gap shrinks past half page");
    // And the absolute values land near the paper's 325 vs 254.
    let e = measure_latency(&setup, Semantics::EmulatedCopy, 2048).expect("m");
    let s = measure_latency(&setup, Semantics::EmulatedShare, 2048).expect("m");
    assert!(
        (300.0..350.0).contains(&e.as_us()),
        "emulated copy at half page: {e:?} (paper: 325 us)"
    );
    assert!(
        (235.0..285.0).contains(&s.as_us()),
        "emulated share at half page: {s:?} (paper: 254 us)"
    );
}

#[test]
fn move_is_by_far_highest_for_short_datagrams() {
    // Zero-completing the rest of the page dominates (Figure 5).
    let setup = early();
    let mv = measure_latency(&setup, Semantics::Move, 64).expect("move");
    for sem in Semantics::ALL {
        if sem == Semantics::Move {
            continue;
        }
        let other = measure_latency(&setup, sem, 64).expect("m");
        assert!(
            mv.as_us() > other.as_us() + 80.0,
            "move {mv:?} must clearly trail {sem} {other:?}"
        );
    }
    // Region hiding spares emulated move the zeroing entirely.
    let emu = measure_latency(&setup, Semantics::EmulatedMove, 64).expect("m");
    assert!(mv.as_us() > emu.as_us() + 100.0);
}

#[test]
fn wiring_cost_separates_basic_from_emulated_in_place_semantics() {
    // "about 35 usec for the first page" of wire+unwire.
    let setup = early();
    let share = measure_latency(&setup, Semantics::Share, 4096).expect("m");
    let emu = measure_latency(&setup, Semantics::EmulatedShare, 4096).expect("m");
    let gap = share.as_us() - emu.as_us();
    assert!(
        (25.0..50.0).contains(&gap),
        "wire/unwire gap {gap:.1} us (paper: ~35 us)"
    );
}

#[test]
fn copy_has_the_most_rapidly_rising_latency() {
    let setup = early();
    let slope = |sem: Semantics| {
        let a = measure_latency(&setup, sem, 1024).expect("m").as_us();
        let b = measure_latency(&setup, sem, 8192).expect("m").as_us();
        (b - a) / (8192.0 - 1024.0)
    };
    let copy = slope(Semantics::Copy);
    for sem in Semantics::ALL {
        if sem == Semantics::Copy {
            continue;
        }
        assert!(
            copy > slope(sem),
            "copy's incremental cost must exceed {sem}'s"
        );
    }
}

#[test]
fn tcow_overwrite_during_output_costs_over_three_times_one_after() {
    // Section 5.1: overwriting a page whose output is still in flight
    // copies the page; once output completes the write fault merely
    // re-enables writing.
    let overwrite_us = |during_output: bool| {
        let mut w = World::new(WorldConfig::default());
        let p = w.create_process(HostId::A);
        let va = w.alloc_buffer(HostId::A, p, 4096, 0).expect("buffer");
        w.app_write(HostId::A, p, va, &[1u8; 4096]).expect("fill");
        w.output(
            HostId::A,
            OutputRequest::new(Semantics::EmulatedCopy, Vc(1), p, va, 4096),
        )
        .expect("output");
        if !during_output {
            w.run();
        }
        let before = w.host(HostId::A).clock;
        w.app_write(HostId::A, p, va, &[2u8; 4096])
            .expect("overwrite");
        (w.host(HostId::A).clock - before).as_us()
    };
    let (during, after) = (overwrite_us(true), overwrite_us(false));
    assert!(
        during > 3.0 * after,
        "overwrite during output {during:.1} us vs after {after:.1} us"
    );
}

#[test]
fn paper_reverse_copyout_threshold_beats_always_swap_and_always_copy() {
    // Section 5.2: swapping always (threshold 0) completes nearly a
    // whole page around tiny data; copying always (threshold 4095)
    // copies up to a whole page. The just-above-half-page setting
    // avoids both.
    let emulated_copy_us = |threshold: usize, bytes: usize| {
        let mut setup = early();
        setup.genie = GenieConfig {
            reverse_copyout_threshold: threshold,
            ..GenieConfig::default()
        };
        measure_latency(&setup, Semantics::EmulatedCopy, bytes)
            .expect("measure")
            .as_us()
    };
    let (paper, swap) = (emulated_copy_us(2178, 256), emulated_copy_us(0, 256));
    assert!(
        paper < swap,
        "256 B: threshold 2178 {paper:.0} us vs 0 {swap:.0} us"
    );
    let (paper, copy) = (emulated_copy_us(2178, 3584), emulated_copy_us(4095, 3584));
    assert!(
        paper <= copy,
        "3584 B: threshold 2178 {paper:.0} us vs 4095 {copy:.0} us"
    );
}

#[test]
fn separate_vm_pass_and_checksum_read_beat_fused_copy_checksum_at_60kb() {
    // Section 9: for long data, passing by VM manipulation and then
    // reading the data for the checksum costs less than one fused
    // copy-and-checksum pass.
    let checksummed_us = |mode: ChecksumMode, sem: Semantics| {
        let mut setup = early();
        setup.genie = GenieConfig {
            checksum: mode,
            ..GenieConfig::default()
        };
        measure_latency(&setup, sem, 61_440)
            .expect("measure")
            .as_us()
    };
    let vm_then_read = checksummed_us(ChecksumMode::Separate, Semantics::EmulatedCopy);
    let fused_copy = checksummed_us(ChecksumMode::Integrated, Semantics::Copy);
    assert!(
        vm_then_read < fused_copy,
        "VM pass + checksum read {vm_then_read:.0} us vs fused copy {fused_copy:.0} us"
    );
}
