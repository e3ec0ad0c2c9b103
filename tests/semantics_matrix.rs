//! The full matrix: every semantics crossed with every input-buffering
//! architecture and several sizes/alignments, checking delivery
//! integrity (done inside the sweep drivers) and the paper's
//! cross-cutting performance orderings.

use genie::{latency_sweep, measure_latency, ExperimentSetup, Semantics};
use genie_machine::MachineSpec;

fn setups() -> Vec<(&'static str, ExperimentSetup)> {
    let m = MachineSpec::micron_p166;
    vec![
        ("early", ExperimentSetup::early_demux(m())),
        ("pooled-aligned", ExperimentSetup::pooled_aligned(m())),
        ("pooled-unaligned", ExperimentSetup::pooled_unaligned(m())),
        ("outboard", ExperimentSetup::outboard(m())),
    ]
}

#[test]
fn every_combination_delivers_correct_data() {
    // `latency_sweep` asserts byte-exact delivery internally; this is
    // 8 semantics x 4 schemes x 4 sizes = 128 verified exchanges.
    let sizes = [64usize, 4096, 5000, 20_480];
    for (name, setup) in setups() {
        for sem in Semantics::ALL {
            let pts = latency_sweep(&setup, sem, &sizes);
            assert_eq!(pts.len(), sizes.len(), "{name}/{sem}");
            for w in pts.windows(2) {
                assert!(
                    w[1].latency > w[0].latency,
                    "{name}/{sem}: latency must grow with size"
                );
            }
        }
    }
}

#[test]
fn copy_is_distinctly_worst_everywhere() {
    // The paper's headline: only copy semantics has distinctly
    // inferior performance; the rest cluster.
    for (name, setup) in setups() {
        let mut lat = Vec::new();
        for sem in Semantics::ALL {
            let l = measure_latency(&setup, sem, 61_440).expect("measure");
            lat.push((sem, l.as_us()));
        }
        let copy = lat
            .iter()
            .find(|(s, _)| *s == Semantics::Copy)
            .expect("copy")
            .1;
        let others: Vec<f64> = lat
            .iter()
            .filter(|(s, _)| *s != Semantics::Copy)
            .map(|(_, l)| *l)
            .collect();
        let worst_other = others.iter().cloned().fold(0.0, f64::max);
        let best_other = others.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            copy > worst_other,
            "{name}: copy ({copy}) must trail everything (worst other {worst_other})"
        );
        // Non-copy semantics cluster: on schemes without forced input
        // copies, within ~10% of each other; with unaligned pooled
        // buffers the application-allocated ones pay one copy, so the
        // spread widens but stays well under copy's two copies.
        let spread = worst_other / best_other;
        let max_spread = if name == "pooled-unaligned" {
            1.65
        } else {
            1.12
        };
        assert!(
            spread < max_spread,
            "{name}: non-copy semantics spread {spread:.2} too wide"
        );
    }
}

#[test]
fn unaligned_pooled_splits_into_three_groups() {
    // Figure 7: no copies (system-allocated), one copy (non-copy
    // application-allocated), two copies (copy).
    let setup = ExperimentSetup::pooled_unaligned(MachineSpec::micron_p166());
    let lat = |s| measure_latency(&setup, s, 61_440).expect("measure").as_us();
    let no_copy = [
        lat(Semantics::Move),
        lat(Semantics::EmulatedMove),
        lat(Semantics::WeakMove),
        lat(Semantics::EmulatedWeakMove),
    ];
    let one_copy = [
        lat(Semantics::EmulatedCopy),
        lat(Semantics::Share),
        lat(Semantics::EmulatedShare),
    ];
    let two_copies = lat(Semantics::Copy);
    let worst_no_copy = no_copy.iter().cloned().fold(0.0, f64::max);
    let best_one_copy = one_copy.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst_one_copy = one_copy.iter().cloned().fold(0.0, f64::max);
    assert!(worst_no_copy < best_one_copy, "groups must separate");
    assert!(
        worst_one_copy < two_copies,
        "copy must trail the one-copy group"
    );
}

#[test]
fn aligned_pooled_restores_the_cluster() {
    // Figure 6's argument: if the application can align, the
    // application-allocated semantics rejoin the system-allocated
    // cluster.
    let setup = ExperimentSetup::pooled_aligned(MachineSpec::micron_p166());
    let emu_copy = measure_latency(&setup, Semantics::EmulatedCopy, 61_440)
        .expect("m")
        .as_us();
    let emu_move = measure_latency(&setup, Semantics::EmulatedMove, 61_440)
        .expect("m")
        .as_us();
    let diff = (emu_copy - emu_move).abs() / emu_move;
    assert!(
        diff < 0.03,
        "aligned emulated copy vs emulated move: {diff:.3}"
    );
}

#[test]
fn outboard_brings_emulated_copy_closest_to_emulated_share() {
    // Section 6.2.3's prediction, which the paper could not measure.
    let setup = ExperimentSetup::outboard(MachineSpec::micron_p166());
    let emu_share = measure_latency(&setup, Semantics::EmulatedShare, 61_440)
        .expect("m")
        .as_us();
    let emu_copy = measure_latency(&setup, Semantics::EmulatedCopy, 61_440)
        .expect("m")
        .as_us();
    let gap = (emu_copy - emu_share) / emu_share;
    assert!(
        gap < 0.02,
        "outboard emulated copy should ride emulated share: gap {gap:.3}"
    );
    // And everyone pays the store-and-forward stage relative to early
    // demultiplexing.
    let early = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    for sem in Semantics::ALL {
        let e = measure_latency(&early, sem, 61_440).expect("m").as_us();
        let o = measure_latency(&setup, sem, 61_440).expect("m").as_us();
        assert!(
            o > e + 300.0,
            "{sem}: outboard must add latency ({e} vs {o})"
        );
    }
}

#[test]
fn emulated_variants_beat_their_basic_counterparts() {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    for (basic, emulated) in [
        (Semantics::Copy, Semantics::EmulatedCopy),
        (Semantics::Share, Semantics::EmulatedShare),
        (Semantics::Move, Semantics::EmulatedMove),
        (Semantics::WeakMove, Semantics::EmulatedWeakMove),
    ] {
        for bytes in [4096usize, 61_440] {
            let b = measure_latency(&setup, basic, bytes).expect("m");
            let e = measure_latency(&setup, emulated, bytes).expect("m");
            assert!(
                e < b,
                "{emulated} ({e:?}) must beat {basic} ({b:?}) at {bytes}B"
            );
        }
    }
}

#[test]
fn mixed_semantics_sender_and_receiver_interoperate() {
    // The taxonomy is per-endpoint: a copy-semantics sender can feed an
    // emulated-copy receiver and vice versa.
    use genie::{HostId, InputRequest, OutputRequest, World, WorldConfig};
    use genie_net::Vc;
    for (s_out, s_in) in [
        (Semantics::Copy, Semantics::EmulatedCopy),
        (Semantics::EmulatedCopy, Semantics::Copy),
        (Semantics::EmulatedShare, Semantics::EmulatedCopy),
        (Semantics::EmulatedMove, Semantics::Share),
    ] {
        let mut world = World::new(WorldConfig::default());
        let tx = world.create_process(HostId::A);
        let rx = world.create_process(HostId::B);
        let data = vec![0xc3u8; 12_288];
        let src = world
            .alloc_source(HostId::A, tx, s_out, &data)
            .expect("src");
        let dst = world
            .alloc_buffer(HostId::B, rx, data.len(), 0)
            .expect("dst");
        world
            .input(
                HostId::B,
                InputRequest::app(s_in, Vc(1), rx, dst, data.len()),
            )
            .expect("prepost");
        world
            .output(
                HostId::A,
                OutputRequest::new(s_out, Vc(1), tx, src, data.len()),
            )
            .expect("output");
        world.run();
        let done = world.take_completed_inputs();
        let c = done.first().expect("delivered");
        assert_eq!(
            world.read_app(HostId::B, rx, c.vaddr, c.len).expect("read"),
            data,
            "{s_out} -> {s_in}"
        );
    }
}
