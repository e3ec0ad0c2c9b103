//! The Section 5.2 alignment-query interface: an application that
//! allocates its input buffers at the queried preferred alignment gets
//! page swapping; one that ignores it gets copies — and the query
//! answer differs by input-buffering architecture exactly as the paper
//! describes.

use genie::{measure_latency_traced, ExperimentSetup, HostId, Semantics, World, WorldConfig};
use genie_machine::{MachineSpec, Op};
use genie_net::{InputBuffering, Vc, HEADER_LEN};

#[test]
fn early_demux_needs_no_application_alignment() {
    // The system aligns its buffers to the application's (system input
    // alignment), so the preferred offset is "anything".
    let world = World::new(WorldConfig::default());
    let (off, gran) = world.preferred_alignment(HostId::B, Vc(1));
    assert_eq!((off, gran), (0, 1));
}

#[test]
fn pooled_prefers_the_header_offset() {
    let cfg = WorldConfig {
        rx_buffering: InputBuffering::Pooled,
        ..WorldConfig::default()
    };
    let world = World::new(cfg);
    let (off, gran) = world.preferred_alignment(HostId::B, Vc(1));
    assert_eq!(off, HEADER_LEN);
    assert_eq!(gran, 4096);
}

/// Counts swapped pages vs copied bytes in a 3-page pooled exchange at
/// the given application-buffer offset.
fn swap_vs_copy(page_off: usize) -> (u64, u64) {
    let mut setup = ExperimentSetup::pooled_aligned(MachineSpec::micron_p166());
    setup.recv_page_off = page_off;
    let (_lat, trace, _) =
        measure_latency_traced(&setup, Semantics::EmulatedCopy, 3 * 4096).expect("run");
    let swaps = trace
        .charges()
        .filter(|&(op, _)| op == Op::Swap)
        .map(|(_, s)| s.units)
        .sum();
    let copies = trace
        .charges()
        .filter(|&(op, _)| op == Op::Copyout)
        .map(|(_, s)| s.bytes)
        .sum();
    (swaps, copies)
}

#[test]
fn honoring_the_preferred_alignment_swaps_instead_of_copying() {
    let (swaps, copies) = swap_vs_copy(HEADER_LEN);
    assert!(swaps >= 2, "aligned buffers should swap pages: {swaps}");
    assert!(
        copies < 4096,
        "aligned buffers should copy at most residue: {copies}"
    );
    let (swaps_bad, copies_bad) = swap_vs_copy(0);
    assert_eq!(swaps_bad, 0, "misaligned buffers cannot swap");
    assert!(
        copies_bad >= 3 * 4096,
        "misaligned buffers copy everything: {copies_bad}"
    );
}

#[test]
fn application_alignment_recovers_most_of_the_latency() {
    // Figure 6 vs Figure 7, via the query interface.
    let m = MachineSpec::micron_p166;
    let aligned = ExperimentSetup::pooled_aligned(m());
    let unaligned = ExperimentSetup::pooled_unaligned(m());
    let la = genie::measure_latency(&aligned, Semantics::EmulatedCopy, 61_440).expect("m");
    let lu = genie::measure_latency(&unaligned, Semantics::EmulatedCopy, 61_440).expect("m");
    assert!(
        lu.as_us() - la.as_us() > 1000.0,
        "alignment should save over a millisecond at 60 KB: {} vs {}",
        la.as_us(),
        lu.as_us()
    );
}
