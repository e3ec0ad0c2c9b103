//! Host-side copies per exchange, pinned.
//!
//! Wire images share the sender's page storage instead of copying it
//! (DESIGN.md §8, *Host memory discipline*), and a whole receive page
//! takes a whole-page share over instead of copying it. This test pins
//! what that leaves: for one warm 60 KB two-host exchange under every
//! semantics and buffering setup, the change in both hosts'
//! `PhysMem::copy_counts` — bytes copied into frames, page shares
//! taken, shares adopted, copy-on-write copies. The exchange includes
//! the application's write of the source buffer and the receiver's
//! verification. A change that brings back a copy shows up here as a
//! count difference; on a deliberate one, the failure prints every row
//! for re-pinning.

use genie::{
    Allocation, ExperimentSetup, HostId, InputRequest, OutputRequest, Semantics, World,
    ALL_SEMANTICS,
};
use genie_machine::MachineSpec;
use genie_mem::CopyCounts;
use genie_net::Vc;
use genie_vm::SpaceId;

const BYTES: usize = 61_440;

/// Warm-up exchanges before the measured one: enough for every buffer
/// the path uses (region caches, overlay pool) to have been touched.
const WARM_EXCHANGES: usize = 4;

/// Both hosts' counts, summed.
fn counts(w: &World) -> CopyCounts {
    let [a, b] = [HostId::A, HostId::B].map(|h| w.host(h).vm.phys.copy_counts());
    CopyCounts {
        bytes_copied: a.bytes_copied + b.bytes_copied,
        shares_taken: a.shares_taken + b.shares_taken,
        shares_adopted: a.shares_adopted + b.shares_adopted,
        cow_copies: a.cow_copies + b.cow_copies,
    }
}

/// One two-host exchange per call, buffers reused the way the
/// measurement drivers reuse them.
struct Pair {
    w: World,
    tx: SpaceId,
    rx: SpaceId,
    semantics: Semantics,
    /// Application-allocated (source, destination) buffers.
    app: Option<(u64, u64)>,
}

impl Pair {
    fn new(setup: &ExperimentSetup, semantics: Semantics) -> Self {
        let mut w = World::new(setup.world_config());
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let app = (semantics.allocation() == Allocation::Application).then(|| {
            let src = w.alloc_buffer(HostId::A, tx, BYTES, 0).expect("src");
            let dst = w
                .alloc_buffer(HostId::B, rx, BYTES, setup.recv_page_off)
                .expect("dst");
            (src, dst)
        });
        Pair {
            w,
            tx,
            rx,
            semantics,
            app,
        }
    }

    fn exchange(&mut self, round: usize) {
        let Pair {
            w,
            tx,
            rx,
            semantics,
            app,
        } = self;
        let (sem, tx, rx) = (*semantics, *tx, *rx);
        let data: Vec<u8> = (0..BYTES).map(|i| (i * 7 + round * 13) as u8).collect();
        let vc = Vc(1);
        let src = match *app {
            Some((src, dst)) => {
                w.input(HostId::B, InputRequest::app(sem, vc, rx, dst, BYTES))
                    .expect("input");
                src
            }
            None => {
                w.input(HostId::B, InputRequest::system(sem, vc, rx, BYTES))
                    .expect("input");
                w.host_mut(HostId::A)
                    .alloc_io_buffer(tx, BYTES)
                    .expect("io buffer")
                    .1
            }
        };
        w.app_write(HostId::A, tx, src, &data).expect("fill");
        w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, BYTES))
            .expect("output");
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(w.take_completed_outputs().len(), 1);
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert!(w.app_matches(HostId::B, rx, c.vaddr, &data).expect("read"));
        if let Some(region) = c.region {
            w.release_input_region(HostId::B, region, sem)
                .expect("release");
            if sem != Semantics::Move {
                w.host_mut(HostId::A).free_buffer(tx, src).expect("free");
            }
        }
    }
}

/// Per-exchange deltas: (setup, semantics, bytes copied, shares taken,
/// shares adopted, copy-on-write copies). Every send takes its 15 pages
/// as shares; early demux and outboard receives take all 15 over, and
/// what they copy is the application's 60 KB write (copy semantics adds
/// its copyin and copyout); pooled receives copy the PDU into overlay
/// pages behind the header, so nothing lines up to adopt. No exchange
/// copies a shared page: the sender's next write replaces whole pages.
#[rustfmt::skip]
const PINNED: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("early demux", "copy", 184320, 15, 15, 0),
    ("early demux", "emulated copy", 61440, 15, 15, 0),
    ("early demux", "share", 61440, 15, 15, 0),
    ("early demux", "emulated share", 61440, 15, 15, 0),
    ("early demux", "move", 61440, 15, 15, 0),
    ("early demux", "emulated move", 61440, 15, 15, 0),
    ("early demux", "weak move", 61440, 15, 15, 0),
    ("early demux", "emulated weak move", 61440, 15, 15, 0),
    ("pooled aligned", "copy", 245776, 15, 0, 0),
    ("pooled aligned", "emulated copy", 122928, 15, 0, 0),
    ("pooled aligned", "share", 122928, 15, 0, 0),
    ("pooled aligned", "emulated share", 122928, 15, 0, 0),
    ("pooled aligned", "move", 122896, 15, 0, 0),
    ("pooled aligned", "emulated move", 122896, 15, 0, 0),
    ("pooled aligned", "weak move", 122896, 15, 0, 0),
    ("pooled aligned", "emulated weak move", 122896, 15, 0, 0),
    ("pooled unaligned", "copy", 245776, 15, 0, 0),
    ("pooled unaligned", "emulated copy", 184336, 15, 0, 0),
    ("pooled unaligned", "share", 184336, 15, 0, 0),
    ("pooled unaligned", "emulated share", 184336, 15, 0, 0),
    ("pooled unaligned", "move", 122896, 15, 0, 0),
    ("pooled unaligned", "emulated move", 122896, 15, 0, 0),
    ("pooled unaligned", "weak move", 122896, 15, 0, 0),
    ("pooled unaligned", "emulated weak move", 122896, 15, 0, 0),
    ("outboard", "copy", 184320, 15, 15, 0),
    ("outboard", "emulated copy", 61440, 15, 15, 0),
    ("outboard", "share", 61440, 15, 15, 0),
    ("outboard", "emulated share", 61440, 15, 15, 0),
    ("outboard", "move", 61440, 15, 15, 0),
    ("outboard", "emulated move", 61440, 15, 15, 0),
    ("outboard", "weak move", 61440, 15, 15, 0),
    ("outboard", "emulated weak move", 61440, 15, 15, 0),
];

#[test]
fn warm_exchange_copies_are_pinned() {
    let m = MachineSpec::micron_p166;
    let setups = [
        ("early demux", ExperimentSetup::early_demux(m())),
        ("pooled aligned", ExperimentSetup::pooled_aligned(m())),
        ("pooled unaligned", ExperimentSetup::pooled_unaligned(m())),
        ("outboard", ExperimentSetup::outboard(m())),
    ];
    let mut rows = Vec::new();
    for (name, setup) in &setups {
        for &sem in ALL_SEMANTICS {
            let mut pair = Pair::new(setup, sem);
            for round in 0..WARM_EXCHANGES {
                pair.exchange(round);
            }
            let before = counts(&pair.w);
            pair.exchange(WARM_EXCHANGES);
            let after = counts(&pair.w);
            rows.push((
                *name,
                sem.to_string(),
                after.bytes_copied - before.bytes_copied,
                after.shares_taken - before.shares_taken,
                after.shares_adopted - before.shares_adopted,
                after.cow_copies - before.cow_copies,
            ));
        }
    }
    let got: Vec<_> = rows
        .iter()
        .map(|(n, s, b, t, a, c)| (*n, s.as_str(), *b, *t, *a, *c))
        .collect();
    if got != PINNED {
        let table: Vec<String> = got
            .iter()
            .map(|(n, s, b, t, a, c)| format!("    ({n:?}, {s:?}, {b}, {t}, {a}, {c}),"))
            .collect();
        panic!(
            "per-exchange host copy counts moved; measured rows:\n{}",
            table.join("\n")
        );
    }
}
