//! Fast-path / slow-path equivalence for the zero-copy wire datapath.
//!
//! A PDU normally crosses the simulated wire as one contiguous
//! `WirePdu` (payload plus cell metadata) without ever materializing
//! 48-byte cells. `World::set_force_cell_path` routes every
//! transmission through the real AAL5 codec instead — segment into
//! cells, reassemble, deliver that. The two paths must be
//! observationally identical: same delivered bytes, same completion
//! events, same simulated latencies, and (under fault injection) the
//! same recovery statistics. Cases are generated by a deterministic
//! xorshift PRNG so failures reproduce from the case index alone.

use genie::{HostId, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::FaultConfig;
use genie_net::{InputBuffering, Vc};

const ARCHITECTURES: [InputBuffering; 3] = [
    InputBuffering::EarlyDemux,
    InputBuffering::Pooled,
    InputBuffering::Outboard,
];

/// Semantics with both allocation families represented.
const SEMANTICS: [Semantics; 4] = [
    Semantics::Copy,
    Semantics::EmulatedCopy,
    Semantics::Move,
    Semantics::Share,
];

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(131).wrapping_add(seed) as u8)
        .collect()
}

/// Everything observable about one exchange.
#[derive(Debug, PartialEq)]
struct Outcome {
    bytes: Vec<u8>,
    recv: Vec<(
        u64,
        u64,
        usize,
        genie_machine::SimTime,
        genie_machine::SimTime,
        u32,
        bool,
    )>,
    send: Vec<(u64, genie_machine::SimTime, usize, u32)>,
}

/// One fault-free exchange of `bytes` bytes under `sem`/`arch`,
/// optionally forced through the materialized cell codec.
fn one_exchange(
    sem: Semantics,
    arch: InputBuffering,
    bytes: usize,
    seed: u64,
    force_cells: bool,
) -> Outcome {
    let page = 4096usize;
    let cfg = WorldConfig {
        rx_buffering: arch,
        frames_per_host: 320 + 6 * (bytes / page + 2),
        ..WorldConfig::default()
    };
    let mut w = World::new(cfg);
    w.set_force_cell_path(force_cells);
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let vc = Vc(1);
    let data = pattern(bytes, seed);

    let off = w.preferred_alignment(HostId::B, vc).0;
    w.post_receive(HostId::B, rx, sem, vc, bytes, off)
        .expect("input");
    let src = w
        .alloc_source(HostId::A, tx, sem, &data)
        .expect("tx buffer");
    w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, bytes))
        .expect("output");
    w.run();

    let recvs = w.take_completed_inputs();
    let sends = w.take_completed_outputs();
    assert_eq!(recvs.len(), 1, "one delivery expected");
    let c = recvs[0];
    assert_eq!(c.len, bytes);
    let got = w.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
    assert_eq!(got, data, "delivered bytes corrupted (force={force_cells})");
    Outcome {
        bytes: got,
        recv: recvs
            .iter()
            .map(|c| {
                (
                    c.token,
                    c.vaddr,
                    c.len,
                    c.latency,
                    c.completed_at,
                    c.seq,
                    c.checksum_ok,
                )
            })
            .collect(),
        send: sends
            .iter()
            .map(|s| (s.token, s.completed_at, s.len, s.credit_stalls))
            .collect(),
    }
}

/// The contiguous fast path and the forced cell-materialized path are
/// byte- and event-identical across sizes and all three input
/// buffering architectures. Sizes cover the AAL5 boundaries (trailer
/// fits / spills into an extra cell) and the maximum datagram.
#[test]
fn fast_path_matches_materialized_cells() {
    // 65519 is the largest payload: the 16-byte datagram header must
    // keep the wire PDU within AAL5's 65535-byte limit.
    let mut sizes = vec![1, 24, 25, 40, 41, 48, 4096, 65519];
    let mut rng = Rng::new(7);
    for _ in 0..6 {
        sizes.push(rng.range(1, 65520));
    }
    for (case, &bytes) in sizes.iter().enumerate() {
        for &arch in &ARCHITECTURES {
            let sem = SEMANTICS[(case + bytes) % SEMANTICS.len()];
            let fast = one_exchange(sem, arch, bytes, case as u64, false);
            let slow = one_exchange(sem, arch, bytes, case as u64, true);
            assert_eq!(
                fast, slow,
                "case {case}: {bytes} bytes, {sem}, {arch:?}: \
                 fast path diverged from cell codec"
            );
        }
    }
}

/// Under an active fault plan the cell codec becomes load-bearing
/// (damage is applied to real cells); lazy materialization must
/// preserve recovery behavior exactly. A seed batch of swarm configs
/// must produce identical `FaultStats` and deliveries with the forced
/// cell path on and off.
#[test]
fn forced_cell_path_preserves_fault_recovery() {
    for seed in 0..12u64 {
        let sem = SEMANTICS[(seed % SEMANTICS.len() as u64) as usize];
        let arch = ARCHITECTURES[(seed % 3) as usize];
        let fast = fault_scenario(sem, arch, seed, false);
        let slow = fault_scenario(sem, arch, seed, true);
        assert_eq!(
            fast, slow,
            "seed {seed}: {sem}, {arch:?}: fault recovery diverged \
             between fast path and cell codec"
        );
    }
}

/// Runs a small faulted exchange sequence and returns its observable
/// trace: recovery statistics plus per-delivery (seq, len, fingerprint).
fn fault_scenario(
    sem: Semantics,
    arch: InputBuffering,
    seed: u64,
    force_cells: bool,
) -> (genie_fault::FaultStats, Vec<(u32, usize, u64)>) {
    const PDUS: usize = 3;
    let cfg = WorldConfig {
        rx_buffering: arch,
        frames_per_host: 320,
        credit_limit: 256,
        fault: FaultConfig::swarm(seed),
        ..WorldConfig::default()
    };
    let mut w = World::new(cfg);
    w.set_force_cell_path(force_cells);
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let vc = Vc(1);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let sizes: Vec<usize> = (0..PDUS).map(|_| 1 + rng.range(0, 4000)).collect();

    for &bytes in &sizes {
        let off = w.preferred_alignment(HostId::B, vc).0;
        w.post_receive(HostId::B, rx, sem, vc, bytes, off)
            .expect("input");
    }
    for (i, &bytes) in sizes.iter().enumerate() {
        let data = pattern(bytes, seed.wrapping_add(i as u64));
        let src = w
            .alloc_source(HostId::A, tx, sem, &data)
            .expect("tx buffer");
        w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, bytes))
            .expect("output");
    }
    w.run();

    let done = w.take_completed_inputs();
    assert_eq!(
        done.len(),
        PDUS,
        "seed {seed} (force={force_cells}): recovery must deliver everything \
         (stats: {:?})",
        w.fault_stats()
    );
    let mut deliveries = Vec::with_capacity(PDUS);
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.seq as usize, i, "in-order delivery");
        let got = w.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
        assert_eq!(
            got,
            pattern(sizes[i], seed.wrapping_add(i as u64)),
            "seed {seed} datagram {i}: corrupted delivery (force={force_cells})"
        );
        deliveries.push((c.seq, c.len, genie_fault::fnv64(&got)));
        if let Some(region) = c.region {
            w.release_input_region(HostId::B, region, sem)
                .expect("release region");
        }
    }
    (w.fault_stats(), deliveries)
}
