//! Heap allocations on the warm datagram path.
//!
//! The paper's I/O path is fast because it reuses buffers instead of
//! allocating per operation; the simulator's host code follows the same
//! rule. Once a world is warm, the send -> switch -> receive -> verify
//! -> free cycle recycles every short-lived buffer (wire payloads,
//! fault lists, descriptor and frame lists, object page tables), so a
//! datagram costs (almost) no heap allocation. These tests pin that
//! with a counting global allocator.
//!
//! The counters are thread-local, so the harness's parallel test
//! threads cannot pollute one another's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use genie::{
    Allocation, ExperimentSetup, HostId, InputRequest, OutputRequest, Semantics, World,
    WorldConfig, ALL_SEMANTICS,
};
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};
use genie_vm::SpaceId;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Payload bytes: every datagram is a window into this block, so the
/// drivers generate nothing per datagram.
fn block() -> Vec<u8> {
    (0..1u32 << 16)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
        .collect()
}

const BYTES: usize = 2048;

/// A 64-host star: every spoke sends 4 x 2 KB datagrams into the hub
/// per wave, spoke `i` under semantics `i mod 8`, so one wave runs all
/// eight data paths side by side.
struct Star {
    w: World,
    hub: SpaceId,
    spokes: Vec<SpaceId>,
    block: Vec<u8>,
    /// Payload offset into `block` per input token of the wave.
    expected: Vec<usize>,
    /// Source buffers to free after the wave.
    srcs: Vec<(u16, u64)>,
}

const HOSTS: u16 = 64;
const PER_SPOKE: usize = 4;
const VC_BASE: u32 = 500;
const HUB: HostId = HostId(0);

impl Star {
    fn new() -> Self {
        let sw = SwitchConfig::star(HOSTS, 0, VC_BASE, 256);
        let mut w = World::new(WorldConfig::switched(
            MachineSpec::micron_p166(),
            HOSTS.into(),
            sw,
        ));
        let hub = w.create_process(HUB);
        let spokes = (1..HOSTS).map(|i| w.create_process(HostId(i))).collect();
        let n = PER_SPOKE * usize::from(HOSTS - 1);
        Star {
            w,
            hub,
            spokes,
            block: block(),
            expected: Vec::with_capacity(n),
            srcs: Vec::with_capacity(n),
        }
    }

    fn semantics(spoke: u16) -> Semantics {
        ALL_SEMANTICS[usize::from(spoke) % ALL_SEMANTICS.len()]
    }

    /// Runs one wave and returns the number of verified deliveries.
    fn wave(&mut self, salt: usize) -> usize {
        let Star {
            w,
            hub,
            spokes,
            block,
            expected,
            srcs,
        } = self;
        let hub = *hub;
        expected.clear();
        srcs.clear();
        let mut first_token = None;
        for k in 0..PER_SPOKE {
            for i in 1..HOSTS {
                let sem = Self::semantics(i);
                let vc = Vc(VC_BASE + u32::from(i));
                let off = w.preferred_alignment(HUB, vc).0;
                let token = w
                    .post_receive(HUB, hub, sem, vc, BYTES, off)
                    .expect("input");
                first_token.get_or_insert(token);
                expected.push((usize::from(i) * 509 + k * 131 + salt * 17) % (block.len() - BYTES));
            }
        }
        for k in 0..PER_SPOKE {
            for i in 1..HOSTS {
                let sem = Self::semantics(i);
                let (host, space) = (HostId(i), spokes[usize::from(i) - 1]);
                let at = expected[k * usize::from(HOSTS - 1) + usize::from(i) - 1];
                let src = w
                    .alloc_source(host, space, sem, &block[at..at + BYTES])
                    .expect("source buffer");
                let vc = Vc(VC_BASE + u32::from(i));
                w.output(host, OutputRequest::new(sem, vc, space, src, BYTES))
                    .expect("output");
                // Move output removes its region. The other moves leave
                // the region in the sender's region cache, which only a
                // later input on that host would reuse; spokes never
                // receive, so they unmap these buffers after the wave
                // like application-allocated ones. (Left cached, every
                // such send would keep one region, its object's page
                // table and one page of storage alive for good.)
                if sem != Semantics::Move {
                    srcs.push((i, src));
                }
            }
        }
        w.run();
        let done = w.take_completed_inputs();
        let sent = w.take_completed_outputs();
        assert_eq!(sent.len(), expected.len(), "every send completes");
        assert_eq!(done.len(), expected.len(), "every datagram arrives");
        let first = first_token.expect("posted inputs");
        for c in &done {
            let at = expected[(c.token - first) as usize];
            assert!(c.checksum_ok && c.len == BYTES);
            let ok = w
                .app_matches(HUB, hub, c.vaddr, &block[at..at + BYTES])
                .expect("readable");
            assert!(ok, "{} delivery corrupted", c.semantics);
            w.host_mut(HUB).free_buffer(hub, c.vaddr).expect("free");
        }
        for &(i, src) in srcs.iter() {
            w.host_mut(HostId(i))
                .free_buffer(spokes[usize::from(i) - 1], src)
                .expect("free source");
        }
        done.len()
    }
}

#[test]
fn warm_star_waves_allocate_at_most_one_block_per_datagram() {
    let mut star = Star::new();
    assert_eq!(star.wave(0), 252, "warm-up wave");
    let (allocs, delivered) =
        allocations(|| (1..=WAVES).map(|salt| star.wave(salt)).sum::<usize>());
    assert_eq!(delivered, 252 * WAVES);
    let per_datagram = allocs as f64 / delivered as f64;
    // The per-datagram buffers (payload, fault, descriptor and frame
    // lists, object page tables) all come from pools, so what remains
    // is per wave, not per datagram: the two completion lists handed
    // to the caller, and the doubling of each process's region map,
    // page table and object table as fresh virtual pages and objects
    // are handed out (all 63 spokes double in the same waves, at wave
    // 1, 2, 4, 8 and 16).
    assert!(
        per_datagram <= 1.0,
        "warm star waves: {allocs} allocations for {delivered} datagrams \
         ({per_datagram:.3} per datagram)"
    );
    assert!(
        allocs <= PINNED_STAR_ALLOCS,
        "warm star waves: {allocs} allocations, pinned at {PINNED_STAR_ALLOCS} \
         ({per_datagram:.3} per datagram)"
    );
}

/// Measured waves after the warm-up wave.
const WAVES: usize = 16;
/// Allocations of those waves: 2 completion lists x 16 waves, plus
/// 192 per doubling wave (3 tables x 63 spokes, and the hub's) x 5.
const PINNED_STAR_ALLOCS: u64 = 992;

/// One two-host exchange per call, buffers reused the way the
/// measurement drivers reuse them.
struct Pair {
    w: World,
    tx: SpaceId,
    rx: SpaceId,
    semantics: Semantics,
    /// Application-allocated (source, destination) buffers.
    app: Option<(u64, u64)>,
    block: Vec<u8>,
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
            block: block(),
        }
    }

    fn exchange(&mut self, round: usize) {
        let Pair {
            w,
            tx,
            rx,
            semantics,
            app,
            block,
        } = self;
        let (sem, tx, rx) = (*semantics, *tx, *rx);
        let at = round * 389 % (block.len() - BYTES);
        let data = &block[at..at + BYTES];
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
        w.app_write(HostId::A, tx, src, data).expect("fill");
        w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, BYTES))
            .expect("output");
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(w.take_completed_outputs().len(), 1);
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert!(w.app_matches(HostId::B, rx, c.vaddr, data).expect("read"));
        if let Some(region) = c.region {
            // System-allocated input: hand the buffer back (the cached
            // semantics re-enter the region cache for the next input),
            // and unmap the source region the sender's cache kept.
            w.release_input_region(HostId::B, region, sem)
                .expect("release");
            if sem != Semantics::Move {
                w.host_mut(HostId::A).free_buffer(tx, src).expect("free");
            }
        }
    }
}

#[test]
fn warm_two_host_exchange_allocates_only_its_completion_lists() {
    let m = MachineSpec::micron_p166;
    let setups = [
        ("early demux", ExperimentSetup::early_demux(m())),
        ("pooled aligned", ExperimentSetup::pooled_aligned(m())),
        ("pooled unaligned", ExperimentSetup::pooled_unaligned(m())),
        ("outboard", ExperimentSetup::outboard(m())),
    ];
    let mut failures = Vec::new();
    for (name, setup) in &setups {
        for &sem in ALL_SEMANTICS {
            let mut pair = Pair::new(setup, sem);
            // Warm-up: enough exchanges to cycle the 64-page overlay
            // pool, so every buffer the path uses has been touched.
            for round in 0..WARM_EXCHANGES {
                pair.exchange(round);
            }
            let (allocs, ()) = allocations(|| {
                for round in WARM_EXCHANGES..WARM_EXCHANGES + EXCHANGES {
                    pair.exchange(round);
                }
            });
            // Two completion lists per exchange, handed to the caller,
            // plus the amortized doubling of the growing tables.
            if allocs > 2 * EXCHANGES as u64 + GROWTH {
                failures.push(format!("{name}/{sem}: {allocs} allocations"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm exchanges allocated beyond their completion lists \
         ({EXCHANGES} exchanges, want <= {}):\n{}",
        2 * EXCHANGES as u64 + GROWTH,
        failures.join("\n")
    );
}

const WARM_EXCHANGES: usize = 80;
const EXCHANGES: usize = 64;
/// System-allocated semantics map a fresh source region (and, for
/// move input, a fresh destination region) per exchange, so the
/// region map, page table and object table of each side grow; over
/// these 64 exchanges each doubles once.
const GROWTH: u64 = 6;
