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
    cq, Allocation, CqConfig, CqResult, ExperimentSetup, HostId, InputRequest, Landing,
    OutputRequest, QueuePair, Semantics, Sqe, SqeOp, World, WorldConfig, ALL_SEMANTICS,
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
    // lists, object and region page tables) all come from pools, and
    // memory objects and regions reuse the slots of released ones, so
    // what remains is per wave, not per datagram: the two completion
    // lists handed to the caller.
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
/// Allocations of those waves: 2 completion lists x 16 waves. No
/// table grows: a host's object arena and each space's region arena
/// and index stay at the most objects and regions they ever held at
/// once, reached in the warm-up wave.
const PINNED_STAR_ALLOCS: u64 = 32;

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
            // Two completion lists per exchange, handed to the caller.
            if allocs > 2 * EXCHANGES as u64 {
                failures.push(format!("{name}/{sem}: {allocs} allocations"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm exchanges allocated beyond their completion lists \
         ({EXCHANGES} exchanges, want <= {}):\n{}",
        2 * EXCHANGES as u64,
        failures.join("\n")
    );
}

const WARM_EXCHANGES: usize = 80;
const EXCHANGES: usize = 64;

/// One request/response round trip per call through `genie::cq`, one
/// queue pair per host: host A sends a request on VC 1, host B echoes a
/// response on VC 2. Buffers are allocated, filled and freed per
/// message, as a CQ server does.
struct Echo {
    w: World,
    qps: [QueuePair; 2],
    spaces: [SpaceId; 2],
    block: Vec<u8>,
}

impl Echo {
    fn new(semantics: Semantics) -> Self {
        let mut w = World::new(WorldConfig::default());
        let spaces = [w.create_process(HostId::A), w.create_process(HostId::B)];
        let qp = |host| QueuePair::new(host, semantics, CqConfig::fixed(4));
        Echo {
            w,
            qps: [qp(HostId::A), qp(HostId::B)],
            spaces,
            block: block(),
        }
    }

    /// Stages a receive on pair `side`'s host, with a fresh buffer for
    /// application-allocated semantics.
    fn post_recv(&mut self, side: usize, vc: Vc) {
        let (host, space) = (self.qps[side].host(), self.spaces[side]);
        let buffer = match self.qps[side].semantics().allocation() {
            Allocation::Application => {
                let off = self.w.preferred_alignment(host, vc).0;
                Some(self.w.alloc_buffer(host, space, BYTES, off).expect("dst"))
            }
            Allocation::System => None,
        };
        let op = SqeOp::PostRecv {
            vc,
            space,
            buffer,
            len: BYTES,
        };
        self.qps[side].post(Sqe { user_data: 0, op }).expect("post");
    }

    /// Stages a send of `block[at..]` from a fresh buffer on pair `side`.
    fn post_send(&mut self, side: usize, vc: Vc, at: usize) {
        let (host, space) = (self.qps[side].host(), self.spaces[side]);
        let w = &mut self.w;
        let src = match self.qps[side].semantics().allocation() {
            Allocation::Application => w.alloc_buffer(host, space, BYTES, 0).expect("src"),
            Allocation::System => {
                w.host_mut(host)
                    .alloc_io_buffer(space, BYTES)
                    .expect("src")
                    .1
            }
        };
        w.app_write(host, space, src, &self.block[at..at + BYTES])
            .expect("fill");
        let op = SqeOp::Send {
            vc,
            space,
            vaddr: src,
            len: BYTES,
        };
        let user_data = src;
        self.qps[side].post(Sqe { user_data, op }).expect("post");
    }

    fn round_trip(&mut self, round: usize) {
        let at = round * 389 % (self.block.len() - BYTES);
        self.post_recv(1, Vc(1));
        self.post_recv(0, Vc(2));
        self.post_send(0, Vc(1), at);
        let (mut answered, mut sent) = (false, 0);
        while !(answered && sent == 2) {
            for qp in &mut self.qps {
                qp.submit(&mut self.w);
            }
            self.w.run();
            assert!(cq::harvest(&mut self.w, &mut self.qps) > 0, "stalled");
            for side in 0..2 {
                let (host, space) = (self.qps[side].host(), self.spaces[side]);
                let app = self.qps[side].semantics().allocation() == Allocation::Application;
                while let Some(c) = self.qps[side].poll() {
                    match c.landing {
                        Landing::Delivered { vaddr, .. } => {
                            let data = &self.block[at..at + BYTES];
                            assert_eq!(c.result, CqResult::Ok);
                            assert!(self.w.app_matches(host, space, vaddr, data).expect("read"));
                            self.w
                                .host_mut(host)
                                .free_buffer(space, vaddr)
                                .expect("free");
                            if side == 1 {
                                self.post_send(1, Vc(2), at);
                            } else {
                                answered = true;
                            }
                        }
                        Landing::Sent { .. } => {
                            sent += 1;
                            if app {
                                self.w
                                    .host_mut(host)
                                    .free_buffer(space, c.user_data)
                                    .expect("free source");
                            }
                        }
                        Landing::None => panic!("refused: {c:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn warm_cq_echo_round_trips_are_pinned() {
    let mut failures = Vec::new();
    for &sem in ALL_SEMANTICS {
        let mut echo = Echo::new(sem);
        for round in 0..WARM_ECHOES {
            echo.round_trip(round);
        }
        let (allocs, ()) = allocations(|| {
            for round in WARM_ECHOES..WARM_ECHOES + ECHOES {
                echo.round_trip(round);
            }
        });
        if allocs > PINNED_ECHO_ALLOCS {
            failures.push(format!("{sem}: {allocs} allocations"));
        }
    }
    assert!(
        failures.is_empty(),
        "warm CQ echoes allocated past their pin ({ECHOES} round trips, \
         want <= {PINNED_ECHO_ALLOCS}):\n{}",
        failures.join("\n")
    );
}

const WARM_ECHOES: usize = 80;
const ECHOES: usize = 64;
/// Allocations of those round trips, per semantics.
const PINNED_ECHO_ALLOCS: u64 = 0;
