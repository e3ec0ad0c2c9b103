//! N-host switched-fabric experiment suites.
//!
//! The paper's measurements are two-host point experiments; these five
//! suites put the same eight semantics under *contention* — the regime
//! production deployments live in — on switched topologies. Where a
//! suite's latency comes from differs, and each doc says which:
//!
//! - [`rpc_fanin`]: many clients fan requests into one server port
//!   (the switch's output-port FIFO and egress credit loop are the
//!   bottleneck). One open-loop burst by design: every request is
//!   issued up front, so a latency includes the queue it joined;
//! - [`cluster_reduce`]: an N-node reduction — every node ships its
//!   vector to the root each phase, the root folds. Each phase is one
//!   open-loop burst, by design, after a `World::quiesce`;
//! - [`multicast_stream`]: one sender replicated at switch ingress to
//!   many subscribers, every frame issued up front (open-loop);
//! - [`fabric_scale`]: the scale tier, a star's spokes fanning a fixed
//!   datagram count into its hub in bounded waves. Each wave is issued
//!   at the spokes' own clocks, so it queues behind the backlog of every
//!   earlier wave at the hub port;
//! - [`cq_saturation`]: request/response fan-in through `genie::cq`
//!   queue pairs, swept over queue depth to find each semantics'
//!   saturation knee. Closed-loop: a client's fixed window admits a
//!   request only once an earlier one's response came back.
//!
//! All five drive one rig: a star-switched P166 world with one process
//! per host. Each suite checks the delivered bytes against the pattern
//! the sender wrote (every byte, or a deterministic subsample where a
//! full check would dominate), checks the fabric quiesced after every
//! drain (no PDU stranded in a port FIFO), and reports the latency
//! *distribution* per semantics — under contention the spread carries
//! the signal, so results come back as [`LatencyDistribution`]
//! (p50/p99) plus the switch's own counters.
//!
//! Each call runs one semantics in its own world, and worlds are
//! single-threaded by construction, so a caller can spread the
//! semantics across threads (`report`'s measurement plan does) and
//! get byte-identical output at any thread count.

use std::collections::HashMap;

use genie_machine::{MachineSpec, SimTime};
use genie_net::{SwitchConfig, SwitchStats, Vc};
use genie_trace::metrics::MetricsRegistry;
use genie_trace::{SampleConfig, TraceSet};
use genie_vm::SpaceId;

use crate::experiment::LatencyDistribution;
use crate::input::RecvCompletion;
use crate::output::OutputRequest;
use crate::semantics::Semantics;
use crate::world::{HostId, World, WorldConfig};

/// One suite run's result for one semantics.
#[derive(Clone, Copy, Debug)]
pub struct SuitePoint {
    /// Data-passing semantics under test.
    pub semantics: Semantics,
    /// Latency distribution over every delivered datagram.
    pub dist: LatencyDistribution,
    /// The switch's aggregate counters at quiesce.
    pub switch: SwitchStats,
}

/// The eight semantics in [`Semantics::ALL`] order, the order every
/// suite sweeps.
pub const ALL_SEMANTICS: &[Semantics] = &Semantics::ALL;

/// An observed suite run: the suite's usual result `P` plus everything
/// the flight recorder captured — the unified metrics registry (with
/// per-host, per-port and per-VC rollups, and the CQ suite's `cq_*`
/// series and `rollup.cq` aggregates) and the sampled trace. Only
/// [`rpc_fanin_observed`] and [`cq_fanin_observed`] pay for this; the
/// plain suites stay instrumentation-free.
#[derive(Debug)]
pub struct Observation<P> {
    /// The suite result, identical to the unobserved run's.
    pub point: P,
    /// Unified metrics at quiesce (rollups included).
    pub metrics: MetricsRegistry,
    /// The sampled trace, with its dropped-span ledger.
    pub trace: TraceSet,
}

/// Asserts the switch ran dry: every output-port FIFO is empty at
/// quiesce (with the conservation counters, this means every ingress
/// PDU was dispatched).
fn assert_fabric_quiesced(w: &World) {
    let sw = w.switch().expect("suite worlds are switched");
    for port in 0..sw.ports() {
        assert_eq!(
            sw.queue_len(port),
            0,
            "PDUs stranded in port {port}'s FIFO at quiesce"
        );
    }
    let s = sw.stats();
    assert_eq!(
        s.pdus_ingress + s.pdus_replicated,
        s.pdus_dispatched,
        "conservation: ingress + replicated == dispatched at quiesce"
    );
}

/// Deterministic payload for datagram `k` of stream `stream_id`.
fn pattern(stream_id: u32, k: usize, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|b| {
            ((b as u32).wrapping_mul(31) ^ stream_id.wrapping_mul(131) ^ (k as u32 * 17)) as u8
        })
        .map(|v| v.wrapping_add(1))
        .collect()
}

/// The world every suite drives: a P166 world behind one switch, with
/// one process per host, indexed by host id (host 0 is the hub, the
/// reduce root or the multicast sender), posting and sending every
/// buffer the way one semantics does.
struct Rig {
    w: World,
    semantics: Semantics,
    spaces: Vec<SpaceId>,
}

impl Rig {
    /// One host per port of `sw`. `tweak` adjusts the world config
    /// before the world is built; `observe` turns the flight recorder
    /// on.
    fn new(
        semantics: Semantics,
        sw: SwitchConfig,
        observe: Option<&SampleConfig>,
        tweak: impl FnOnce(&mut WorldConfig),
    ) -> Rig {
        let hosts = sw.ports;
        let mut wc = WorldConfig::switched(MachineSpec::micron_p166(), usize::from(hosts), sw);
        tweak(&mut wc);
        let mut w = World::new(wc);
        if let Some(cfg) = observe {
            w.enable_tracing(true);
            w.set_sampling(cfg);
        }
        let spaces = (0..hosts).map(|h| w.create_process(HostId(h))).collect();
        Rig {
            w,
            semantics,
            spaces,
        }
    }

    fn space(&self, host: u16) -> SpaceId {
        self.spaces[usize::from(host)]
    }

    /// The page offset `host` prefers for a receive on `vc`.
    fn offset(&self, host: u16, vc: Vc) -> usize {
        self.w.preferred_alignment(HostId(host), vc).0
    }

    /// Preposts a `bytes` receive on `host`'s circuit `vc`; returns its
    /// token.
    fn post(&mut self, host: u16, vc: Vc, bytes: usize) -> u64 {
        let (space, off) = (self.space(host), self.offset(host, vc));
        self.w
            .post_receive(HostId(host), space, self.semantics, vc, bytes, off)
            .expect("prepost")
    }

    /// The buffer a queue-pair receive of `bytes` on `host`'s circuit
    /// `vc` posts into, as [`World::post_receive`] would choose it.
    fn buffer(&mut self, host: u16, vc: Vc, bytes: usize) -> Option<u64> {
        let (space, off) = (self.space(host), self.offset(host, vc));
        self.w
            .receive_buffer(HostId(host), space, self.semantics, bytes, off)
            .expect("receive buffer")
    }

    /// A send buffer on `host` holding `data`.
    fn source(&mut self, host: u16, data: &[u8]) -> u64 {
        let space = self.space(host);
        self.w
            .alloc_source(HostId(host), space, self.semantics, data)
            .expect("source")
    }

    /// Sends `data` from `host` on `vc`; returns the source buffer.
    fn send(&mut self, host: u16, vc: Vc, data: &[u8]) -> u64 {
        let src = self.source(host, data);
        let req = OutputRequest::new(self.semantics, vc, self.space(host), src, data.len());
        self.w.output(HostId(host), req).expect("send");
        src
    }

    /// Frees `host`'s buffer at `vaddr`.
    fn free(&mut self, host: u16, vaddr: u64) {
        let space = self.space(host);
        let _ = self.w.host_mut(HostId(host)).free_buffer(space, vaddr);
    }

    /// Asserts that `host`'s buffer at `vaddr` holds datagram `k` of
    /// `stream`. The read charges faults like an application read.
    fn verify(&mut self, host: u16, vaddr: u64, stream: u32, k: usize, bytes: usize) {
        let want = pattern(stream, k, bytes);
        let ok = self
            .w
            .app_matches(HostId(host), self.space(host), vaddr, &want)
            .expect("delivered buffer readable");
        assert!(ok, "stream {stream} datagram {k} corrupted");
    }

    /// Runs the world until no event is left, takes its completed
    /// inputs, and asserts there are `expected` of them and that the
    /// fabric quiesced.
    fn drain(&mut self, expected: usize) -> Vec<RecvCompletion> {
        self.w.run();
        let done = self.w.take_completed_inputs();
        assert_eq!(done.len(), expected, "every datagram delivered");
        assert_fabric_quiesced(&self.w);
        done
    }

    /// Drains, verifies every delivery against the (host, stream,
    /// datagram) its token maps to in `expected`, and returns every
    /// latency sample.
    fn check_and_collect(
        &mut self,
        expected: &HashMap<u64, (u16, u32, usize)>,
        bytes: usize,
    ) -> Vec<SimTime> {
        let done = self.drain(expected.len());
        let mut latencies = Vec::with_capacity(done.len());
        for c in &done {
            let (host, stream, k) = expected[&c.token];
            assert_eq!(c.len, bytes);
            self.verify(host, c.vaddr, stream, k, bytes);
            latencies.push(c.latency);
        }
        latencies
    }

    /// The suite result over `latencies`, with the switch's counters.
    fn point(&self, latencies: &[SimTime]) -> SuitePoint {
        SuitePoint {
            semantics: self.semantics,
            dist: LatencyDistribution::from_samples(latencies).expect("samples"),
            switch: self.w.switch_stats().expect("switched"),
        }
    }

    /// `point` together with what the flight recorder captured.
    fn observation<P>(mut self, point: P) -> Observation<P> {
        Observation {
            point,
            metrics: self.w.metrics(),
            trace: self.w.take_trace(),
        }
    }
}

/// RPC fan-in: `clients` clients each fire `requests` pipelined
/// requests of `bytes` at one server behind a star switch. All client
/// VCs converge on the server's switch port, so requests contend in
/// its output FIFO and egress credit loop. Every request is issued up
/// front (open-loop), so its latency includes the queue it joined.
pub fn rpc_fanin(semantics: Semantics, clients: u16, requests: usize, bytes: usize) -> SuitePoint {
    rpc_fanin_world(semantics, clients, requests, bytes, None).0
}

/// [`rpc_fanin`] with the flight recorder on: tracing (sampled and
/// bounded per `cfg`), switch port observation and per-VC latency
/// capture. Instrumentation is observation-only, so the returned
/// [`SuitePoint`] is byte-identical to the unobserved run's.
pub fn rpc_fanin_observed(
    semantics: Semantics,
    clients: u16,
    requests: usize,
    bytes: usize,
    cfg: &SampleConfig,
) -> Observation<SuitePoint> {
    let (point, rig) = rpc_fanin_world(semantics, clients, requests, bytes, Some(cfg));
    rig.observation(point)
}

fn rpc_fanin_world(
    semantics: Semantics,
    clients: u16,
    requests: usize,
    bytes: usize,
    observe: Option<&SampleConfig>,
) -> (SuitePoint, Rig) {
    const VC_BASE: u32 = 100;
    // 128 cells of egress credit per (port, VC): a ~44-cell request
    // pipelines at most 2 deep per VC before the credit loop pushes
    // back, so the suite exercises hop-2 flow control, not just
    // fan-in queueing.
    let sw = SwitchConfig::star(clients + 1, 0, VC_BASE, 128);
    let mut rig = Rig::new(semantics, sw, observe, |_| {});
    let mut expected = HashMap::new();
    for i in 1..=clients {
        let vc = Vc(VC_BASE + u32::from(i));
        for k in 0..requests {
            expected.insert(rig.post(0, vc, bytes), (0, u32::from(i), k));
        }
    }
    // Interleave issue order across clients so requests pile into the
    // server port at overlapping times.
    for k in 0..requests {
        for i in 1..=clients {
            rig.send(
                i,
                Vc(VC_BASE + u32::from(i)),
                &pattern(u32::from(i), k, bytes),
            );
        }
    }
    let latencies = rig.check_and_collect(&expected, bytes);
    (rig.point(&latencies), rig)
}

/// One scale-tier run's result: the simulated distribution (byte-
/// identical at every thread count) plus the host-side wall clock of
/// the event-loop phases.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Data-passing semantics under test.
    pub semantics: Semantics,
    /// Latency distribution over every delivered datagram.
    pub dist: LatencyDistribution,
    /// Total datagrams pushed through the fabric.
    pub datagrams: usize,
    /// Simulated completion time of the last delivery, in µs.
    pub sim_us: f64,
    /// Wall-clock seconds spent draining the waves: `World::run` plus
    /// taking its completions and the quiesce check (driver-phase
    /// setup excluded).
    pub wall_s: f64,
    /// High-water mark of queued events across waves.
    pub peak_resident: usize,
}

/// The scale tier: `total` datagrams of `bytes` fanned from the
/// `hosts - 1` spokes of a star into its hub, issued in bounded waves
/// (posts, sends, one `run()` to quiesce, free the buffers) so
/// resident state stays flat no matter how many datagrams flow. Each
/// wave is issued at the spokes' own clocks, which trail the hub's, so
/// a latency includes the backlog every earlier wave left at the hub
/// port.
///
/// Integrity is spot-checked on a deterministic subsample (every
/// 101st datagram — a full check of a million 2 KB payloads would
/// dominate the wall clock this tier exists to measure); conservation
/// and quiesce are asserted every wave. Only `wall_s` depends on the
/// machine.
pub fn fabric_scale(semantics: Semantics, hosts: u16, total: usize, bytes: usize) -> ScalePoint {
    const VC_BASE: u32 = 500;
    /// Datagrams per spoke per wave: deep enough to pipeline inside a
    /// wave, shallow enough that a 64-host wave holds only a few
    /// hundred live operations.
    const PER_WAVE: usize = 4;
    assert!(hosts >= 2 && total > 0);
    let sw = SwitchConfig::star(hosts, 0, VC_BASE, 256);
    let mut rig = Rig::new(semantics, sw, None, |_| {});

    let mut latencies = Vec::with_capacity(total);
    let mut sim_end = SimTime::ZERO;
    let mut wall = std::time::Duration::ZERO;
    let mut issued = 0usize;
    let mut wave = 0usize;
    while issued < total {
        // The wave's (spoke, datagram index) pairs, issue-interleaved
        // across spokes like the fan-in suite.
        let mut pairs: Vec<(u16, usize)> = Vec::new();
        'plan: for k in 0..PER_WAVE {
            for i in 1..hosts {
                if issued + pairs.len() >= total {
                    break 'plan;
                }
                pairs.push((i, wave * PER_WAVE + k));
            }
        }
        let mut expected: HashMap<u64, (u16, usize)> = HashMap::with_capacity(pairs.len());
        for &(i, k) in &pairs {
            expected.insert(rig.post(0, Vc(VC_BASE + u32::from(i)), bytes), (i, k));
        }
        let srcs: Vec<(u16, u64)> = pairs
            .iter()
            .map(|&(i, k)| {
                let data = pattern(u32::from(i), k, bytes);
                (i, rig.send(i, Vc(VC_BASE + u32::from(i)), &data))
            })
            .collect();
        let t0 = std::time::Instant::now();
        let done = rig.drain(pairs.len());
        wall += t0.elapsed();

        for c in &done {
            let (i, k) = expected[&c.token];
            assert_eq!(c.len, bytes);
            if (issued + latencies.len()).is_multiple_of(101) {
                rig.verify(0, c.vaddr, u32::from(i), k, bytes);
            }
            latencies.push(c.latency);
            sim_end = sim_end.max(c.completed_at);
            rig.free(0, c.vaddr);
        }
        let sent = rig.w.take_completed_outputs();
        assert_eq!(sent.len(), pairs.len(), "wave {wave}: every send completed");
        for (i, src) in srcs {
            rig.free(i, src);
        }
        issued += pairs.len();
        wave += 1;
    }
    assert_eq!(latencies.len(), total);
    let peak_resident = rig.w.peak_resident_events();
    // The documented memory bound of the scale tier: queued events
    // are a function of the *wave* size, never of `total` — a handful
    // of events per live datagram. A leak in the wave drain/free
    // cycle blows this bound long before it blows RSS.
    let resident_cap = PER_WAVE * usize::from(hosts - 1) * 8;
    assert!(
        peak_resident <= resident_cap,
        "peak resident event state {peak_resident} exceeds the per-wave bound {resident_cap}"
    );
    ScalePoint {
        semantics,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        datagrams: total,
        sim_us: sim_end.as_us(),
        wall_s: wall.as_secs_f64(),
        peak_resident,
    }
}

/// N-node reduce: each of `nodes - 1` leaves ships a vector of
/// `elems` u64 counters to the root each phase; the root folds them
/// into its accumulator. Returns the distribution over every
/// per-datagram delivery latency, after checking the reduced sums.
/// Each phase starts from a quiesced world and issues every leaf's
/// vector at once (open-loop), so a latency includes the fan-in queue
/// at the root's port.
pub fn cluster_reduce(semantics: Semantics, nodes: u16, elems: usize, phases: usize) -> SuitePoint {
    const VC_BASE: u32 = 300;
    let bytes = elems * 8;
    let mut rig = Rig::new(
        semantics,
        SwitchConfig::star(nodes, 0, VC_BASE, 1024),
        None,
        |_| {},
    );

    let leaf_val = |i: u16, e: usize| (e as u64).wrapping_mul(u64::from(i)).wrapping_add(7);
    let mut acc = vec![0u64; elems];
    let mut latencies = Vec::new();
    for _phase in 0..phases {
        rig.w.quiesce();
        let mut from_leaf = HashMap::new();
        for i in 1..nodes {
            from_leaf.insert(rig.post(0, Vc(VC_BASE + u32::from(i)), bytes), i);
        }
        for i in 1..nodes {
            let data: Vec<u8> = (0..elems)
                .flat_map(|e| leaf_val(i, e).to_le_bytes())
                .collect();
            rig.send(i, Vc(VC_BASE + u32::from(i)), &data);
        }
        for c in &rig.drain(usize::from(nodes) - 1) {
            let i = from_leaf[&c.token];
            let root = rig.space(0);
            let got = rig
                .w
                .read_app(HostId(0), root, c.vaddr, c.len)
                .expect("read");
            for (e, chunk) in got.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                assert_eq!(v, leaf_val(i, e), "leaf {i} element {e} corrupted");
                acc[e] = acc[e].wrapping_add(v);
            }
            latencies.push(c.latency);
        }
    }
    // The fold must equal the directly computed reduction.
    for (e, a) in acc.iter().enumerate() {
        let want = (1..nodes)
            .map(|i| leaf_val(i, e))
            .fold(0u64, u64::wrapping_add)
            .wrapping_mul(phases as u64);
        assert_eq!(*a, want, "reduction diverged at element {e}");
    }
    rig.point(&latencies)
}

/// Multicast streaming: one server sends `frames` datagrams of
/// `bytes` on one VC, replicated at switch ingress to every
/// subscriber. Requires a fault-free world (the multicast/fault
/// restriction is structural — see `World::new`).
pub fn multicast_stream(
    semantics: Semantics,
    subscribers: u16,
    frames: usize,
    bytes: usize,
) -> SuitePoint {
    const VC: u32 = 7;
    let dsts: Vec<u16> = (1..=subscribers).collect();
    let sw = SwitchConfig::new(subscribers + 1, 512).route(0, VC, &dsts);
    let mut rig = Rig::new(semantics, sw, None, |_| {});

    let mut expected = HashMap::new();
    for i in 1..=subscribers {
        for k in 0..frames {
            expected.insert(rig.post(i, Vc(VC), bytes), (i, 0u32, k));
        }
    }
    for k in 0..frames {
        rig.send(0, Vc(VC), &pattern(0, k, bytes));
    }
    let latencies = rig.check_and_collect(&expected, bytes);
    let point = rig.point(&latencies);
    assert_eq!(
        point.switch.pdus_replicated,
        (u64::from(subscribers) - 1) * frames as u64,
        "every frame replicated to every subscriber"
    );
    point
}

/// Configuration for the CQ saturation sweep ([`cq_saturation`]).
#[derive(Clone, Debug)]
pub struct CqSuiteConfig {
    /// Client hosts fanning into the hub (the star has `clients + 1`
    /// ports).
    pub clients: u16,
    /// Requests per client.
    pub requests: usize,
    /// Payload bytes per request.
    pub bytes: usize,
    /// Queue depths to sweep (each is the fixed in-flight window per
    /// client queue pair).
    pub depths: Vec<usize>,
    /// Fault-injection plan (the sweep's simulated numbers must be
    /// identical with faults on or off only in *shape*, not value —
    /// but each plan's numbers are thread-invariant).
    pub fault: genie_fault::FaultConfig,
    /// One-way fixed wire latency in microseconds. The default OC-3c
    /// figure (12 us) models the paper's lab bench, where seven
    /// clients at queue depth 1 already cover the round trip and the
    /// sweep degenerates (the knee is always 1). A campus-span link
    /// makes the latency x concurrency product real: below the knee
    /// the hub idles waiting for the next wave, above it the hub's
    /// per-request service time is the bottleneck.
    pub link_latency_us: f64,
}

impl Default for CqSuiteConfig {
    fn default() -> Self {
        CqSuiteConfig {
            clients: 7, // the 8-host star of the scale exhibits
            requests: 48,
            // Small requests: per-request fixed latency (DMA setup,
            // switch hop, dispose) dominates at low depth, so the
            // goodput-vs-depth curve has a real knee. Large payloads
            // saturate the hub link at depth 1 and the sweep
            // degenerates.
            bytes: 256,
            depths: vec![1, 2, 4, 8, 16],
            fault: genie_fault::FaultConfig::NONE,
            link_latency_us: 800.0,
        }
    }
}

/// One queue-depth point of the saturation sweep.
#[derive(Clone, Copy, Debug)]
pub struct CqDepthPoint {
    /// Fixed in-flight window per client queue pair.
    pub depth: usize,
    /// Delivery-latency distribution over every request.
    pub dist: LatencyDistribution,
    /// Simulated completion time of the whole exchange, in µs.
    pub sim_us: f64,
    /// Delivered goodput in Mbit/s of simulated time.
    pub mbps: f64,
}

/// The saturation sweep's result for one semantics: the per-depth
/// points and the knee — the smallest depth within 5% of the best
/// goodput. Past the knee, extra queue depth buys only latency.
#[derive(Clone, Debug)]
pub struct CqSaturationPoint {
    /// Data-passing semantics under test.
    pub semantics: Semantics,
    /// One entry per swept depth, in sweep order.
    pub points: Vec<CqDepthPoint>,
    /// The knee depth.
    pub knee: usize,
}

impl CqSaturationPoint {
    /// The swept point at the knee depth.
    pub fn knee_point(&self) -> &CqDepthPoint {
        self.points
            .iter()
            .find(|p| p.depth == self.knee)
            .expect("knee is one of the swept depths")
    }
}

/// Packs a (client, request) pair into a `user_data` tag.
fn cq_tag(client: u16, k: usize) -> u64 {
    (u64::from(client) << 32) | k as u64
}

/// Response-pattern stream id for client `i` (disjoint from every
/// request stream id, which is just `i`).
fn cq_rsp_stream(i: u16) -> u32 {
    0x10_000 | u32::from(i)
}

/// One CQ RPC run at one queue depth: every client stages all its
/// requests on a queue pair whose fixed in-flight window is `depth`,
/// the hub preposts matching receives and echoes a response per
/// request (on the star's reverse route), and the driver loops
/// submit → run → harvest until both directions drain.
///
/// The round trip is what the sweep measures: a client's next submit
/// happens after `harvest` advanced its clock to the responses it just
/// observed, so a shallow window leaves the client idle for a full
/// round trip between waves while a deep one keeps the fabric fed —
/// goodput climbs with depth until the path saturates. All data is
/// integrity-spot-checked; the simulated numbers are thread-count-
/// invariant.
fn cq_fanin_world(
    semantics: Semantics,
    depth: usize,
    cfg: &CqSuiteConfig,
    observe: Option<&SampleConfig>,
) -> (CqDepthPoint, Rig) {
    use crate::cq::{self, AdaptiveConfig, CqConfig, CqResult, Landing, QueuePair, Sqe, SqeOp};

    const VC_BASE: u32 = 700;
    let (clients, requests, bytes) = (cfg.clients, cfg.requests, cfg.bytes);
    assert!(clients >= 1 && requests > 0 && depth > 0);
    let ports = clients + 1;
    let req_vc = |i: u16| Vc(VC_BASE + u32::from(i));
    let rsp_vc = |i: u16| Vc(VC_BASE + u32::from(ports) + u32::from(i));
    let sw = SwitchConfig::star(ports, 0, VC_BASE, 128);
    let mut rig = Rig::new(semantics, sw, observe, |wc| {
        wc.fault = cfg.fault;
        wc.link.fixed_latency = SimTime::from_us(cfg.link_latency_us);
    });

    // Queue pair 0 is the hub's; 1..=clients are the clients'. The
    // sweep's knob is the *client* window; the hub answers unthrottled
    // (its window only gates sends, sized for every response at once).
    let total = usize::from(clients) * requests;
    let mut qps = Vec::with_capacity(usize::from(ports));
    qps.push(QueuePair::new(
        HostId(0),
        semantics,
        CqConfig {
            sq_depth: 2 * total + 4,
            cq_depth: 64,
            window: AdaptiveConfig::fixed(total),
        },
    ));
    for i in 1..=clients {
        qps.push(QueuePair::new(
            HostId(i),
            semantics,
            CqConfig {
                sq_depth: 2 * requests + 4,
                cq_depth: 64,
                window: AdaptiveConfig::fixed(depth),
            },
        ));
    }

    // Hub preposts every request receive, interleaved across clients
    // like the fan-in suite; clients prepost every response receive.
    for k in 0..requests {
        for i in 1..=clients {
            let buffer = rig.buffer(0, req_vc(i), bytes);
            qps[0]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::PostRecv {
                        vc: req_vc(i),
                        space: rig.space(0),
                        buffer,
                        len: bytes,
                    },
                })
                .expect("hub SQ sized for all preposts");
            let buffer = rig.buffer(i, rsp_vc(i), bytes);
            qps[usize::from(i)]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::PostRecv {
                        vc: rsp_vc(i),
                        space: rig.space(i),
                        buffer,
                        len: bytes,
                    },
                })
                .expect("client SQ sized for all preposts");
        }
    }
    // Clients stage every request up front; the window meters the wire.
    for k in 0..requests {
        for i in 1..=clients {
            let src = rig.source(i, &pattern(u32::from(i), k, bytes));
            qps[usize::from(i)]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::Send {
                        vc: req_vc(i),
                        space: rig.space(i),
                        vaddr: src,
                        len: bytes,
                    },
                })
                .expect("client SQ sized for all requests");
        }
    }

    let mut latencies = Vec::with_capacity(total);
    let mut recvd = 0usize; // requests delivered at the hub
    let mut answered = 0usize; // responses delivered at clients
    let mut client_sent = 0usize;
    let mut hub_sent = 0usize;
    while recvd < total || answered < total || client_sent < total || hub_sent < total {
        let mut progress = 0;
        for qp in qps.iter_mut() {
            progress += qp.submit(&mut rig.w);
        }
        rig.w.run();
        progress += cq::harvest(&mut rig.w, &mut qps);
        while let Some(c) = qps[0].poll() {
            assert_eq!(c.result, CqResult::Ok);
            match c.landing {
                Landing::Delivered { vaddr, latency, .. } => {
                    assert_eq!(c.len, bytes);
                    let (i, k) = ((c.user_data >> 32) as u16, c.user_data as u32 as usize);
                    // Integrity spot check on a deterministic subsample.
                    if recvd.is_multiple_of(7) {
                        rig.verify(0, vaddr, u32::from(i), k, bytes);
                    }
                    latencies.push(latency);
                    recvd += 1;
                    // Echo a response on the reverse route.
                    let src = rig.source(0, &pattern(cq_rsp_stream(i), k, bytes));
                    qps[0]
                        .post(Sqe {
                            user_data: cq_tag(i, k),
                            op: SqeOp::Send {
                                vc: rsp_vc(i),
                                space: rig.space(0),
                                vaddr: src,
                                len: bytes,
                            },
                        })
                        .expect("hub SQ sized for all responses");
                }
                Landing::Sent { .. } => hub_sent += 1,
                Landing::None => panic!("unexpected hub completion: {c:?}"),
            }
        }
        for (qi, qp) in qps.iter_mut().enumerate().skip(1) {
            while let Some(c) = qp.poll() {
                match c.landing {
                    Landing::Delivered { vaddr, .. } => {
                        assert_eq!(c.len, bytes);
                        let (i, k) = ((c.user_data >> 32) as u16, c.user_data as u32 as usize);
                        assert_eq!(usize::from(i), qi);
                        if answered.is_multiple_of(13) {
                            rig.verify(i, vaddr, cq_rsp_stream(i), k, bytes);
                        }
                        answered += 1;
                    }
                    Landing::Sent { .. } => client_sent += 1,
                    Landing::None => panic!("unexpected client completion: {c:?}"),
                }
            }
        }
        assert!(
            progress > 0,
            "cq rpc stalled at {recvd}/{total} requests, {answered}/{total} responses"
        );
    }
    // The queue pairs harvested every completion: the closing drain
    // finds none left, and the fabric quiesced.
    rig.drain(0);
    assert_eq!(qps[0].sq_rejects(), 0, "hub SQ was sized for the run");
    let sim_us = rig.w.now().as_us();
    let point = CqDepthPoint {
        depth,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        sim_us,
        mbps: (total * bytes) as f64 * 8.0 / sim_us,
    };
    (point, rig)
}

/// Sweeps queue depth for one semantics and finds the saturation knee:
/// the smallest depth whose goodput is within 5% of the sweep's best.
pub fn cq_saturation(semantics: Semantics, cfg: &CqSuiteConfig) -> CqSaturationPoint {
    let points: Vec<CqDepthPoint> = cfg
        .depths
        .iter()
        .map(|&d| cq_fanin_world(semantics, d, cfg, None).0)
        .collect();
    let best = points.iter().map(|p| p.mbps).fold(0.0f64, f64::max);
    let knee = points
        .iter()
        .find(|p| p.mbps >= best * 0.95)
        .expect("at least one depth swept")
        .depth;
    CqSaturationPoint {
        semantics,
        points,
        knee,
    }
}

/// One CQ fan-in run with the flight recorder on: sampled tracing plus
/// the `cq_*.depth` / `cq_*.window` series and their `rollup.cq`
/// aggregates. Observation-only: the returned point is byte-identical
/// to the unobserved run's.
pub fn cq_fanin_observed(
    semantics: Semantics,
    depth: usize,
    cfg: &CqSuiteConfig,
    sample: &SampleConfig,
) -> Observation<CqDepthPoint> {
    let (point, rig) = cq_fanin_world(semantics, depth, cfg, Some(sample));
    rig.observation(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_fanin_smoke() {
        let p = rpc_fanin(Semantics::EmulatedCopy, 4, 3, 2048);
        assert_eq!(p.dist.count, 12);
        assert_eq!(p.switch.pdus_ingress, 12);
        assert_eq!(p.switch.pdus_dispatched, 12);
        assert!(p.dist.p99 >= p.dist.p50);
        // Fan-in of 4 clients into one port queues behind the egress
        // link: the tail must sit above the uncontended median.
        assert!(p.dist.max > p.dist.min);
    }

    #[test]
    fn cluster_reduce_smoke() {
        let p = cluster_reduce(Semantics::Move, 5, 512, 2);
        assert_eq!(p.dist.count, 8); // 4 leaves x 2 phases
        assert_eq!(p.switch.pdus_ingress, 8);
    }

    #[test]
    fn multicast_smoke() {
        let p = multicast_stream(Semantics::EmulatedCopy, 3, 4, 4096);
        assert_eq!(p.dist.count, 12); // 3 subscribers x 4 frames
        assert_eq!(p.switch.pdus_ingress, 4);
        assert_eq!(p.switch.pdus_replicated, 8);
        assert_eq!(p.switch.pdus_dispatched, 12);
    }

    #[test]
    fn fabric_scale_smoke_is_thread_invariant() {
        // Small slice of the scale tier: enough waves to cycle buffer
        // reuse, swept over semantics at 1 and 4 runner threads.
        let semantics = [
            Semantics::Copy,
            Semantics::Move,
            Semantics::EmulatedWeakMove,
        ];
        let run = |threads| {
            genie_runner::with_threads(threads, || {
                genie_runner::map(&semantics, |&s| fabric_scale(s, 8, 200, 1024))
            })
        };
        let (serial, parallel) = (run(1), run(4));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.datagrams, 200);
            assert_eq!(a.dist.count, 200);
            assert_eq!(
                (a.dist.p50, a.dist.p99, a.dist.max, a.sim_us.to_bits()),
                (b.dist.p50, b.dist.p99, b.dist.max, b.sim_us.to_bits()),
                "{:?}: scale tier simulated results must not depend on thread count",
                a.semantics
            );
            assert_eq!(a.peak_resident, b.peak_resident);
            assert!(a.sim_us > 0.0 && a.wall_s > 0.0);
            assert!(a.peak_resident > 0 && a.peak_resident < 10_000);
        }
    }

    #[test]
    fn cq_saturation_finds_a_knee() {
        let cfg = CqSuiteConfig {
            clients: 3,
            requests: 4,
            bytes: 1024,
            depths: vec![1, 4],
            ..CqSuiteConfig::default()
        };
        let p = cq_saturation(Semantics::EmulatedCopy, &cfg);
        assert_eq!(p.points.len(), 2);
        assert!(p.points.iter().all(|d| d.dist.count == 12 && d.mbps > 0.0));
        assert!(cfg.depths.contains(&p.knee));
        assert_eq!(p.knee_point().depth, p.knee);
        // Deeper queues can only help goodput in this fan-in (more
        // wire overlap per wave).
        assert!(p.points[1].mbps >= p.points[0].mbps);
    }

    #[test]
    fn cq_saturation_is_thread_invariant_with_and_without_faults() {
        use genie_fault::FaultConfig;
        let (strong, weak) = (
            [Semantics::Move, Semantics::EmulatedCopy],
            [Semantics::Copy, Semantics::WeakMove],
        );
        for (fault, semantics) in [
            (FaultConfig::NONE, strong),
            (FaultConfig::masked(11), strong),
            (FaultConfig::NONE, weak),
        ] {
            let cfg = CqSuiteConfig {
                clients: 3,
                requests: 4,
                bytes: 1024,
                depths: vec![2, 8],
                fault,
                link_latency_us: 800.0,
            };
            let run = |threads| {
                genie_runner::with_threads(threads, || {
                    genie_runner::map(&semantics, |&s| cq_saturation(s, &cfg))
                })
            };
            let sig = |ps: &[CqSaturationPoint]| {
                ps.iter()
                    .map(|p| {
                        (
                            p.knee,
                            p.points
                                .iter()
                                .map(|d| {
                                    (d.dist.p50, d.dist.p99, d.sim_us.to_bits(), d.mbps.to_bits())
                                })
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                sig(&run(1)),
                sig(&run(4)),
                "cq saturation results must not depend on thread count \
                 ({semantics:?}, faults: {})",
                fault.active()
            );
        }
    }

    #[test]
    fn observing_a_suite_does_not_move_its_point() {
        let sample = SampleConfig::default();
        let cfg = CqSuiteConfig::default();
        genie_runner::map(ALL_SEMANTICS, |&s| {
            let seen = rpc_fanin_observed(s, 7, 8, 2048, &sample).point;
            let plain = rpc_fanin(s, 7, 8, 2048);
            assert_eq!(
                (seen.semantics, seen.dist, seen.switch),
                (plain.semantics, plain.dist, plain.switch),
                "{s:?}: observing rpc_fanin moved its point"
            );
            let seen = cq_fanin_observed(s, 4, &cfg, &sample).point;
            let sweep = cq_saturation(s, &cfg);
            let plain = sweep
                .points
                .iter()
                .find(|p| p.depth == 4)
                .expect("the default sweep runs depth 4");
            let key = |p: &CqDepthPoint| (p.depth, p.dist, p.sim_us.to_bits(), p.mbps.to_bits());
            assert_eq!(
                key(&seen),
                key(plain),
                "{s:?}: observing the CQ fan-in moved its point"
            );
        });
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let run = |threads: usize| {
            genie_runner::set_threads(threads);
            let out = genie_runner::map(&[Semantics::Copy, Semantics::EmulatedCopy], |&s| {
                rpc_fanin(s, 3, 2, 1024)
            });
            genie_runner::set_threads(0);
            out.iter()
                .map(|p| (p.semantics, p.dist.p50, p.dist.p99))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }
}
