//! N-host switched-fabric experiment suites.
//!
//! The paper's measurements are two-host point experiments; these
//! suites put the same eight semantics under *contention* — the regime
//! production deployments live in — on switched topologies:
//!
//! - [`rpc_fanin`]: many clients fan requests into one server port
//!   (the switch's output-port FIFO and egress credit loop are the
//!   bottleneck);
//! - [`cluster_reduce`]: an N-node reduction — every node ships its
//!   vector to the root each phase, the root folds;
//! - [`multicast_stream`]: one sender replicated at switch ingress to
//!   many subscribers.
//!
//! Each suite verifies end-to-end integrity (every delivered byte is
//! checked against the pattern the sender wrote), verifies the fabric
//! quiesced (no PDU stranded in a port FIFO), and reports the latency
//! *distribution* per semantics — under contention the spread carries
//! the signal, so results come back as [`LatencyDistribution`]
//! (p50/p99) plus the switch's own counters.
//!
//! Worlds are single-threaded by construction; a sweep over semantics
//! spreads the independent worlds (disjoint host groups) across
//! genie-runner workers, so `sweep` output is byte-identical at any
//! thread count.

use std::collections::HashMap;

use genie_machine::{MachineSpec, SimTime};
use genie_net::{SwitchConfig, SwitchStats, Vc};
use genie_vm::SpaceId;

use crate::error::GenieError;
use crate::experiment::LatencyDistribution;
use crate::semantics::{Allocation, Semantics};
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

/// The eight semantics, in the taxonomy's display order (the order
/// every suite sweeps).
pub const ALL_SEMANTICS: &[Semantics] = &[
    Semantics::Copy,
    Semantics::EmulatedCopy,
    Semantics::Share,
    Semantics::EmulatedShare,
    Semantics::Move,
    Semantics::EmulatedMove,
    Semantics::WeakMove,
    Semantics::EmulatedWeakMove,
];

/// Runs `f` once per semantics, spreading the independent worlds across
/// genie-runner workers (each world is one isolated host group, so the
/// sweep is deterministic at any thread count).
pub fn sweep<F>(semantics: &[Semantics], f: F) -> Vec<SuitePoint>
where
    F: Fn(Semantics) -> SuitePoint + Sync,
{
    genie_runner::map(semantics, |&s| f(s))
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

/// Allocates a source buffer appropriate for `semantics` and fills it.
fn alloc_filled(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    semantics: Semantics,
    data: &[u8],
) -> Result<u64, GenieError> {
    let vaddr = match semantics.allocation() {
        Allocation::Application => w.alloc_buffer(host, space, data.len(), 0)?,
        Allocation::System => w.host_mut(host).alloc_io_buffer(space, data.len())?.1,
    };
    w.app_write(host, space, vaddr, data)?;
    Ok(vaddr)
}

/// Posts an input appropriate for `semantics` and returns its token.
fn post_input(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    semantics: Semantics,
    vc: Vc,
    bytes: usize,
) -> Result<u64, GenieError> {
    match semantics.allocation() {
        Allocation::Application => {
            let (off, _gran) = w.preferred_alignment(host, vc);
            let dst = w.alloc_buffer(host, space, bytes, off)?;
            w.input(
                host,
                crate::input::InputRequest::app(semantics, vc, space, dst, bytes),
            )
        }
        Allocation::System => w.input(
            host,
            crate::input::InputRequest::system(semantics, vc, space, bytes),
        ),
    }
}

/// Collects completions, checks each against its expected pattern, and
/// returns every latency sample.
fn check_and_collect(
    w: &mut World,
    expected: &HashMap<u64, (HostId, SpaceId, u32, usize)>,
    bytes: usize,
) -> Vec<SimTime> {
    let done = w.take_completed_inputs();
    assert_eq!(done.len(), expected.len(), "every datagram delivered");
    let mut latencies = Vec::with_capacity(done.len());
    for c in &done {
        let (host, space, stream, k) = expected[&c.token];
        assert_eq!(c.len, bytes);
        let want = pattern(stream, k, bytes);
        let ok = w
            .app_matches(host, space, c.vaddr, &want)
            .expect("delivered buffer readable");
        assert!(ok, "stream {stream} datagram {k} corrupted");
        latencies.push(c.latency);
    }
    latencies
}

/// An observed suite run: the usual [`SuitePoint`] plus everything
/// the flight recorder captured — the unified metrics registry (with
/// per-host, per-port and per-VC rollups) and the sampled trace. Only
/// [`rpc_fanin_observed`] pays for this; the plain suites stay
/// instrumentation-free.
#[derive(Debug)]
pub struct FabricObservation {
    /// The suite result, identical to the unobserved run's.
    pub point: SuitePoint,
    /// Unified metrics at quiesce (rollups included).
    pub metrics: genie_trace::metrics::MetricsRegistry,
    /// The sampled trace, with its dropped-span ledger.
    pub trace: genie_trace::TraceSet,
}

/// RPC fan-in: `clients` clients each fire `requests` pipelined
/// requests of `bytes` at one server behind a star switch. All client
/// VCs converge on the server's switch port, so requests contend in
/// its output FIFO and egress credit loop.
pub fn rpc_fanin(semantics: Semantics, clients: u16, requests: usize, bytes: usize) -> SuitePoint {
    rpc_fanin_world(semantics, clients, requests, bytes, None).0
}

/// [`rpc_fanin`] with the flight recorder on: tracing (sampled per
/// `GENIE_TRACE_SAMPLE` / bounded per `GENIE_TRACE_BUDGET`), switch
/// port observation and per-VC latency capture. Instrumentation is
/// observation-only, so the returned [`SuitePoint`] is byte-identical
/// to the unobserved run's.
pub fn rpc_fanin_observed(
    semantics: Semantics,
    clients: u16,
    requests: usize,
    bytes: usize,
) -> FabricObservation {
    rpc_fanin_observed_with(
        semantics,
        clients,
        requests,
        bytes,
        &genie_trace::SampleConfig::from_env(),
    )
}

/// [`rpc_fanin_observed`] with an explicit sampling configuration —
/// the determinism and flight-recorder tests use this so they never
/// depend on (or race over) process environment.
pub fn rpc_fanin_observed_with(
    semantics: Semantics,
    clients: u16,
    requests: usize,
    bytes: usize,
    cfg: &genie_trace::SampleConfig,
) -> FabricObservation {
    let (point, mut w) = rpc_fanin_world(semantics, clients, requests, bytes, Some(cfg));
    FabricObservation {
        point,
        metrics: w.metrics(),
        trace: w.take_trace(),
    }
}

fn rpc_fanin_world(
    semantics: Semantics,
    clients: u16,
    requests: usize,
    bytes: usize,
    observe: Option<&genie_trace::SampleConfig>,
) -> (SuitePoint, World) {
    const VC_BASE: u32 = 100;
    let ports = clients + 1;
    // 128 cells of egress credit per (port, VC): a ~44-cell request
    // pipelines at most 2 deep per VC before the credit loop pushes
    // back, so the suite exercises hop-2 flow control, not just
    // fan-in queueing.
    let sw = SwitchConfig::star(ports, 0, VC_BASE, 128);
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        ports as usize,
        sw,
    ));
    if let Some(cfg) = observe {
        w.enable_tracing(true);
        w.set_sampling(cfg);
    }
    let server = w.create_process(HostId(0));
    let procs: Vec<SpaceId> = (1..=clients).map(|i| w.create_process(HostId(i))).collect();

    let mut expected = HashMap::new();
    for i in 1..=clients {
        let vc = Vc(VC_BASE + u32::from(i));
        for k in 0..requests {
            let tok = post_input(&mut w, HostId(0), server, semantics, vc, bytes).expect("prepost");
            expected.insert(tok, (HostId(0), server, u32::from(i), k));
        }
    }
    // Interleave issue order across clients so requests pile into the
    // server port at overlapping times.
    for k in 0..requests {
        for i in 1..=clients {
            let space = procs[usize::from(i) - 1];
            let data = pattern(u32::from(i), k, bytes);
            let src = alloc_filled(&mut w, HostId(i), space, semantics, &data).expect("src");
            w.output(
                HostId(i),
                crate::output::OutputRequest::new(
                    semantics,
                    Vc(VC_BASE + u32::from(i)),
                    space,
                    src,
                    bytes,
                ),
            )
            .expect("request");
        }
    }
    w.run();
    let latencies = check_and_collect(&mut w, &expected, bytes);
    assert_fabric_quiesced(&w);
    let point = SuitePoint {
        semantics,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        switch: w.switch_stats().expect("switched"),
    };
    (point, w)
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
    /// Wall-clock seconds spent inside `World::run` (driver-phase
    /// setup excluded).
    pub wall_s: f64,
    /// High-water mark of queued events across waves.
    pub peak_resident: usize,
}

/// Datagram budget for one scale-tier run: `GENIE_SCALE_DATAGRAMS`,
/// default 125 000 per semantics (the eight-semantics sweep then
/// totals one million datagrams).
pub fn scale_datagrams() -> usize {
    std::env::var("GENIE_SCALE_DATAGRAMS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(125_000)
}

/// The scale tier: `total` datagrams of `bytes` fanned from the
/// `hosts - 1` spokes of a star into its hub, issued in bounded waves
/// (posts, sends, one `run()` to quiesce, free the buffers) so
/// resident state stays flat no matter how many datagrams flow.
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
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(hosts),
        sw,
    ));
    let hub = w.create_process(HostId(0));
    let procs: Vec<SpaceId> = (1..hosts).map(|i| w.create_process(HostId(i))).collect();

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
            let vc = Vc(VC_BASE + u32::from(i));
            let tok = post_input(&mut w, HostId(0), hub, semantics, vc, bytes).expect("prepost");
            expected.insert(tok, (i, k));
        }
        let mut srcs: Vec<(u16, u64)> = Vec::with_capacity(pairs.len());
        for &(i, k) in &pairs {
            let space = procs[usize::from(i) - 1];
            let data = pattern(u32::from(i), k, bytes);
            let src = alloc_filled(&mut w, HostId(i), space, semantics, &data).expect("src");
            w.output(
                HostId(i),
                crate::output::OutputRequest::new(
                    semantics,
                    Vc(VC_BASE + u32::from(i)),
                    space,
                    src,
                    bytes,
                ),
            )
            .expect("send");
            srcs.push((i, src));
        }
        let t0 = std::time::Instant::now();
        w.run();
        wall += t0.elapsed();

        let done = w.take_completed_inputs();
        assert_eq!(
            done.len(),
            pairs.len(),
            "wave {wave}: every datagram delivered"
        );
        for c in &done {
            let (i, k) = expected[&c.token];
            assert_eq!(c.len, bytes);
            if (issued + latencies.len()).is_multiple_of(101) {
                let want = pattern(u32::from(i), k, bytes);
                let ok = w
                    .app_matches(HostId(0), hub, c.vaddr, &want)
                    .expect("delivered buffer readable");
                assert!(ok, "spoke {i} datagram {k} corrupted");
            }
            latencies.push(c.latency);
            sim_end = sim_end.max(c.completed_at);
            let _ = w.host_mut(HostId(0)).free_buffer(hub, c.vaddr);
        }
        let sent = w.take_completed_outputs();
        assert_eq!(sent.len(), pairs.len(), "wave {wave}: every send completed");
        for (i, src) in srcs {
            let space = procs[usize::from(i) - 1];
            let _ = w.host_mut(HostId(i)).free_buffer(space, src);
        }
        assert_fabric_quiesced(&w);
        issued += pairs.len();
        wave += 1;
    }
    assert_eq!(latencies.len(), total);
    let peak_resident = w.peak_resident_events();
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
pub fn cluster_reduce(semantics: Semantics, nodes: u16, elems: usize, phases: usize) -> SuitePoint {
    const VC_BASE: u32 = 300;
    let bytes = elems * 8;
    let sw = SwitchConfig::star(nodes, 0, VC_BASE, 1024);
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(nodes),
        sw,
    ));
    let root = w.create_process(HostId(0));
    let leaves: Vec<SpaceId> = (1..nodes).map(|i| w.create_process(HostId(i))).collect();

    let leaf_val = |i: u16, e: usize| (e as u64).wrapping_mul(u64::from(i)).wrapping_add(7);
    let mut acc = vec![0u64; elems];
    let mut latencies = Vec::new();
    for _phase in 0..phases {
        w.quiesce();
        let mut from_leaf = HashMap::new();
        for i in 1..nodes {
            let vc = Vc(VC_BASE + u32::from(i));
            let tok = post_input(&mut w, HostId(0), root, semantics, vc, bytes).expect("prepost");
            from_leaf.insert(tok, i);
        }
        for i in 1..nodes {
            let space = leaves[usize::from(i) - 1];
            let data: Vec<u8> = (0..elems)
                .flat_map(|e| leaf_val(i, e).to_le_bytes())
                .collect();
            let src = alloc_filled(&mut w, HostId(i), space, semantics, &data).expect("src");
            w.output(
                HostId(i),
                crate::output::OutputRequest::new(
                    semantics,
                    Vc(VC_BASE + u32::from(i)),
                    space,
                    src,
                    bytes,
                ),
            )
            .expect("send half");
        }
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(done.len(), usize::from(nodes) - 1, "all halves delivered");
        for c in &done {
            let i = from_leaf[&c.token];
            let got = w.read_app(HostId(0), root, c.vaddr, c.len).expect("read");
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
    assert_fabric_quiesced(&w);
    SuitePoint {
        semantics,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        switch: w.switch_stats().expect("switched"),
    }
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
    let ports = subscribers + 1;
    let dsts: Vec<u16> = (1..=subscribers).collect();
    let sw = SwitchConfig::new(ports, 512).route(0, VC, &dsts);
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(ports),
        sw,
    ));
    let server = w.create_process(HostId(0));
    let subs: Vec<SpaceId> = (1..=subscribers)
        .map(|i| w.create_process(HostId(i)))
        .collect();

    let mut expected = HashMap::new();
    for i in 1..=subscribers {
        let space = subs[usize::from(i) - 1];
        for k in 0..frames {
            let tok =
                post_input(&mut w, HostId(i), space, semantics, Vc(VC), bytes).expect("prepost");
            expected.insert(tok, (HostId(i), space, 0u32, k));
        }
    }
    for k in 0..frames {
        let data = pattern(0, k, bytes);
        let src = alloc_filled(&mut w, HostId(0), server, semantics, &data).expect("src");
        w.output(
            HostId(0),
            crate::output::OutputRequest::new(semantics, Vc(VC), server, src, bytes),
        )
        .expect("send frame");
    }
    w.run();
    let latencies = check_and_collect(&mut w, &expected, bytes);
    assert_fabric_quiesced(&w);
    let stats = w.switch_stats().expect("switched");
    assert_eq!(
        stats.pdus_replicated,
        (u64::from(subscribers) - 1) * frames as u64,
        "every frame replicated to every subscriber"
    );
    SuitePoint {
        semantics,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        switch: stats,
    }
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

/// An observed CQ fan-in run: the depth point plus the flight
/// recorder's captures (metrics with `cq_*` series and `rollup.cq`
/// aggregates, and the sampled trace).
#[derive(Debug)]
pub struct CqObservation {
    /// The run result, identical to the unobserved run's.
    pub point: CqDepthPoint,
    /// Unified metrics at quiesce (rollups included).
    pub metrics: genie_trace::metrics::MetricsRegistry,
    /// The sampled trace, with its dropped-span ledger.
    pub trace: genie_trace::TraceSet,
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
    observe: Option<&genie_trace::SampleConfig>,
) -> (CqDepthPoint, World) {
    use crate::cq::{self, CqConfig, Landing, Sqe, SqeOp};

    const VC_BASE: u32 = 700;
    let (clients, requests, bytes) = (cfg.clients, cfg.requests, cfg.bytes);
    assert!(clients >= 1 && requests > 0 && depth > 0);
    let ports = clients + 1;
    let req_vc = |i: u16| Vc(VC_BASE + u32::from(i));
    let rsp_vc = |i: u16| Vc(VC_BASE + u32::from(ports) + u32::from(i));
    let sw = SwitchConfig::star(ports, 0, VC_BASE, 128);
    let mut wc = WorldConfig::switched(MachineSpec::micron_p166(), usize::from(ports), sw);
    wc.fault = cfg.fault;
    wc.link.fixed_latency = SimTime::from_us(cfg.link_latency_us);
    let mut w = World::new(wc);
    if let Some(sample) = observe {
        w.enable_tracing(true);
        w.set_sampling(sample);
    }
    let hub = w.create_process(HostId(0));
    let procs: Vec<SpaceId> = (1..=clients).map(|i| w.create_process(HostId(i))).collect();

    // Queue pair 0 is the hub's; 1..=clients are the clients'. The
    // sweep's knob is the *client* window; the hub answers unthrottled
    // (its window only gates sends, sized for every response at once).
    let total = usize::from(clients) * requests;
    let mut qps = Vec::with_capacity(usize::from(ports));
    qps.push(crate::cq::QueuePair::new(
        HostId(0),
        semantics,
        CqConfig {
            sq_depth: 2 * total + 4,
            cq_depth: 64,
            window: crate::cq::AdaptiveConfig::fixed(total),
        },
    ));
    for i in 1..=clients {
        qps.push(crate::cq::QueuePair::new(
            HostId(i),
            semantics,
            CqConfig {
                sq_depth: 2 * requests + 4,
                cq_depth: 64,
                window: crate::cq::AdaptiveConfig::fixed(depth),
            },
        ));
    }

    // Allocates a receive buffer appropriate for `semantics` at the
    // circuit's preferred alignment.
    fn recv_buffer(
        w: &mut World,
        host: HostId,
        space: SpaceId,
        semantics: Semantics,
        vc: Vc,
        bytes: usize,
    ) -> Option<u64> {
        match semantics.allocation() {
            Allocation::Application => {
                let (off, _gran) = w.preferred_alignment(host, vc);
                Some(w.alloc_buffer(host, space, bytes, off).expect("recv buf"))
            }
            Allocation::System => None,
        }
    }

    // Hub preposts every request receive, interleaved across clients
    // like the fan-in suite; clients prepost every response receive.
    for k in 0..requests {
        for i in 1..=clients {
            let buffer = recv_buffer(&mut w, HostId(0), hub, semantics, req_vc(i), bytes);
            qps[0]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::PostRecv {
                        vc: req_vc(i),
                        space: hub,
                        buffer,
                        len: bytes,
                    },
                })
                .expect("hub SQ sized for all preposts");
            let space = procs[usize::from(i) - 1];
            let buffer = recv_buffer(&mut w, HostId(i), space, semantics, rsp_vc(i), bytes);
            qps[usize::from(i)]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::PostRecv {
                        vc: rsp_vc(i),
                        space,
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
            let space = procs[usize::from(i) - 1];
            let data = pattern(u32::from(i), k, bytes);
            let src = alloc_filled(&mut w, HostId(i), space, semantics, &data).expect("src");
            qps[usize::from(i)]
                .post(Sqe {
                    user_data: cq_tag(i, k),
                    op: SqeOp::Send {
                        vc: req_vc(i),
                        space,
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
            progress += qp.submit(&mut w);
        }
        w.run();
        progress += cq::harvest(&mut w, &mut qps);
        while let Some(c) = qps[0].poll() {
            assert_eq!(c.result, crate::cq::CqResult::Ok);
            match c.landing {
                Landing::Delivered { vaddr, latency, .. } => {
                    assert_eq!(c.len, bytes);
                    let (i, k) = ((c.user_data >> 32) as u16, c.user_data as u32 as usize);
                    // Integrity spot check on a deterministic subsample.
                    if recvd.is_multiple_of(7) {
                        let want = pattern(u32::from(i), k, bytes);
                        let ok = w
                            .app_matches(HostId(0), hub, vaddr, &want)
                            .expect("delivered buffer readable");
                        assert!(ok, "client {i} request {k} corrupted");
                    }
                    latencies.push(latency);
                    recvd += 1;
                    // Echo a response on the reverse route.
                    let data = pattern(cq_rsp_stream(i), k, bytes);
                    let src =
                        alloc_filled(&mut w, HostId(0), hub, semantics, &data).expect("rsp src");
                    qps[0]
                        .post(Sqe {
                            user_data: cq_tag(i, k),
                            op: SqeOp::Send {
                                vc: rsp_vc(i),
                                space: hub,
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
                            let want = pattern(cq_rsp_stream(i), k, bytes);
                            let space = procs[qi - 1];
                            let ok = w
                                .app_matches(HostId(i), space, vaddr, &want)
                                .expect("response readable");
                            assert!(ok, "response to client {i} request {k} corrupted");
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
    assert_fabric_quiesced(&w);
    assert_eq!(qps[0].sq_rejects(), 0, "hub SQ was sized for the run");
    let sim_us = w.now().as_us();
    let point = CqDepthPoint {
        depth,
        dist: LatencyDistribution::from_samples(&latencies).expect("samples"),
        sim_us,
        mbps: (total * bytes) as f64 * 8.0 / sim_us,
    };
    (point, w)
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

/// [`cq_saturation`] over every semantics, independent worlds spread
/// across genie-runner workers (byte-identical at any thread count).
pub fn cq_sweep(cfg: &CqSuiteConfig) -> Vec<CqSaturationPoint> {
    genie_runner::map(ALL_SEMANTICS, |&s| cq_saturation(s, cfg))
}

/// One CQ fan-in run with the flight recorder on: sampled tracing plus
/// the `cq_*.depth` / `cq_*.window` series and their `rollup.cq`
/// aggregates. Observation-only: the returned point is byte-identical
/// to the unobserved run's.
pub fn cq_fanin_observed(
    semantics: Semantics,
    depth: usize,
    cfg: &CqSuiteConfig,
    sample: &genie_trace::SampleConfig,
) -> CqObservation {
    let (point, mut w) = cq_fanin_world(semantics, depth, cfg, Some(sample));
    CqObservation {
        point,
        metrics: w.metrics(),
        trace: w.take_trace(),
    }
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
        for fault in [
            genie_fault::FaultConfig::NONE,
            genie_fault::FaultConfig::masked(11),
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
                    genie_runner::map(&[Semantics::Move, Semantics::EmulatedCopy], |&s| {
                        cq_saturation(s, &cfg)
                    })
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
                "cq saturation results must not depend on thread count (faults: {})",
                fault.active()
            );
        }
    }

    #[test]
    fn cq_sweep_is_thread_count_invariant() {
        let cfg = CqSuiteConfig {
            clients: 2,
            requests: 3,
            bytes: 1024,
            depths: vec![1, 4],
            ..CqSuiteConfig::default()
        };
        let run = |threads: usize| {
            genie_runner::set_threads(threads);
            let out = genie_runner::map(&[Semantics::Copy, Semantics::WeakMove], |&s| {
                cq_saturation(s, &cfg)
            });
            genie_runner::set_threads(0);
            out.iter()
                .map(|p| {
                    (
                        p.semantics,
                        p.knee,
                        p.knee_point().dist.p50,
                        p.knee_point().dist.p99,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let run = |threads: usize| {
            genie_runner::set_threads(threads);
            let out = sweep(&[Semantics::Copy, Semantics::EmulatedCopy], |s| {
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
