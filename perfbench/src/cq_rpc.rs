//! `cq_rpc`: request/response RPC through `genie::cq` queue pairs on an
//! 8-host star with a campus-span (800 µs) wire. Seven clients send
//! 256 B requests to the hub under fixed in-flight windows of 1, 4 and
//! 16; the hub echoes a response per request on the star's reverse VC.
//!
//! An episode is one world running one phase per semantics. A step is
//! one driver iteration (submit every queue pair, run, harvest, poll
//! and react), or a phase's prologue (build the queue pairs, prepost
//! every receive, stage every request). An op is one round trip:
//! request delivered and verified at the hub, response delivered and
//! verified at its client.

use std::rc::Rc;

use genie::{
    cq, Allocation, CqConfig, CqResult, HostId, Landing, QueuePair, Semantics, Sqe, SqeOp, World,
    WorldConfig, ALL_SEMANTICS,
};
use genie_machine::{MachineSpec, SimTime};
use genie_net::{SwitchConfig, Vc};
use genie_vm::SpaceId;

use crate::cx::{Abort, Counts, Cx, Fingerprint, Patterns};
use crate::fanin::check_quiesced;
use crate::probe::{Layer, Probe};
use crate::workload::{Episode, Workload};

const VC_BASE: u32 = 700;
const HUB: HostId = HostId(0);
/// Fixed in-flight windows, assigned to clients round robin.
const WINDOWS: [usize; 3] = [1, 4, 16];

/// The CQ RPC workload.
#[derive(Clone)]
pub struct CqRpc {
    /// Client hosts (the star has one more port, the hub).
    pub clients: u16,
    /// Request and response size.
    pub bytes: usize,
    /// Requests per client per phase.
    pub requests: usize,
    /// One-way fixed wire latency in µs.
    pub link_us: f64,
    /// Required fingerprint of an episode's simulated output.
    pub fingerprint: Option<u64>,
    /// Payload source.
    pub patterns: Rc<Patterns>,
    /// Self-test hook: scribble on every n-th delivered response
    /// before it is verified (0 = never).
    pub corrupt_every: usize,
}

/// Fingerprint of one `cq_rpc` episode's simulated latencies.
pub const FINGERPRINT: u64 = 0x2d5b_47df_38d4_4a3a;

impl CqRpc {
    /// The benchmark's configuration.
    pub fn new(seed: u64) -> Self {
        CqRpc {
            clients: 7,
            bytes: 256,
            requests: 24,
            link_us: 800.0,
            fingerprint: Some(FINGERPRINT),
            patterns: Rc::new(Patterns::new(seed, 256)),
            corrupt_every: 0,
        }
    }

    fn ports(&self) -> u16 {
        self.clients + 1
    }

    fn req_vc(&self, i: u16) -> Vc {
        Vc(VC_BASE + u32::from(i))
    }

    fn rsp_vc(&self, i: u16) -> Vc {
        Vc(VC_BASE + u32::from(self.ports()) + u32::from(i))
    }
}

/// Response payload stream of client `i` (request streams are `i`).
fn rsp_stream(i: u16) -> u32 {
    0x10_000 | u32::from(i)
}

impl Workload for CqRpc {
    type Episode = CqEpisode;

    fn ops_per_episode(&self) -> u64 {
        (ALL_SEMANTICS.len() * usize::from(self.clients) * self.requests) as u64
    }

    fn setup(&self, cx: &mut Cx) -> Result<CqEpisode, Abort> {
        let (w, hub, procs) = cx.probe.time(Layer::WorldNew, || {
            let sw = SwitchConfig::star(self.ports(), 0, VC_BASE, 128);
            let mut cfg =
                WorldConfig::switched(MachineSpec::micron_p166(), self.ports().into(), sw);
            cfg.link.fixed_latency = SimTime::from_us(self.link_us);
            let mut w = World::new(cfg);
            let hub = w.create_process(HUB);
            let procs: Vec<SpaceId> = (1..=self.clients)
                .map(|i| w.create_process(HostId(i)))
                .collect();
            (w, hub, procs)
        });
        let mut ep = CqEpisode {
            cfg: self.clone(),
            w,
            hub,
            procs,
            next_phase: 0,
            phase: None,
            fp: Fingerprint::new(),
            delivered: 0,
            sq_rejects: 0,
            ring_overflows: 0,
            before: None,
        };
        // Warm-up: one uncounted round trip per client.
        let mut warm = ep.open(cx, Semantics::EmulatedCopy, 1, false)?;
        while !warm.done() {
            ep.iterate(cx, &mut warm)?;
        }
        ep.close(warm)?;
        if cx.read_counts {
            ep.before = Some(Counts::of_world(&ep.w));
        }
        Ok(ep)
    }
}

/// One phase: every client's requests under one semantics.
pub struct Phase {
    qps: Vec<QueuePair>,
    requests: usize,
    counted: bool,
    /// Per (client, request): request verified at the hub.
    req_ok: Vec<bool>,
    /// Per (client, request): request delivered at the hub.
    hub_seen: Vec<bool>,
    /// Per (client, request): response delivered at the client.
    rsp_seen: Vec<bool>,
    /// Per (client, request): source buffers of the request and the
    /// response, freed when their send completes (application-allocated
    /// semantics only).
    req_src: Vec<u64>,
    rsp_src: Vec<u64>,
    /// Completions of each kind.
    recvd: usize,
    answered: usize,
    client_sent: usize,
    hub_sent: usize,
}

impl Phase {
    fn total(&self) -> usize {
        self.req_ok.len()
    }

    fn done(&self) -> bool {
        let t = self.total();
        self.recvd == t && self.answered == t && self.client_sent == t && self.hub_sent == t
    }

    /// Index of a (client, request) tag, if the tag is one of ours.
    fn index(&self, user_data: u64) -> Option<usize> {
        let (i, k) = ((user_data >> 32) as usize, user_data as u32 as usize);
        let clients = self.qps.len() - 1;
        (i >= 1 && i <= clients && k < self.requests).then(|| (i - 1) * self.requests + k)
    }
}

fn tag(i: u16, k: usize) -> u64 {
    (u64::from(i) << 32) | k as u64
}

/// One `cq_rpc` episode.
pub struct CqEpisode {
    cfg: CqRpc,
    w: World,
    hub: SpaceId,
    procs: Vec<SpaceId>,
    next_phase: usize,
    phase: Option<Phase>,
    fp: Fingerprint,
    /// Datagrams delivered in counted phases.
    delivered: u64,
    sq_rejects: u64,
    ring_overflows: u64,
    /// Counters after warm-up, when this episode reads counts.
    before: Option<Counts>,
}

/// Allocates a receive buffer for `semantics` at the circuit's
/// preferred alignment (`None` for system-allocated semantics).
fn recv_buffer(
    probe: &mut Probe,
    w: &mut World,
    host: HostId,
    space: SpaceId,
    semantics: Semantics,
    vc: Vc,
    bytes: usize,
) -> Result<Option<u64>, Abort> {
    match semantics.allocation() {
        Allocation::Application => {
            let (off, _) = probe.time(Layer::InputPost, || w.preferred_alignment(host, vc));
            let va = probe.time(Layer::VmAllocFill, || {
                w.alloc_buffer(host, space, bytes, off)
            })?;
            Ok(Some(va))
        }
        Allocation::System => Ok(None),
    }
}

/// Allocates a send buffer for `semantics` and writes `data` into it.
fn filled(
    probe: &mut Probe,
    w: &mut World,
    host: HostId,
    space: SpaceId,
    semantics: Semantics,
    data: &[u8],
) -> Result<u64, Abort> {
    let va = probe.time(Layer::VmAllocFill, || {
        let va = match semantics.allocation() {
            Allocation::Application => w.alloc_buffer(host, space, data.len(), 0)?,
            Allocation::System => w.host_mut(host).alloc_io_buffer(space, data.len())?.1,
        };
        w.app_write(host, space, va, data).map(|_| va)
    })?;
    Ok(va)
}

/// Stages `sqe` on `qp`; a rejected entry aborts the episode (every
/// queue is sized for the whole phase).
fn post(probe: &mut Probe, qp: &mut QueuePair, sqe: Sqe) -> Result<(), Abort> {
    probe
        .time(Layer::CqPost, || qp.post(sqe))
        .map_err(|sqe| Abort(format!("submission queue full: {sqe:?}")))
}

impl CqEpisode {
    /// Builds a phase's queue pairs, preposts every receive and stages
    /// every request.
    fn open(
        &mut self,
        cx: &mut Cx,
        sem: Semantics,
        requests: usize,
        counted: bool,
    ) -> Result<Phase, Abort> {
        let CqEpisode {
            cfg, w, hub, procs, ..
        } = self;
        let (clients, bytes, hub) = (cfg.clients, cfg.bytes, *hub);
        let total = usize::from(clients) * requests;
        let mut qps = Vec::with_capacity(usize::from(clients) + 1);
        qps.push(QueuePair::new(
            HUB,
            sem,
            CqConfig {
                sq_depth: 2 * total + 4,
                cq_depth: 64,
                window: genie::AdaptiveConfig::fixed(total),
            },
        ));
        for i in 1..=clients {
            let window = WINDOWS[usize::from(i - 1) % WINDOWS.len()];
            qps.push(QueuePair::new(
                HostId(i),
                sem,
                CqConfig {
                    sq_depth: 2 * requests + 4,
                    cq_depth: 64,
                    window: genie::AdaptiveConfig::fixed(window),
                },
            ));
        }
        let probe = &mut cx.probe;
        for k in 0..requests {
            for i in 1..=clients {
                let vc = cfg.req_vc(i);
                let buffer = recv_buffer(probe, w, HUB, hub, sem, vc, bytes)?;
                let op = SqeOp::PostRecv {
                    vc,
                    space: hub,
                    buffer,
                    len: bytes,
                };
                post(
                    probe,
                    &mut qps[0],
                    Sqe {
                        user_data: tag(i, k),
                        op,
                    },
                )?;
                let (host, space, vc) = (HostId(i), procs[usize::from(i) - 1], cfg.rsp_vc(i));
                let buffer = recv_buffer(probe, w, host, space, sem, vc, bytes)?;
                let op = SqeOp::PostRecv {
                    vc,
                    space,
                    buffer,
                    len: bytes,
                };
                post(
                    probe,
                    &mut qps[usize::from(i)],
                    Sqe {
                        user_data: tag(i, k),
                        op,
                    },
                )?;
            }
        }
        let mut req_src = vec![0; total];
        for k in 0..requests {
            for i in 1..=clients {
                let (host, space) = (HostId(i), procs[usize::from(i) - 1]);
                let data = cfg.patterns.get(u32::from(i), k as u64, bytes);
                let vaddr = filled(probe, w, host, space, sem, data)?;
                req_src[usize::from(i - 1) * requests + k] = vaddr;
                let op = SqeOp::Send {
                    vc: cfg.req_vc(i),
                    space,
                    vaddr,
                    len: bytes,
                };
                post(
                    probe,
                    &mut qps[usize::from(i)],
                    Sqe {
                        user_data: tag(i, k),
                        op,
                    },
                )?;
            }
        }
        Ok(Phase {
            qps,
            requests,
            counted,
            req_ok: vec![false; total],
            hub_seen: vec![false; total],
            rsp_seen: vec![false; total],
            req_src,
            rsp_src: vec![0; total],
            recvd: 0,
            answered: 0,
            client_sent: 0,
            hub_sent: 0,
        })
    }

    /// One driver iteration: submit, run, harvest, then react to every
    /// completion (the hub echoes each request it receives).
    fn iterate(&mut self, cx: &mut Cx, ph: &mut Phase) -> Result<(), Abort> {
        let CqEpisode {
            cfg,
            w,
            hub,
            procs,
            fp,
            delivered,
            ..
        } = self;
        let (bytes, hub) = (cfg.bytes, *hub);
        let probe = &mut cx.probe;
        let mut progress = 0;
        for qp in ph.qps.iter_mut() {
            progress += probe.time(Layer::CqSubmit, || qp.submit(w));
        }
        probe.time(Layer::WorldRun, || w.run());
        progress += probe.time(Layer::CqHarvest, || cq::harvest(w, &mut ph.qps));
        let sem = ph.qps[0].semantics();
        while let Some(c) = cx.probe.time(Layer::CqPoll, || ph.qps[0].poll()) {
            let Some(j) = ph.index(c.user_data) else {
                cx.fail(|| format!("hub completion with unknown tag {:#x}", c.user_data));
                continue;
            };
            let (i, k) = ((j / ph.requests + 1) as u16, j % ph.requests);
            match c.landing {
                Landing::Delivered { vaddr, latency, .. } => {
                    if std::mem::replace(&mut ph.hub_seen[j], true) {
                        cx.fail(|| format!("duplicate request {k} of client {i} at the hub"));
                        continue;
                    }
                    fp.add(latency.0);
                    let want = cfg.patterns.get(u32::from(i), k as u64, bytes);
                    ph.req_ok[j] = c.result == CqResult::Ok
                        && c.len == bytes
                        && cx
                            .probe
                            .time(Layer::VmVerify, || w.app_matches(HUB, hub, vaddr, want))?;
                    if !ph.req_ok[j] {
                        cx.note(|| format!("{sem} request {k} of client {i} corrupted"));
                    }
                    cx.probe
                        .time(Layer::VmFree, || w.host_mut(HUB).free_buffer(hub, vaddr))?;
                    ph.recvd += 1;
                    let data = cfg.patterns.get(rsp_stream(i), k as u64, bytes);
                    let src = filled(&mut cx.probe, w, HUB, hub, sem, data)?;
                    ph.rsp_src[j] = src;
                    let op = SqeOp::Send {
                        vc: cfg.rsp_vc(i),
                        space: hub,
                        vaddr: src,
                        len: bytes,
                    };
                    post(
                        &mut cx.probe,
                        &mut ph.qps[0],
                        Sqe {
                            user_data: c.user_data,
                            op,
                        },
                    )?;
                }
                Landing::Sent { .. } => {
                    ph.hub_sent += 1;
                    if sem.allocation() == Allocation::Application {
                        let src = ph.rsp_src[j];
                        cx.probe
                            .time(Layer::VmFree, || w.host_mut(HUB).free_buffer(hub, src))?;
                    }
                }
                Landing::None => return Err(Abort(format!("hub operation refused: {c:?}"))),
            }
        }
        for qi in 1..ph.qps.len() {
            let (host, space) = (HostId(qi as u16), procs[qi - 1]);
            while let Some(c) = cx.probe.time(Layer::CqPoll, || ph.qps[qi].poll()) {
                let Some(j) = ph.index(c.user_data).filter(|j| j / ph.requests + 1 == qi) else {
                    cx.fail(|| format!("client {qi} completion with wrong tag {:#x}", c.user_data));
                    continue;
                };
                let k = j % ph.requests;
                match c.landing {
                    Landing::Delivered { vaddr, latency, .. } => {
                        if std::mem::replace(&mut ph.rsp_seen[j], true) {
                            cx.fail(|| format!("duplicate response {k} at client {qi}"));
                            continue;
                        }
                        fp.add(latency.0);
                        if cfg.corrupt_every > 0 && ph.answered.is_multiple_of(cfg.corrupt_every) {
                            w.app_write(host, space, vaddr, &[0xa5; 1])?;
                        }
                        let want = cfg.patterns.get(rsp_stream(qi as u16), k as u64, bytes);
                        let ok = c.result == CqResult::Ok
                            && c.len == bytes
                            && cx.probe.time(Layer::VmVerify, || {
                                w.app_matches(host, space, vaddr, want)
                            })?;
                        cx.probe
                            .time(Layer::VmFree, || w.host_mut(host).free_buffer(space, vaddr))?;
                        ph.answered += 1;
                        match (ok && ph.req_ok[j], ph.counted) {
                            (true, true) => {
                                cx.ok_ops += 1;
                                *delivered += 2;
                            }
                            (true, false) => {}
                            (false, true) => {
                                cx.note(|| format!("{sem} response {k} at client {qi} corrupted"))
                            }
                            (false, false) => {
                                cx.fail(|| format!("{sem} warm-up at client {qi} corrupted"))
                            }
                        }
                    }
                    Landing::Sent { .. } => {
                        ph.client_sent += 1;
                        // System-allocated sources belong to the output
                        // (see the fan-in workloads).
                        if sem.allocation() == Allocation::Application {
                            let src = ph.req_src[j];
                            cx.probe
                                .time(Layer::VmFree, || w.host_mut(host).free_buffer(space, src))?;
                        }
                    }
                    Landing::None => {
                        return Err(Abort(format!("client {qi} operation refused: {c:?}")))
                    }
                }
            }
        }
        if progress == 0 && !ph.done() {
            return Err(Abort(format!(
                "stalled: {}/{} requests, {}/{} responses",
                ph.recvd,
                ph.total(),
                ph.answered,
                ph.total()
            )));
        }
        Ok(())
    }

    /// Ends a drained phase: conservation, queue counters, and one
    /// fingerprint word for the phase's end time.
    fn close(&mut self, ph: Phase) -> Result<(), Abort> {
        check_quiesced(&self.w)?;
        if let Some(j) = ph.rsp_seen.iter().position(|s| !s) {
            return Err(Abort(format!("round trip {j} never completed")));
        }
        for qp in &ph.qps {
            self.sq_rejects += qp.sq_rejects();
            self.ring_overflows += qp.ring_overflows();
        }
        self.fp.add(self.w.now().0);
        Ok(())
    }
}

impl Episode for CqEpisode {
    fn step(&mut self, cx: &mut Cx) -> Result<bool, Abort> {
        let Some(mut ph) = self.phase.take() else {
            let sem = ALL_SEMANTICS[self.next_phase];
            self.phase = Some(self.open(cx, sem, self.cfg.requests, true)?);
            return Ok(true);
        };
        self.iterate(cx, &mut ph)?;
        if !ph.done() {
            self.phase = Some(ph);
            return Ok(true);
        }
        self.close(ph)?;
        self.next_phase += 1;
        Ok(self.next_phase < ALL_SEMANTICS.len())
    }

    fn finish(self, cx: &mut Cx) -> Result<(), String> {
        let stalls = self.w.switch_stats().map_or(0, |s| s.credit_stalls);
        if stalls > 0 {
            return Err(format!("{stalls} credit stalls in cq_rpc"));
        }
        if let Some(want) = self.cfg.fingerprint {
            if self.fp.0 != want {
                return Err(format!(
                    "simulated-output fingerprint {:#018x}, expected {want:#018x}",
                    self.fp.0
                ));
            }
        }
        if cx.read_counts {
            cx.counts
                .add_delta(&Counts::of_world(&self.w), self.before.as_ref());
            cx.counts.add("cq.sq_rejects", self.sq_rejects);
            cx.counts.add("cq.ring_overflows", self.ring_overflows);
            cx.counts.ops += self.cfg.ops_per_episode();
            cx.counts.datagrams += self.delivered;
        }
        Ok(())
    }
}
