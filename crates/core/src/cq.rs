//! genie-cq: a submission/completion-queue front-end over the
//! [`World`].
//!
//! The paper measures its eight buffering semantics through synchronous
//! send/receive calls; every modern high-throughput I/O stack
//! (io_uring, RDMA verbs) exposes the same operations through *queue
//! pairs* instead. This module provides that interface without touching
//! the synchronous datapath: applications post [`Sqe`]s (send,
//! post-recv, touch, release) to a per-host [`QueuePair`] with a
//! `user_data` correlation tag, call [`QueuePair::submit`] to flush a
//! batch into the simulator, and drain [`Cqe`]s from a bounded
//! completion ring via [`QueuePair::poll`] or [`wait_n`].
//!
//! # Determinism
//!
//! The queue layer is a pure driver-phase shim: `submit` invokes
//! `World::output` / `World::input` in staged FIFO order, exactly the
//! calls a synchronous application would make, and [`harvest`] routes
//! the world's completion streams back to their owning queue pairs by
//! token. Each operation's simulated charges, events and bytes are
//! identical to the synchronous path's; the only simulated effect the
//! queue layer adds is causal — [`harvest`] advances the host clock to
//! the completions the application just observed, since work issued
//! after a harvest cannot predate it. Synchronous paths never pass
//! through here, so existing goldens are unchanged, and every queue
//! run is byte-identical at any thread count.
//!
//! # Backpressure
//!
//! Two limits are visible to the application. The *submission queue* is
//! bounded by `sq_depth`: [`QueuePair::post`] rejects beyond it,
//! handing the entry back (the `sq_full` path — exactly one reject or
//! one completion per posted entry, never both, never neither). The
//! *completion ring* is bounded by `cq_depth`: completions beyond it
//! spill to an internal overflow list so no tag is ever dropped, and
//! the spill count is visible via [`QueuePair::ring_overflows`].
//!
//! # Adaptive concurrency
//!
//! An AIMD in-flight-send limiter (after arsync's io_uring adaptive-
//! concurrency controller) sits between the staged queue and the wire:
//! each harvest batch either grows the window by one (clean batch) or
//! halves it (completion-latency spike over the EWMA baseline, or
//! frame-pool memory pressure). The controller is a pure function of
//! its seed and the observed completions, so adaptive runs are as
//! deterministic as fixed-window ones.

use std::collections::{BTreeMap, HashMap, VecDeque};

use genie_fault::XorShift64;
use genie_machine::SimTime;
use genie_net::{stream_key, Vc};
use genie_vm::{RegionHandle, SpaceId};

use crate::input::InputRequest;
use crate::output::OutputRequest;
use crate::semantics::{Allocation, Semantics};
use crate::world::{HostId, World};

/// One submission-queue entry's operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqeOp {
    /// Output `len` bytes at `vaddr` of `space` on `vc` with the queue
    /// pair's semantics. Gated by the in-flight window.
    Send {
        /// Virtual circuit to send on.
        vc: Vc,
        /// Sending process.
        space: SpaceId,
        /// Source buffer virtual address.
        vaddr: u64,
        /// Payload length in bytes.
        len: usize,
    },
    /// Prepost one input of capacity `len` on `vc`. For application-
    /// allocated semantics `buffer` names the destination; for
    /// system-allocated semantics it must be `None`. Receives are
    /// passive buffer donations, so they issue immediately on submit
    /// (the window gates only sends).
    PostRecv {
        /// Virtual circuit to receive on.
        vc: Vc,
        /// Receiving process.
        space: SpaceId,
        /// Destination buffer (application-allocated semantics only).
        buffer: Option<u64>,
        /// Expected maximum payload in bytes.
        len: usize,
    },
    /// Write `len` repetitions of `pattern` at `vaddr` — the
    /// application scribbling on a buffer between queue operations.
    /// Completes synchronously at submit.
    Touch {
        /// Process to write in.
        space: SpaceId,
        /// Target virtual address.
        vaddr: u64,
        /// Bytes to write.
        len: usize,
        /// Fill byte.
        pattern: u8,
    },
    /// Release a delivered system-allocated input region back to the
    /// semantics' cache. Completes synchronously at submit.
    Release {
        /// The region a recv completion's landing named.
        region: RegionHandle,
    },
}

/// A submission-queue entry: one operation plus the application's
/// correlation tag, echoed verbatim in the matching [`Cqe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sqe {
    /// Application correlation tag.
    pub user_data: u64,
    /// The operation.
    pub op: SqeOp,
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqResult {
    /// The operation completed (for receives: with a good checksum).
    Ok,
    /// The operation failed (refused request, failed touch/release, or
    /// a delivered payload whose checksum did not verify).
    Error,
}

/// Where a completed operation's data landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Landing {
    /// Nothing landed (touch, release, or a refused operation).
    None,
    /// A receive completed: the data's location, the wire-level
    /// identity of the datagram, and its end-to-end latency.
    Delivered {
        /// Receiving process.
        space: SpaceId,
        /// Where the data is.
        vaddr: u64,
        /// Backing region for system-allocated semantics.
        region: Option<RegionHandle>,
        /// Virtual circuit the datagram arrived on.
        vc: Vc,
        /// Wire sequence number on that circuit.
        wire_seq: u32,
        /// End-to-end latency from output invocation at the sender.
        latency: SimTime,
    },
    /// A send's dispose stage finished.
    Sent {
        /// Semantics actually used (thresholds may fall back to copy).
        effective: Semantics,
        /// Times the transmission stalled waiting for credits.
        credit_stalls: u32,
        /// Invocation-to-dispose latency at the sender.
        latency: SimTime,
    },
}

/// One completion-queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// The queue pair's monotone completion sequence number.
    pub seq: u64,
    /// Payload length in bytes (0 for touch/release/refused entries).
    pub len: usize,
    /// Completion status.
    pub result: CqResult,
    /// Where the data landed.
    pub landing: Landing,
    /// The tag from the originating [`Sqe`], verbatim.
    pub user_data: u64,
}

/// Adaptive-window (AIMD) parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Whether the window adapts at all. When off, the window is
    /// pinned at `start`.
    pub adaptive: bool,
    /// Smallest window the controller will contract to.
    pub min: usize,
    /// Initial window (the fixed window when `adaptive` is off). With
    /// adaptivity on, the seeded controller starts somewhere in
    /// `[min, start]` so co-located queue pairs desynchronize.
    pub start: usize,
    /// Largest window additive increase will grow to.
    pub max: usize,
    /// Seed for the controller's private PRNG.
    pub seed: u64,
    /// Free-frame fraction (per-mille) below which the host is
    /// considered under memory pressure.
    pub pressure_floor_per_mille: u32,
}

impl AdaptiveConfig {
    /// A fixed window of `depth` (no adaptation).
    pub fn fixed(depth: usize) -> Self {
        AdaptiveConfig {
            adaptive: false,
            min: depth.max(1),
            start: depth.max(1),
            max: depth.max(1),
            seed: 0,
            pressure_floor_per_mille: 125,
        }
    }

    /// The default adaptive controller: window in `[1, max]`, seeded.
    pub fn adaptive(max: usize, seed: u64) -> Self {
        let max = max.max(1);
        AdaptiveConfig {
            adaptive: true,
            min: 1,
            start: max.div_ceil(2).max(1),
            max,
            seed,
            pressure_floor_per_mille: 125,
        }
    }
}

/// The AIMD in-flight limiter. Additive increase (+1 per clean harvest
/// batch), multiplicative decrease (halve on a latency spike over the
/// EWMA baseline or on memory pressure). Both responses are monotone:
/// over a baseline stream stable enough not to trip the relative
/// spike detector by itself, adding spikes (or pressure) can never
/// yield a larger window at any step — the property
/// `tests/cq_properties.rs` pins. (The stability precondition is
/// real: the detector compares each sample to the stream's own EWMA,
/// so an already-wild baseline raises its own bar.)
#[derive(Clone, Debug)]
pub struct AdaptiveWindow {
    cfg: AdaptiveConfig,
    cur: usize,
    /// EWMA of observed batch-max completion latency (ns), `alpha =
    /// 1/8` in integer arithmetic so the trajectory is exactly
    /// reproducible across platforms.
    ewma_ns: u64,
    batches: u64,
    increases: u64,
    decreases: u64,
}

impl AdaptiveWindow {
    /// Builds a controller. With adaptivity on, the start point is
    /// drawn from `[min, start]` by the seeded PRNG.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        let (min, max) = (cfg.min.max(1), cfg.max.max(1));
        let start = cfg.start.clamp(min, max);
        let cur = if cfg.adaptive && start > min {
            let mut rng = XorShift64::new(cfg.seed);
            min + rng.below((start - min + 1) as u64) as usize
        } else {
            start
        };
        AdaptiveWindow {
            cfg,
            cur,
            ewma_ns: 0,
            batches: 0,
            increases: 0,
            decreases: 0,
        }
    }

    /// The current in-flight-send limit.
    pub fn current(&self) -> usize {
        self.cur
    }

    /// Feeds one harvest batch's worst completion latency and the
    /// host's pressure flag into the controller.
    pub fn observe_batch(&mut self, max_latency_ns: u64, pressure: bool) {
        if !self.cfg.adaptive {
            return;
        }
        // Spike detection against the pre-update baseline, after a
        // short warmup so the first batches establish the EWMA.
        let spike = self.batches >= 4 && max_latency_ns > self.ewma_ns.saturating_mul(2);
        self.ewma_ns = if self.batches == 0 {
            max_latency_ns
        } else {
            self.ewma_ns - self.ewma_ns / 8 + max_latency_ns / 8
        };
        self.batches += 1;
        if spike || pressure {
            self.cur = (self.cur / 2).max(self.cfg.min);
            self.decreases += 1;
        } else if self.cur < self.cfg.max {
            self.cur += 1;
            self.increases += 1;
        }
    }

    /// Batches that grew the window.
    pub fn increases(&self) -> u64 {
        self.increases
    }

    /// Batches that contracted the window.
    pub fn decreases(&self) -> u64 {
        self.decreases
    }
}

/// Queue-pair configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CqConfig {
    /// Submission-queue bound: [`QueuePair::post`] rejects beyond it.
    pub sq_depth: usize,
    /// Completion-ring bound: completions beyond it spill to the
    /// internal overflow list (never dropped).
    pub cq_depth: usize,
    /// The in-flight-send limiter.
    pub window: AdaptiveConfig,
}

impl CqConfig {
    /// A fixed-window configuration of `depth` with generous queues —
    /// what the saturation sweep uses.
    pub fn fixed(depth: usize) -> Self {
        CqConfig {
            sq_depth: 4096,
            cq_depth: 64,
            window: AdaptiveConfig::fixed(depth),
        }
    }
}

/// Bookkeeping for one issued wire operation. Completions identify
/// themselves only by token, so the queue layer remembers each
/// operation's tag, circuit, and issue time here.
#[derive(Clone, Copy, Debug)]
struct InflightOp {
    user_data: u64,
    /// The circuit the operation was issued on.
    vc: Vc,
    /// Sender clock at issue (sends; receives use the completion's own
    /// end-to-end latency).
    issued_at: SimTime,
}

/// A per-host submission/completion queue pair bound to one semantics.
#[derive(Debug)]
pub struct QueuePair {
    host: HostId,
    semantics: Semantics,
    cfg: CqConfig,
    window: AdaptiveWindow,
    staged: VecDeque<Sqe>,
    inflight_sends: HashMap<u64, InflightOp>,
    inflight_recvs: HashMap<u64, InflightOp>,
    ring: VecDeque<Cqe>,
    overflow: VecDeque<Cqe>,
    next_seq: u64,
    posted: u64,
    completed: u64,
    sq_rejects: u64,
    ring_overflows: u64,
    /// Last delivered stream key per VC ([`genie_net::stream_key`]):
    /// the per-VC in-order delivery invariant, checked at harvest.
    last_delivery: BTreeMap<u32, u64>,
}

impl QueuePair {
    /// Creates a queue pair on `host` bound to `semantics`.
    pub fn new(host: HostId, semantics: Semantics, cfg: CqConfig) -> Self {
        QueuePair {
            host,
            semantics,
            cfg,
            window: AdaptiveWindow::new(cfg.window),
            staged: VecDeque::new(),
            inflight_sends: HashMap::new(),
            inflight_recvs: HashMap::new(),
            ring: VecDeque::new(),
            overflow: VecDeque::new(),
            next_seq: 0,
            posted: 0,
            completed: 0,
            sq_rejects: 0,
            ring_overflows: 0,
            last_delivery: BTreeMap::new(),
        }
    }

    /// The host this queue pair drives.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The semantics every operation on this pair uses.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Stages one entry. A full submission queue rejects it — the
    /// backpressure-visible `sq_full` path — handing the entry back so
    /// the application can retry after draining completions.
    pub fn post(&mut self, sqe: Sqe) -> Result<(), Sqe> {
        if self.staged.len() >= self.cfg.sq_depth {
            self.sq_rejects += 1;
            return Err(sqe);
        }
        self.posted += 1;
        self.staged.push_back(sqe);
        Ok(())
    }

    /// Flushes staged entries into the simulator in FIFO order and
    /// returns how many issued. Sends stop at the in-flight window;
    /// everything behind a blocked send waits too, so submission order
    /// is the issue order. Operations the world refuses complete
    /// immediately with [`CqResult::Error`] (exactly one completion
    /// per accepted entry, come what may).
    pub fn submit(&mut self, w: &mut World) -> usize {
        let mut issued = 0;
        while let Some(&sqe) = self.staged.front() {
            match sqe.op {
                SqeOp::Send {
                    vc,
                    space,
                    vaddr,
                    len,
                } => {
                    if self.inflight_sends.len() >= self.window.current() {
                        break;
                    }
                    let issued_at = w.host(self.host).clock;
                    let req = OutputRequest::new(self.semantics, vc, space, vaddr, len);
                    match w.output(self.host, req) {
                        Ok(token) => {
                            self.inflight_sends.insert(
                                token,
                                InflightOp {
                                    user_data: sqe.user_data,
                                    vc,
                                    issued_at,
                                },
                            );
                        }
                        Err(_) => self.complete_immediate(sqe.user_data, CqResult::Error),
                    }
                }
                SqeOp::PostRecv {
                    vc,
                    space,
                    buffer,
                    len,
                } => {
                    let req = match (self.semantics.allocation(), buffer) {
                        (Allocation::Application, Some(vaddr)) => {
                            InputRequest::app(self.semantics, vc, space, vaddr, len)
                        }
                        _ => InputRequest::system(self.semantics, vc, space, len),
                    };
                    match w.input(self.host, req) {
                        Ok(token) => {
                            self.inflight_recvs.insert(
                                token,
                                InflightOp {
                                    user_data: sqe.user_data,
                                    vc,
                                    issued_at: SimTime::ZERO,
                                },
                            );
                        }
                        Err(_) => self.complete_immediate(sqe.user_data, CqResult::Error),
                    }
                }
                SqeOp::Touch {
                    space,
                    vaddr,
                    len,
                    pattern,
                } => {
                    let data = vec![pattern; len];
                    let result = match w.app_write(self.host, space, vaddr, &data) {
                        Ok(_) => CqResult::Ok,
                        Err(_) => CqResult::Error,
                    };
                    self.complete_immediate(sqe.user_data, result);
                }
                SqeOp::Release { region } => {
                    let result = match w.release_input_region(self.host, region, self.semantics) {
                        Ok(()) => CqResult::Ok,
                        Err(_) => CqResult::Error,
                    };
                    self.complete_immediate(sqe.user_data, result);
                }
            }
            self.staged.pop_front();
            issued += 1;
        }
        issued
    }

    /// Pops the next completion off the ring, refilling it from the
    /// overflow list.
    pub fn poll(&mut self) -> Option<Cqe> {
        let c = self.ring.pop_front();
        if c.is_some() {
            if let Some(spilled) = self.overflow.pop_front() {
                self.ring.push_back(spilled);
            }
        }
        c
    }

    /// Completions currently queued (ring plus overflow).
    pub fn completions_queued(&self) -> usize {
        self.ring.len() + self.overflow.len()
    }

    /// Entries staged but not yet issued.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Wire operations issued and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inflight_sends.len() + self.inflight_recvs.len()
    }

    /// Sends issued and not yet completed — the quantity the adaptive
    /// window gates. Excludes posted receives, which may legitimately
    /// outlive every send.
    pub fn in_flight_sends(&self) -> usize {
        self.inflight_sends.len()
    }

    /// The adaptive controller.
    pub fn window(&self) -> &AdaptiveWindow {
        &self.window
    }

    /// Entries rejected at [`QueuePair::post`] (the `sq_full` path).
    pub fn sq_rejects(&self) -> u64 {
        self.sq_rejects
    }

    /// Completions that spilled past the bounded ring.
    pub fn ring_overflows(&self) -> u64 {
        self.ring_overflows
    }

    /// Entries accepted by [`QueuePair::post`].
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Completions produced so far (queued or already polled).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Enqueues a completion, spilling past the bounded ring into the
    /// overflow list (tags are never dropped).
    fn push_cqe(&mut self, len: usize, result: CqResult, landing: Landing, user_data: u64) {
        let cqe = Cqe {
            seq: self.next_seq,
            len,
            result,
            landing,
            user_data,
        };
        self.next_seq += 1;
        self.completed += 1;
        if self.ring.len() < self.cfg.cq_depth {
            self.ring.push_back(cqe);
        } else {
            self.ring_overflows += 1;
            self.overflow.push_back(cqe);
        }
    }

    /// Completion for an operation that finished inside `submit`.
    fn complete_immediate(&mut self, user_data: u64, result: CqResult) {
        self.push_cqe(0, result, Landing::None, user_data);
    }

    /// Whether the host is under frame-pool memory pressure.
    fn under_pressure(&self, w: &World) -> bool {
        w.host(self.host).vm.phys.free_per_mille() < self.cfg.window.pressure_floor_per_mille
    }
}

impl World {
    /// Records one completion-ring depth / adaptive-window sample for
    /// `host`. Tracing-gated like the per-VC latency series, so plain
    /// measurement runs carry no observability state.
    pub(crate) fn note_cq_sample(&mut self, host: HostId, depth: u64, window: u64) {
        if !self.tracing_enabled() {
            return;
        }
        self.cq_depth.entry(host.0).or_default().record(depth);
        self.cq_window.entry(host.0).or_default().record(window);
    }
}

/// Routes the world's drained completion streams back to their owning
/// queue pairs, converts them to [`Cqe`]s, feeds each pair's adaptive
/// controller, and samples the `cq.depth` / `cq.window` series.
/// Returns the number of completions routed.
///
/// Within one harvest, receives complete before sends (matching the
/// world's separate completion streams); within each stream the
/// world's deterministic completion order is preserved. Every token
/// must belong to one of `qps` — mixing queue pairs with raw
/// synchronous calls on the same world is not supported.
pub fn harvest(w: &mut World, qps: &mut [QueuePair]) -> usize {
    let recvs = w.take_completed_inputs();
    let sends = w.take_completed_outputs();
    let mut routed = 0;
    // Batch-worst completion latency per queue pair, for the AIMD
    // controllers; latest observed completion per queue pair, for the
    // clock synchronization below.
    let mut worst: Vec<u64> = vec![0; qps.len()];
    let mut observed_at: Vec<SimTime> = vec![SimTime::ZERO; qps.len()];
    for c in recvs {
        let (qi, op) = take_inflight(qps, c.host, c.token, |qp| &mut qp.inflight_recvs)
            .unwrap_or_else(|| panic!("recv completion for unknown token {}", c.token));
        let qp = &mut qps[qi];
        // The per-VC in-order delivery invariant: stream keys on one
        // circuit must be strictly increasing in completion order.
        let vc = op.vc;
        let key = stream_key(vc.0, c.seq);
        if let Some(&last) = qp.last_delivery.get(&vc.0) {
            assert!(
                key > last,
                "out-of-order completion on vc {} (seq {} after key {last:#x})",
                vc.0,
                c.seq
            );
        }
        qp.last_delivery.insert(vc.0, key);
        let result = if c.checksum_ok {
            CqResult::Ok
        } else {
            CqResult::Error
        };
        qp.push_cqe(
            c.len,
            result,
            Landing::Delivered {
                space: c.space,
                vaddr: c.vaddr,
                region: c.region,
                vc,
                wire_seq: c.seq,
                latency: c.latency,
            },
            op.user_data,
        );
        worst[qi] = worst[qi].max(c.latency.0);
        observed_at[qi] = observed_at[qi].max(c.completed_at);
        routed += 1;
    }
    for c in sends {
        let (qi, op) = take_inflight(qps, c.host, c.token, |qp| &mut qp.inflight_sends)
            .unwrap_or_else(|| panic!("send completion for unknown token {}", c.token));
        let qp = &mut qps[qi];
        let latency = c.completed_at.saturating_sub(op.issued_at);
        qp.push_cqe(
            c.len,
            CqResult::Ok,
            Landing::Sent {
                effective: c.effective,
                credit_stalls: c.credit_stalls,
                latency,
            },
            op.user_data,
        );
        worst[qi] = worst[qi].max(latency.0);
        observed_at[qi] = observed_at[qi].max(c.completed_at);
        routed += 1;
    }
    for (qi, qp) in qps.iter_mut().enumerate() {
        // The application observes a completion no earlier than it
        // exists: advance the host clock to the latest completion this
        // harvest delivered, so work issued afterwards (the next
        // submit) starts from there. This is what makes the in-flight
        // window a real throughput limiter — a too-shallow window
        // leaves the host idle between batches, which is exactly the
        // saturation curve the depth sweep measures.
        if observed_at[qi] > SimTime::ZERO {
            let h = w.host_mut(qp.host);
            h.clock = h.clock.max(observed_at[qi]);
        }
        if worst[qi] > 0 {
            let pressure = qp.under_pressure(w);
            qp.window.observe_batch(worst[qi], pressure);
        }
        let depth = qp.completions_queued() as u64;
        let window = qp.window.current() as u64;
        w.note_cq_sample(qp.host, depth, window);
    }
    routed
}

/// Removes `token` from the in-flight table `table` selects on the
/// queue pair that issued it, returning that pair's index and the
/// operation. A completion always lands on the host its operation was
/// issued from, so only pairs on `host` are probed: one hash lookup
/// when each host has one queue pair.
fn take_inflight(
    qps: &mut [QueuePair],
    host: HostId,
    token: u64,
    table: fn(&mut QueuePair) -> &mut HashMap<u64, InflightOp>,
) -> Option<(usize, InflightOp)> {
    qps.iter_mut()
        .enumerate()
        .filter(|(_, qp)| qp.host == host)
        .find_map(|(qi, qp)| table(qp).remove(&token).map(|op| (qi, op)))
}

/// Drives the world until queue pair `which` has `n` completions (or
/// no further progress is possible — nothing staged, nothing in
/// flight), then pops up to `n` of them. Every queue pair sharing the
/// world must be in `qps` so harvests route completely.
pub fn wait_n(w: &mut World, qps: &mut [QueuePair], which: usize, n: usize) -> Vec<Cqe> {
    loop {
        if qps[which].completions_queued() >= n {
            break;
        }
        let mut progress = 0;
        for qp in qps.iter_mut() {
            progress += qp.submit(w);
        }
        w.run();
        progress += harvest(w, qps);
        if progress == 0 {
            break;
        }
    }
    let qp = &mut qps[which];
    let take = n.min(qp.completions_queued());
    (0..take).filter_map(|_| qp.poll()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn two_host_world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn post_rejects_past_sq_depth_and_returns_the_entry() {
        let mut qp = QueuePair::new(
            HostId::A,
            Semantics::Copy,
            CqConfig {
                sq_depth: 2,
                cq_depth: 4,
                window: AdaptiveConfig::fixed(4),
            },
        );
        let sqe = |ud| Sqe {
            user_data: ud,
            op: SqeOp::Touch {
                space: SpaceId(0),
                vaddr: 0,
                len: 1,
                pattern: 0,
            },
        };
        assert!(qp.post(sqe(1)).is_ok());
        assert!(qp.post(sqe(2)).is_ok());
        let back = qp.post(sqe(3)).unwrap_err();
        assert_eq!(back.user_data, 3);
        assert_eq!(qp.sq_rejects(), 1);
        assert_eq!(qp.posted(), 2);
    }

    #[test]
    fn adaptive_window_grows_on_clean_batches_and_halves_on_spikes() {
        let mut win = AdaptiveWindow::new(AdaptiveConfig {
            adaptive: true,
            min: 1,
            start: 4,
            max: 16,
            seed: 9,
            pressure_floor_per_mille: 125,
        });
        let start = win.current();
        assert!((1..=4).contains(&start));
        for _ in 0..8 {
            win.observe_batch(1_000, false);
        }
        let grown = win.current();
        assert!(grown > start, "clean batches grow the window");
        win.observe_batch(1_000_000, false);
        assert_eq!(win.current(), grown / 2, "spike halves");
        assert!(win.decreases() >= 1);
        // Pressure contracts even with clean latency.
        let before = win.current();
        win.observe_batch(1_000, true);
        assert_eq!(win.current(), (before / 2).max(1));
    }

    #[test]
    fn adaptive_window_is_monotone_in_latency() {
        // Pointwise domination: a stream with one extra spike can
        // never end up with a larger window at any step.
        for seed in 0..32u64 {
            let cfg = AdaptiveConfig::adaptive(16, seed);
            let mut clean = AdaptiveWindow::new(cfg);
            let mut spiky = AdaptiveWindow::new(cfg);
            let mut rng = XorShift64::new(seed ^ 0xdead);
            for step in 0..64 {
                let lat = 10_000 + rng.below(5_000);
                clean.observe_batch(lat, false);
                let s = if step == 20 { lat * 10 } else { lat };
                spiky.observe_batch(s, false);
                assert!(
                    spiky.current() <= clean.current(),
                    "seed {seed} step {step}: spiky window above clean"
                );
            }
        }
    }

    #[test]
    fn fixed_window_never_moves() {
        let mut win = AdaptiveWindow::new(AdaptiveConfig::fixed(3));
        for _ in 0..16 {
            win.observe_batch(1_000_000_000, true);
        }
        assert_eq!(win.current(), 3);
        assert_eq!(win.decreases(), 0);
    }

    #[test]
    fn queue_pair_round_trip_matches_synchronous_path() {
        use crate::{InputRequest, OutputRequest};
        let bytes = 3000usize;
        let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();

        // Synchronous reference run.
        let sync = {
            let mut w = two_host_world();
            let tx = w.create_process(HostId::A);
            let rx = w.create_process(HostId::B);
            let src = w.alloc_buffer(HostId::A, tx, bytes, 0).unwrap();
            w.app_write(HostId::A, tx, src, &data).unwrap();
            let dst = w.alloc_buffer(HostId::B, rx, bytes, 0).unwrap();
            w.input(
                HostId::B,
                InputRequest::app(Semantics::EmulatedCopy, Vc(1), rx, dst, bytes),
            )
            .unwrap();
            w.output(
                HostId::A,
                OutputRequest::new(Semantics::EmulatedCopy, Vc(1), tx, src, bytes),
            )
            .unwrap();
            w.run();
            let done = w.take_completed_inputs();
            assert_eq!(done.len(), 1);
            (done[0].len, done[0].seq, done[0].latency)
        };

        // The same exchange through queue pairs.
        let mut w = two_host_world();
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let src = w.alloc_buffer(HostId::A, tx, bytes, 0).unwrap();
        w.app_write(HostId::A, tx, src, &data).unwrap();
        let dst = w.alloc_buffer(HostId::B, rx, bytes, 0).unwrap();
        let mut qps = vec![
            QueuePair::new(HostId::B, Semantics::EmulatedCopy, CqConfig::fixed(4)),
            QueuePair::new(HostId::A, Semantics::EmulatedCopy, CqConfig::fixed(4)),
        ];
        qps[0]
            .post(Sqe {
                user_data: 77,
                op: SqeOp::PostRecv {
                    vc: Vc(1),
                    space: rx,
                    buffer: Some(dst),
                    len: bytes,
                },
            })
            .unwrap();
        qps[1]
            .post(Sqe {
                user_data: 88,
                op: SqeOp::Send {
                    vc: Vc(1),
                    space: tx,
                    vaddr: src,
                    len: bytes,
                },
            })
            .unwrap();
        let got = wait_n(&mut w, &mut qps, 0, 1);
        assert_eq!(got.len(), 1);
        let c = got[0];
        assert_eq!(c.user_data, 77);
        assert_eq!(c.result, CqResult::Ok);
        assert_eq!(c.len, sync.0);
        match c.landing {
            Landing::Delivered {
                vaddr,
                wire_seq,
                latency,
                ..
            } => {
                assert_eq!(vaddr, dst);
                assert_eq!(wire_seq, sync.1);
                assert_eq!(latency, sync.2, "queue layer must not change simulation");
            }
            other => panic!("{other:?}"),
        }
        let delivered = w.read_app(HostId::B, rx, dst, bytes).unwrap();
        assert_eq!(delivered, data);
        // The send side completed too.
        let sends = wait_n(&mut w, &mut qps, 1, 1);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].user_data, 88);
        assert!(matches!(sends[0].landing, Landing::Sent { .. }));
    }

    #[test]
    fn ring_overflow_spills_without_dropping_tags() {
        let mut w = two_host_world();
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let n = 6usize;
        let bytes = 512usize;
        let mut qps = vec![
            QueuePair::new(
                HostId::B,
                Semantics::Copy,
                CqConfig {
                    sq_depth: 64,
                    cq_depth: 2, // tiny ring: most completions spill
                    window: AdaptiveConfig::fixed(8),
                },
            ),
            QueuePair::new(HostId::A, Semantics::Copy, CqConfig::fixed(8)),
        ];
        for k in 0..n {
            let dst = w.alloc_buffer(HostId::B, rx, bytes, 0).unwrap();
            qps[0]
                .post(Sqe {
                    user_data: 1000 + k as u64,
                    op: SqeOp::PostRecv {
                        vc: Vc(1),
                        space: rx,
                        buffer: Some(dst),
                        len: bytes,
                    },
                })
                .unwrap();
            let src = w.alloc_buffer(HostId::A, tx, bytes, 0).unwrap();
            w.app_write(HostId::A, tx, src, &vec![k as u8 + 1; bytes])
                .unwrap();
            qps[1]
                .post(Sqe {
                    user_data: 2000 + k as u64,
                    op: SqeOp::Send {
                        vc: Vc(1),
                        space: tx,
                        vaddr: src,
                        len: bytes,
                    },
                })
                .unwrap();
        }
        let got = wait_n(&mut w, &mut qps, 0, n);
        assert_eq!(got.len(), n);
        assert!(qps[0].ring_overflows() > 0, "tiny ring must have spilled");
        let mut tags: Vec<u64> = got.iter().map(|c| c.user_data).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n).map(|k| 1000 + k as u64).collect::<Vec<_>>());
        // Completion sequence numbers are the pop order.
        for (i, c) in got.iter().enumerate() {
            assert_eq!(c.seq, i as u64);
        }
    }

    #[test]
    fn touch_and_release_complete_synchronously() {
        let mut w = two_host_world();
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let bytes = 2048usize;
        let mut qps = vec![
            QueuePair::new(HostId::B, Semantics::Move, CqConfig::fixed(4)),
            QueuePair::new(HostId::A, Semantics::Move, CqConfig::fixed(4)),
        ];
        qps[0]
            .post(Sqe {
                user_data: 1,
                op: SqeOp::PostRecv {
                    vc: Vc(1),
                    space: rx,
                    buffer: None,
                    len: bytes,
                },
            })
            .unwrap();
        let (_r, src) = w.host_mut(HostId::A).alloc_io_buffer(tx, bytes).unwrap();
        qps[1]
            .post(Sqe {
                user_data: 2,
                op: SqeOp::Touch {
                    space: tx,
                    vaddr: src,
                    len: bytes,
                    pattern: 0xa5,
                },
            })
            .unwrap();
        qps[1]
            .post(Sqe {
                user_data: 3,
                op: SqeOp::Send {
                    vc: Vc(1),
                    space: tx,
                    vaddr: src,
                    len: bytes,
                },
            })
            .unwrap();
        // The touch completes during submit, before the send's wire
        // trip.
        let touched = wait_n(&mut w, &mut qps, 1, 1);
        assert_eq!(touched[0].user_data, 2);
        assert_eq!(touched[0].result, CqResult::Ok);
        let got = wait_n(&mut w, &mut qps, 0, 1);
        let (region, vaddr) = match got[0].landing {
            Landing::Delivered { region, vaddr, .. } => (region.unwrap(), vaddr),
            other => panic!("{other:?}"),
        };
        let data = w.read_app(HostId::B, rx, vaddr, bytes).unwrap();
        assert!(data.iter().all(|&b| b == 0xa5));
        qps[0]
            .post(Sqe {
                user_data: 4,
                op: SqeOp::Release { region },
            })
            .unwrap();
        let rel = wait_n(&mut w, &mut qps, 0, 1);
        assert_eq!(rel[0].user_data, 4);
        assert_eq!(rel[0].result, CqResult::Ok);
    }

    #[test]
    fn window_gates_in_flight_sends() {
        let mut w = two_host_world();
        let tx = w.create_process(HostId::A);
        let bytes = 256usize;
        let mut qp = QueuePair::new(HostId::A, Semantics::Copy, CqConfig::fixed(2));
        for k in 0..5 {
            let src = w.alloc_buffer(HostId::A, tx, bytes, 0).unwrap();
            w.app_write(HostId::A, tx, src, &vec![k + 1; bytes])
                .unwrap();
            qp.post(Sqe {
                user_data: k as u64,
                op: SqeOp::Send {
                    vc: Vc(1),
                    space: tx,
                    vaddr: src,
                    len: bytes,
                },
            })
            .unwrap();
        }
        let issued = qp.submit(&mut w);
        assert_eq!(issued, 2, "fixed window of 2 gates the rest");
        assert_eq!(qp.staged_len(), 3);
        assert_eq!(qp.in_flight(), 2);
    }
}
