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
//! calls a synchronous application would make, each request carrying
//! its entry's `user_data`. The world echoes that tag in the operation's
//! completion, as an io_uring CQE does, so the queue layer keeps no
//! per-operation table: [`harvest`] routes each completion to its
//! host's queue pair and builds the [`Cqe`] from the completion alone.
//! Each operation's simulated charges, events and bytes are
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
//! *completion ring* is bounded by `cq_depth`: a completion that finds
//! the ring full still queues (no tag is ever dropped), in order behind
//! the rest, and counts as a spill in [`QueuePair::ring_overflows`].
//! Sends are further gated by a fixed *send window*
//! ([`CqConfig::window`]): [`QueuePair::submit`] keeps no more sends in
//! flight than it allows, and stages the rest.

use std::collections::VecDeque;

use genie_machine::SimTime;
use genie_mem::DenseMap;
use genie_net::Vc;
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

/// The in-flight-send window: how many sends a queue pair keeps
/// issued and uncompleted at once. Always at least one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig(usize);

impl AdaptiveConfig {
    /// A window of `depth` sends, clamped to at least one.
    pub fn fixed(depth: usize) -> Self {
        AdaptiveConfig(depth.max(1))
    }
}

/// Queue-pair configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CqConfig {
    /// Submission-queue bound: [`QueuePair::post`] rejects beyond it.
    pub sq_depth: usize,
    /// Completion-ring bound: completions beyond it still queue (never
    /// dropped) but count in [`QueuePair::ring_overflows`].
    pub cq_depth: usize,
    /// The in-flight-send window.
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

/// A per-host submission/completion queue pair bound to one semantics.
#[derive(Debug)]
pub struct QueuePair {
    host: HostId,
    semantics: Semantics,
    cfg: CqConfig,
    staged: VecDeque<Sqe>,
    /// Sends issued and not yet completed: what the window gates.
    sends_in_flight: usize,
    /// Receives posted and not yet completed.
    recvs_in_flight: usize,
    /// Queued completions, oldest first: the bounded ring and, past
    /// `cq_depth`, its spill, as one FIFO.
    completions: VecDeque<Cqe>,
    next_seq: u64,
    sq_rejects: u64,
    ring_overflows: u64,
    /// Last delivered wire sequence number per VC: the per-VC
    /// in-order delivery invariant, checked at harvest.
    last_delivery: DenseMap<u32>,
    /// The latest completion the running [`harvest`] routed here
    /// ([`SimTime::ZERO`] between harvests): the host clock's mark.
    observed_at: SimTime,
}

impl QueuePair {
    /// Creates a queue pair on `host` bound to `semantics`.
    pub fn new(host: HostId, semantics: Semantics, cfg: CqConfig) -> Self {
        QueuePair {
            host,
            semantics,
            cfg,
            staged: VecDeque::new(),
            sends_in_flight: 0,
            recvs_in_flight: 0,
            completions: VecDeque::new(),
            next_seq: 0,
            sq_rejects: 0,
            ring_overflows: 0,
            last_delivery: DenseMap::new(),
            observed_at: SimTime::ZERO,
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
                    if self.sends_in_flight >= self.cfg.window.0 {
                        break;
                    }
                    let req = OutputRequest {
                        user_data: sqe.user_data,
                        ..OutputRequest::new(self.semantics, vc, space, vaddr, len)
                    };
                    match w.output(self.host, req) {
                        Ok(_) => self.sends_in_flight += 1,
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
                    let req = InputRequest {
                        user_data: sqe.user_data,
                        ..req
                    };
                    match w.input(self.host, req) {
                        Ok(_) => self.recvs_in_flight += 1,
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

    /// Pops the oldest queued completion.
    pub fn poll(&mut self) -> Option<Cqe> {
        self.completions.pop_front()
    }

    /// Completions currently queued (ring plus spill).
    pub fn completions_queued(&self) -> usize {
        self.completions.len()
    }

    /// Entries staged but not yet issued.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Wire operations issued and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.sends_in_flight + self.recvs_in_flight
    }

    /// Sends issued and not yet completed — the quantity the window
    /// gates. Excludes posted receives, which may legitimately
    /// outlive every send.
    pub fn in_flight_sends(&self) -> usize {
        self.sends_in_flight
    }

    /// Entries rejected at [`QueuePair::post`] (the `sq_full` path).
    pub fn sq_rejects(&self) -> u64 {
        self.sq_rejects
    }

    /// Completions that spilled past the bounded ring.
    pub fn ring_overflows(&self) -> u64 {
        self.ring_overflows
    }

    /// Enqueues a completion, counting a spill if the bounded ring is
    /// already full (tags are never dropped).
    fn push_cqe(&mut self, len: usize, result: CqResult, landing: Landing, user_data: u64) {
        let cqe = Cqe {
            seq: self.next_seq,
            len,
            result,
            landing,
            user_data,
        };
        self.next_seq += 1;
        if self.completions.len() >= self.cfg.cq_depth {
            self.ring_overflows += 1;
        }
        self.completions.push_back(cqe);
    }

    /// Completion for an operation that finished inside `submit`.
    fn complete_immediate(&mut self, user_data: u64, result: CqResult) {
        self.push_cqe(0, result, Landing::None, user_data);
    }
}

impl World {
    /// Records one completion-ring depth sample for `host`.
    /// Tracing-gated like the per-VC latency series, so plain
    /// measurement runs carry no observability state.
    pub(crate) fn note_cq_sample(&mut self, host: HostId, depth: u64) {
        if !self.tracing_enabled() {
            return;
        }
        self.cq_depth.entry(host.0).or_default().record(depth);
    }
}

/// Routes the world's completions to their hosts' queue pairs,
/// converts them to [`Cqe`]s, and samples the `cq.depth` series.
/// Returns the number of completions routed.
///
/// Within one harvest, receives complete before sends (matching the
/// world's separate completion streams); within each stream the
/// world's deterministic completion order is preserved. Each completion
/// echoes its request's `user_data`, so a completion belongs to the one
/// queue pair on its host: `qps` must hold at most one pair per host,
/// and every completion's host must have one. Two pairs on one host,
/// or a completion on a host without a pair (a raw synchronous call
/// mixed with queue pairs on the same world), panic.
pub fn harvest(w: &mut World, qps: &mut [QueuePair]) -> usize {
    let mut pair_of = std::mem::take(&mut w.cq_pairs);
    pair_of.clear();
    pair_of.resize(w.n_hosts(), usize::MAX);
    for (qi, qp) in qps.iter().enumerate() {
        let slot = &mut pair_of[qp.host.idx()];
        assert!(*slot == usize::MAX, "two queue pairs on host {}", qp.host.0);
        *slot = qi;
    }
    let pair = |host: HostId| match pair_of[host.idx()] {
        usize::MAX => panic!("completion on host {} without a queue pair", host.0),
        qi => qi,
    };
    let mut routed = 0;
    let mut recvs = std::mem::take(&mut w.done_recvs);
    for c in recvs.drain(..) {
        let qp = &mut qps[pair(c.host)];
        qp.recvs_in_flight = qp
            .recvs_in_flight
            .checked_sub(1)
            .unwrap_or_else(|| panic!("recv completion on host {} with none in flight", c.host.0));
        // The per-VC in-order delivery invariant: wire sequence numbers
        // on one circuit must be strictly increasing in completion order.
        let vc = c.vc;
        if let Some(&last) = qp.last_delivery.get(u64::from(vc.0)) {
            assert!(
                c.seq > last,
                "out-of-order completion on vc {} (seq {} after seq {last})",
                vc.0,
                c.seq
            );
        }
        qp.last_delivery.insert(u64::from(vc.0), c.seq);
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
            c.user_data,
        );
        qp.observed_at = qp.observed_at.max(c.completed_at);
        routed += 1;
    }
    w.done_recvs = recvs;
    let mut sends = std::mem::take(&mut w.done_sends);
    for c in sends.drain(..) {
        let qp = &mut qps[pair(c.host)];
        qp.sends_in_flight = qp
            .sends_in_flight
            .checked_sub(1)
            .unwrap_or_else(|| panic!("send completion on host {} with none in flight", c.host.0));
        qp.push_cqe(
            c.len,
            CqResult::Ok,
            Landing::Sent {
                effective: c.effective,
                credit_stalls: c.credit_stalls,
                latency: c.completed_at.saturating_sub(c.invoked_at),
            },
            c.user_data,
        );
        qp.observed_at = qp.observed_at.max(c.completed_at);
        routed += 1;
    }
    w.done_sends = sends;
    w.cq_pairs = pair_of;
    for qp in qps.iter_mut() {
        // The application observes a completion no earlier than it
        // exists: advance the host clock to the latest completion this
        // harvest delivered, so work issued afterwards (the next
        // submit) starts from there. This is what makes the in-flight
        // window a real throughput limiter — a too-shallow window
        // leaves the host idle between batches, which is exactly the
        // saturation curve the depth sweep measures.
        let observed = std::mem::replace(&mut qp.observed_at, SimTime::ZERO);
        if observed > SimTime::ZERO {
            let h = w.host_mut(qp.host);
            h.clock = h.clock.max(observed);
        }
        let depth = qp.completions_queued() as u64;
        w.note_cq_sample(qp.host, depth);
    }
    routed
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
        assert_eq!(qp.staged_len(), 2);
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
    #[should_panic(expected = "two queue pairs on host 0")]
    fn harvest_refuses_two_pairs_on_one_host() {
        let mut w = two_host_world();
        let mut qps = [HostId::A, HostId::B, HostId::A]
            .map(|h| QueuePair::new(h, Semantics::Copy, CqConfig::fixed(1)));
        harvest(&mut w, &mut qps);
    }

    #[test]
    fn window_gates_in_flight_sends() {
        // A window of 0 clamps to one send in flight.
        for (depth, window) in [(2, 2), (0, 1)] {
            let mut w = two_host_world();
            let tx = w.create_process(HostId::A);
            let bytes = 256usize;
            let mut qp = QueuePair::new(HostId::A, Semantics::Copy, CqConfig::fixed(depth));
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
            assert_eq!(issued, window, "fixed({depth}) gates the rest");
            assert_eq!(qp.staged_len(), 5 - window);
            assert_eq!(qp.in_flight(), window);
        }
    }
}
