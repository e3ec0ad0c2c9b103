//! CQ-level differential: the submission/completion-queue front-end
//! versus a naive reference queue.
//!
//! [`CqScenario::run`] drives the *same* seeded op sequence through
//! two independent worlds: the real one behind [`genie::QueuePair`]
//! (bounded rings, in-flight window, FIFO-strict submission) and a
//! [`ModelQueue`] that issues every staged operation immediately and
//! collects completions into unbounded FIFOs ordered by completion
//! time. The queue layer is supposed to be *observably transparent*:
//! whatever batching, gating, or ring-overflow spill it performs, the
//! application must see the same tags in the same per-category order,
//! the same payload bytes at the same posted buffers, and the same
//! backpressure rejects. Concretely, after every op:
//!
//! - the real side's cumulative polled tag stream (receives and sends
//!   separately) is a prefix of the model's — the window may make the
//!   real side *late*, never *different*;
//! - every delivered payload matches the deterministic expected bytes
//!   in **both** worlds;
//! - submission-queue rejects agree exactly (same arithmetic, no
//!   timing involved);
//! - at the trailing drain both streams are equal and a final probe
//!   sweep over every tracked buffer demands byte-equal (or
//!   equal-inaccessible) state across the two worlds.
//!
//! On divergence the kernel ([`crate::kernel`]) shrinks the scenario
//! and emits it as a replayable `.ops` file, next to the real run's
//! crash dump and Chrome trace. Corpus anchors
//! live in `tests/corpus_cq/` — a separate directory from the
//! synchronous differential's `tests/corpus/`, because the two
//! formats share the extension but not the verbs.

use std::collections::VecDeque;

use genie::cq::{self, AdaptiveConfig, CqConfig, CqResult, Landing, QueuePair, Sqe, SqeOp};
use genie::{Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::{FaultConfig, XorShift64};
use genie_net::{InputBuffering, Vc};
use genie_vm::SpaceId;

use crate::harness::seed_is_faulted;
use crate::kernel::{index_of, parse_ops, Differential, Divergence};
use crate::ops::payload;

/// One step of a CQ differential scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqOp {
    /// Stage a send of `len` bytes (tag = send ordinal).
    Send { len: usize },
    /// Stage a receive of the scenario's `max_len` capacity.
    PostRecv,
    /// Flush both queue pairs' staged entries into the world.
    Submit,
    /// One completion round: run the world, harvest, then pop up to
    /// `n` receive completions (sends drain fully — their ring is
    /// reaped opportunistically, like a real event loop would).
    Poll { n: usize },
    /// Completion rounds until `n` receive completions are queued (or
    /// no further progress is possible), then pop them.
    Wait { n: usize },
}

/// A complete CQ differential scenario: queue geometry plus op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqScenario {
    /// Data-passing semantics both queue pairs run.
    pub semantics: Semantics,
    /// Input buffering architecture of the receiving host.
    pub arch: InputBuffering,
    /// Seed (op list, payload bytes; every fourth seed runs with the
    /// masked fault plan, which may reorder send completions in time).
    pub seed: u64,
    /// Submission-queue bound of both queue pairs.
    pub sq_depth: usize,
    /// Completion-ring bound (small values exercise overflow spill).
    pub cq_depth: usize,
    /// Fixed in-flight send window of the real side.
    pub window: usize,
    /// Capacity every receive is posted with; sends never exceed it.
    pub max_len: usize,
    /// The op list.
    pub ops: Vec<CqOp>,
}

/// Deliberate defects for the teeth tests: each must make the
/// differential fail (and shrink), proving the checker would catch
/// the corresponding real bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CqBug {
    /// No defect.
    #[default]
    None,
    /// The real side's completion ring returns each polled batch with
    /// adjacent entries swapped — a reordered ring.
    ReorderedRing,
    /// The real side silently drops every third polled completion — a
    /// leaked tag.
    DroppedCqe,
}

/// Deterministic summary of one passing CQ scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqRunStats {
    /// Receive completions the application polled.
    pub recv_completions: usize,
    /// Send completions the application polled.
    pub send_completions: usize,
    /// Submission-queue rejects (identical on both sides).
    pub sq_rejects: u64,
    /// Completion-ring overflow spills on the real side (the model
    /// has no ring, so this only proves the spill path ran).
    pub ring_overflows: u64,
    /// Individual probe comparisons performed.
    pub probes_checked: u64,
}

const SEND_TAG: u64 = 1 << 32;
const RECV_TAG: u64 = 2 << 32;

/// The naive reference queue: no submission bound beyond the shared
/// reject arithmetic, no in-flight window, no completion ring — every
/// staged op issues on submit, and completions accumulate in
/// unbounded per-category FIFOs in completion order.
struct ModelQueue {
    w: World,
    tx: SpaceId,
    rx: SpaceId,
    semantics: Semantics,
    max_len: usize,
    staged: VecDeque<CqOp>,
    staged_sends: usize,
    staged_recvs: usize,
    sq_depth: usize,
    sq_rejects: u64,
    sends_issued: u64,
    recvs_issued: u64,
    /// Output token → send ordinal, so completion tags carry the
    /// *issue* ordinal even when masked faults reorder completions.
    send_tokens: std::collections::HashMap<u64, u64>,
    /// Completed receive tags in completion order, with landing.
    recv_q: VecDeque<(u64, SpaceId, u64, usize)>,
    recv_done: u64,
    send_q: VecDeque<(u64, usize)>,
    send_done: u64,
    /// Delivered landings by recv ordinal, for the final sweep.
    recv_landings: Vec<(SpaceId, u64, usize)>,
    /// Source bindings by send ordinal, for the final sweep.
    send_sources: Vec<(SpaceId, u64, usize)>,
    /// Posted application destinations by recv ordinal.
    app_dsts: Vec<Option<u64>>,
}

impl ModelQueue {
    fn new(sc: &CqScenario) -> Self {
        let mut w = World::new(world_config(sc));
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        ModelQueue {
            w,
            tx,
            rx,
            semantics: sc.semantics,
            max_len: sc.max_len,
            staged: VecDeque::new(),
            staged_sends: 0,
            staged_recvs: 0,
            sq_depth: sc.sq_depth,
            sq_rejects: 0,
            sends_issued: 0,
            recvs_issued: 0,
            send_tokens: std::collections::HashMap::new(),
            recv_q: VecDeque::new(),
            recv_done: 0,
            send_q: VecDeque::new(),
            send_done: 0,
            recv_landings: Vec::new(),
            send_sources: Vec::new(),
            app_dsts: Vec::new(),
        }
    }

    /// Mirrors [`QueuePair::post`]'s reject arithmetic. For receives
    /// the model recomputes the decision (staged count against
    /// `sq_depth` — nothing timing-dependent on that path) and the
    /// harness compares it against the real side. For sends the real
    /// staged count includes window-gated leftovers whose drain time
    /// the windowless model cannot know, so the harness passes the
    /// real decision in as `forced` and the model follows it.
    fn post(&mut self, op: CqOp, seed: u64, forced: Option<bool>) -> Result<(), ()> {
        let accept = match forced {
            Some(a) => a,
            None => {
                let staged_here = match op {
                    CqOp::Send { .. } => self.staged_sends,
                    CqOp::PostRecv => self.staged_recvs,
                    _ => unreachable!("only send/postrecv are staged"),
                };
                staged_here < self.sq_depth
            }
        };
        if !accept {
            self.sq_rejects += 1;
            return Err(());
        }
        match op {
            CqOp::Send { .. } => self.staged_sends += 1,
            CqOp::PostRecv => self.staged_recvs += 1,
            _ => {}
        }
        let _ = seed;
        self.staged.push_back(op);
        Ok(())
    }

    fn submit(&mut self, seed: u64) {
        while let Some(op) = self.staged.pop_front() {
            match op {
                CqOp::Send { len } => {
                    self.staged_sends -= 1;
                    let k = self.sends_issued;
                    self.sends_issued += 1;
                    let data = payload(seed, k, len);
                    let vaddr = match self.semantics.allocation() {
                        Allocation::Application => self
                            .w
                            .host_mut(HostId::A)
                            .alloc_buffer(self.tx, len, 0)
                            .expect("model source alloc"),
                        Allocation::System => {
                            self.w
                                .host_mut(HostId::A)
                                .alloc_io_buffer(self.tx, len)
                                .expect("model source alloc")
                                .1
                        }
                    };
                    self.w
                        .app_write(HostId::A, self.tx, vaddr, &data)
                        .expect("model source write");
                    self.send_sources.push((self.tx, vaddr, len));
                    let token = self
                        .w
                        .output(
                            HostId::A,
                            OutputRequest::new(self.semantics, Vc(1), self.tx, vaddr, len),
                        )
                        .expect("model output");
                    self.send_tokens.insert(token, k);
                }
                CqOp::PostRecv => {
                    self.staged_recvs -= 1;
                    self.recvs_issued += 1;
                    match self.semantics.allocation() {
                        Allocation::Application => {
                            let off = self.w.preferred_alignment(HostId::B, Vc(1)).0;
                            let dst = self
                                .w
                                .host_mut(HostId::B)
                                .alloc_buffer(self.rx, self.max_len, off)
                                .expect("model dest alloc");
                            self.app_dsts.push(Some(dst));
                            self.w
                                .input(
                                    HostId::B,
                                    InputRequest::app(
                                        self.semantics,
                                        Vc(1),
                                        self.rx,
                                        dst,
                                        self.max_len,
                                    ),
                                )
                                .expect("model input");
                        }
                        Allocation::System => {
                            self.app_dsts.push(None);
                            self.w
                                .input(
                                    HostId::B,
                                    InputRequest::system(
                                        self.semantics,
                                        Vc(1),
                                        self.rx,
                                        self.max_len,
                                    ),
                                )
                                .expect("model input");
                        }
                    }
                }
                _ => unreachable!("only send/postrecv are staged"),
            }
        }
    }

    /// One completion round: run to quiescence, append everything that
    /// completed to the unbounded FIFOs in completion order.
    fn round(&mut self) {
        self.w.run();
        let mut recvs = self.w.take_completed_inputs();
        recvs.sort_by_key(|c| (c.completed_at, c.seq));
        for c in recvs {
            let tag = RECV_TAG | self.recv_done;
            self.recv_done += 1;
            self.recv_landings.push((c.space, c.vaddr, c.len));
            self.recv_q.push_back((tag, c.space, c.vaddr, c.len));
        }
        let mut sends = self.w.take_completed_outputs();
        sends.sort_by_key(|c| (c.completed_at, c.len));
        for c in sends {
            let k = self.send_tokens.remove(&c.token).expect("known send token");
            self.send_done += 1;
            self.send_q.push_back((SEND_TAG | k, c.len));
        }
    }
}

fn world_config(sc: &CqScenario) -> WorldConfig {
    WorldConfig {
        rx_buffering: sc.arch,
        frames_per_host: 1024,
        credit_limit: 256,
        fault: if seed_is_faulted(sc.seed) {
            FaultConfig::masked(sc.seed)
        } else {
            FaultConfig::NONE
        },
        ..WorldConfig::default()
    }
}

/// Runs one CQ scenario differentially. `Ok` carries the run summary;
/// `Err` carries the first divergence.
fn run_cq_scenario(sc: &CqScenario, bug: CqBug, traced: bool) -> Result<CqRunStats, Divergence> {
    let faulted = seed_is_faulted(sc.seed);
    // Real side: one world, a send queue pair on A and a receive queue
    // pair on B, window-gated and ring-bounded per the scenario.
    let mut w = World::new(world_config(sc));
    if traced {
        w.enable_tracing(true);
    }
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let cfg = CqConfig {
        sq_depth: sc.sq_depth,
        cq_depth: sc.cq_depth,
        window: AdaptiveConfig::fixed(sc.window),
    };
    let mut qps = vec![
        QueuePair::new(HostId::A, sc.semantics, cfg),
        QueuePair::new(HostId::B, sc.semantics, cfg),
    ];
    let mut m = ModelQueue::new(sc);

    // Cumulative polled streams: (tag, len) per category, both sides.
    let mut real_recv: Vec<(u64, usize)> = Vec::new();
    let mut model_recv: Vec<(u64, usize)> = Vec::new();
    let mut real_send: Vec<(u64, usize)> = Vec::new();
    let mut model_send: Vec<(u64, usize)> = Vec::new();
    // Real-side bindings for the final sweep, by ordinal.
    let mut real_sources: Vec<(SpaceId, u64, usize)> = Vec::new();
    let mut real_landings: Vec<(SpaceId, u64, usize)> = Vec::new();
    let mut sends_posted = 0u64;
    let mut recvs_posted = 0u64;

    // One op against both sides; `Err` says what disagreed.
    let mut apply = |w: &mut World, op: CqOp| -> Result<(), String> {
        match op {
            CqOp::Send { len } => {
                // Check acceptance before allocating, so the two
                // worlds allocate in the same order ([`QueuePair::post`]
                // only looks at the staged count).
                let accepted_real = qps[0].staged_len() < sc.sq_depth;
                let _ = m.post(CqOp::Send { len }, sc.seed, Some(accepted_real));
                if !accepted_real {
                    // Drive the real reject counter with a genuine
                    // post of a throwaway entry.
                    let r = qps[0].post(Sqe {
                        user_data: SEND_TAG | sends_posted,
                        op: SqeOp::Touch {
                            space: tx,
                            vaddr: 0,
                            len: 0,
                            pattern: 0,
                        },
                    });
                    debug_assert!(r.is_err());
                    return Ok(());
                }
                let k = sends_posted;
                sends_posted += 1;
                let data = payload(sc.seed, k, len);
                let vaddr = match sc.semantics.allocation() {
                    Allocation::Application => w
                        .host_mut(HostId::A)
                        .alloc_buffer(tx, len, 0)
                        .expect("real source alloc"),
                    Allocation::System => {
                        w.host_mut(HostId::A)
                            .alloc_io_buffer(tx, len)
                            .expect("real source alloc")
                            .1
                    }
                };
                w.app_write(HostId::A, tx, vaddr, &data)
                    .expect("real source write");
                real_sources.push((tx, vaddr, len));
                qps[0]
                    .post(Sqe {
                        user_data: SEND_TAG | k,
                        op: SqeOp::Send {
                            vc: Vc(1),
                            space: tx,
                            vaddr,
                            len,
                        },
                    })
                    .expect("accept checked above");
            }
            CqOp::PostRecv => {
                let accepted_real = qps[1].staged_len() < sc.sq_depth;
                let accepted_model = m.post(CqOp::PostRecv, sc.seed, None).is_ok();
                if accepted_real != accepted_model {
                    return Err(format!(
                        "sq accept disagrees: real {accepted_real}, model {accepted_model}"
                    ));
                }
                if !accepted_real {
                    let r = qps[1].post(Sqe {
                        user_data: RECV_TAG | recvs_posted,
                        op: SqeOp::Touch {
                            space: rx,
                            vaddr: 0,
                            len: 0,
                            pattern: 0,
                        },
                    });
                    debug_assert!(r.is_err());
                    return Ok(());
                }
                let k = recvs_posted;
                recvs_posted += 1;
                let buffer = match sc.semantics.allocation() {
                    Allocation::Application => {
                        let off = w.preferred_alignment(HostId::B, Vc(1)).0;
                        Some(
                            w.host_mut(HostId::B)
                                .alloc_buffer(rx, sc.max_len, off)
                                .expect("real dest alloc"),
                        )
                    }
                    Allocation::System => None,
                };
                qps[1]
                    .post(Sqe {
                        user_data: RECV_TAG | k,
                        op: SqeOp::PostRecv {
                            vc: Vc(1),
                            space: rx,
                            buffer,
                            len: sc.max_len,
                        },
                    })
                    .expect("accept checked above");
            }
            CqOp::Submit => {
                // Receives first so every arrival is solicited, then
                // sends — mirroring the model's single FIFO, which the
                // generator also orders recv-before-send.
                qps[1].submit(w);
                qps[0].submit(w);
                m.submit(sc.seed);
            }
            CqOp::Poll { n } => {
                qps[1].submit(w);
                qps[0].submit(w);
                w.run();
                cq::harvest(w, &mut qps);
                m.submit(sc.seed);
                m.round();
                pop_and_check(
                    w,
                    &mut qps,
                    &mut m,
                    bug,
                    n,
                    &mut real_recv,
                    &mut model_recv,
                    &mut real_send,
                    &mut model_send,
                    &mut real_landings,
                )?;
            }
            CqOp::Wait { n } => {
                qps[1].submit(w);
                qps[0].submit(w);
                let mut spins = 0usize;
                while qps[1].completions_queued() < n {
                    qps[1].submit(w);
                    qps[0].submit(w);
                    w.run();
                    if cq::harvest(w, &mut qps) == 0 {
                        spins += 1;
                        if spins > 2 {
                            break; // quiescent: nothing more will come
                        }
                    } else {
                        spins = 0;
                    }
                }
                // The model needs at most one round once issued — its
                // world ran to quiescence with everything in flight —
                // but spin the same way for symmetry.
                m.submit(sc.seed);
                while m.recv_q.len() < n {
                    let before = m.recv_done + m.send_done;
                    m.round();
                    if m.recv_done + m.send_done == before {
                        break;
                    }
                }
                pop_and_check(
                    w,
                    &mut qps,
                    &mut m,
                    bug,
                    n,
                    &mut real_recv,
                    &mut model_recv,
                    &mut real_send,
                    &mut model_send,
                    &mut real_landings,
                )?;
            }
        }

        // Reject arithmetic is timing-free: demand exact agreement
        // after every op.
        let real_rejects = qps[0].sq_rejects() + qps[1].sq_rejects();
        if real_rejects != m.sq_rejects {
            return Err(format!(
                "sq_rejects: real {real_rejects}, model {}",
                m.sq_rejects
            ));
        }

        // Prefix check: the real side may lag (window gating), never
        // disagree. Masked faults reorder send completions in time,
        // so faulted seeds defer the send-stream check to the final
        // multiset comparison.
        if real_recv.len() > model_recv.len() || real_recv[..] != model_recv[..real_recv.len()] {
            return Err(format!(
                "recv stream diverged: real {:?}, model {:?}",
                &real_recv[real_recv.len().saturating_sub(4)..],
                &model_recv[..model_recv.len().min(real_recv.len() + 2)]
            ));
        }
        if !faulted
            && (real_send.len() > model_send.len()
                || real_send[..] != model_send[..real_send.len()])
        {
            return Err(format!(
                "send stream diverged: real {:?}, model {:?}",
                &real_send[real_send.len().saturating_sub(4)..],
                &model_send[..model_send.len().min(real_send.len() + 2)]
            ));
        }
        Ok(())
    };
    for (step, &op) in sc.ops.iter().enumerate() {
        apply(&mut w, op).map_err(|d| Divergence::capture(&mut w, sc, traced, step, d))?;
    }
    let mut stats = CqRunStats {
        recv_completions: real_recv.len(),
        send_completions: real_send.len(),
        sq_rejects: qps[0].sq_rejects() + qps[1].sq_rejects(),
        ring_overflows: qps[0].ring_overflows() + qps[1].ring_overflows(),
        probes_checked: 0,
    };

    // Generated op lists end with a trailing drain, but shrinking
    // deletes ops freely — a candidate may legitimately end with
    // entries still staged, gated, or unpolled, where the real side
    // lags the model by design. The closure checks (stream equality,
    // probe sweep) only apply once both sides are actually drained;
    // the per-op prefix checks above carry the load otherwise.
    let drained = m.staged.is_empty()
        && m.recv_q.is_empty()
        && m.send_q.is_empty()
        && qps.iter().all(|q| {
            q.staged_len() == 0 && q.in_flight_sends() == 0 && q.completions_queued() == 0
        });
    if !drained {
        return Ok(stats);
    }
    // The closing checks, past the last op; `Err` says what disagreed.
    let mut close = || -> Result<(), String> {
        if real_recv != model_recv {
            return Err(format!(
                "final recv streams differ: real {} entries, model {}",
                real_recv.len(),
                model_recv.len()
            ));
        }
        let (mut a, mut b) = (real_send.clone(), model_send.clone());
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return Err(format!(
                "final send multisets differ: real {} entries, model {}",
                real_send.len(),
                model_send.len()
            ));
        }

        // Final probe sweep: every delivered landing and every source,
        // in both worlds, byte-for-byte (or equally inaccessible).
        if m.recv_landings.len() < real_landings.len() || m.send_sources.len() != real_sources.len()
        {
            return Err(format!(
                "drained binding counts differ: real {}/{} landings/sources, model {}/{}",
                real_landings.len(),
                real_sources.len(),
                m.recv_landings.len(),
                m.send_sources.len()
            ));
        }
        for (i, &(space, vaddr, len)) in real_landings.iter().enumerate() {
            let (mspace, mvaddr, mlen) = m.recv_landings[i];
            let expect = payload(sc.seed, i as u64, len);
            let got_r = w.peek_app(HostId::B, space, vaddr, len);
            let got_m = m.w.peek_app(HostId::B, mspace, mvaddr, mlen);
            stats.probes_checked += 2;
            if got_r.as_deref() != Some(&expect[..]) {
                return Err(format!(
                    "real delivery {i} bytes differ from expected payload"
                ));
            }
            if got_m.as_deref() != Some(&expect[..]) {
                return Err(format!(
                    "model delivery {i} bytes differ from expected payload"
                ));
            }
        }
        // A sender never takes a region back, so its region cache
        // keeps one: under the weak moves only the source whose send
        // completed last stays mapped. That follows each world's own
        // completion order, which masked faults may permute differently
        // on the two sides.
        let weak = matches!(
            sc.semantics,
            Semantics::WeakMove | Semantics::EmulatedWeakMove
        );
        let last = |stream: &[(u64, usize)]| stream.last().map(|&(tag, _)| tag - SEND_TAG);
        let (last_r, last_m) = (last(&real_send), last(&model_send));
        for (i, &(space, vaddr, len)) in real_sources.iter().enumerate() {
            let (mspace, mvaddr, mlen) = m.send_sources[i];
            let got_r = w.peek_app(HostId::A, space, vaddr, len);
            let got_m = m.w.peek_app(HostId::A, mspace, mvaddr, mlen);
            stats.probes_checked += 2;
            let kept = |got: &Option<Vec<u8>>, last: Option<u64>| {
                got.is_some() == (last == Some(i as u64))
            };
            let agree = (!weak || kept(&got_r, last_r) && kept(&got_m, last_m))
                && match (&got_r, &got_m) {
                    (Some(x), Some(y)) => x == y && len == mlen,
                    (None, None) => true,
                    _ => weak,
                };
            if !agree {
                return Err(format!(
                    "source {i} visibility differs: real {}, model {}",
                    got_r.is_some(),
                    got_m.is_some()
                ));
            }
        }
        Ok(())
    };
    close().map_err(|d| Divergence::capture(&mut w, sc, traced, sc.ops.len(), d))?;
    Ok(stats)
}

/// Pops completions from both sides after a round and appends them to
/// the cumulative streams; `bug` mutates the real side's polled batch
/// (teeth tests only).
#[allow(clippy::too_many_arguments)]
fn pop_and_check(
    w: &mut World,
    qps: &mut [QueuePair],
    m: &mut ModelQueue,
    bug: CqBug,
    n: usize,
    real_recv: &mut Vec<(u64, usize)>,
    model_recv: &mut Vec<(u64, usize)>,
    real_send: &mut Vec<(u64, usize)>,
    model_send: &mut Vec<(u64, usize)>,
    real_landings: &mut Vec<(SpaceId, u64, usize)>,
) -> Result<(), String> {
    // Receives: up to n from the real ring, mirrored on the model.
    let mut batch: Vec<(u64, usize, SpaceId, u64)> = Vec::new();
    while batch.len() < n {
        let Some(c) = qps[1].poll() else { break };
        let Landing::Delivered { space, vaddr, .. } = c.landing else {
            return Err(format!("receive completion without a delivery: {c:?}"));
        };
        if c.result != CqResult::Ok {
            return Err(format!("receive completion not Ok: {c:?}"));
        }
        batch.push((c.user_data, c.len, space, vaddr));
    }
    match bug {
        CqBug::None => {}
        CqBug::ReorderedRing => {
            for pair in batch.chunks_mut(2) {
                if pair.len() == 2 {
                    pair.swap(0, 1);
                }
            }
        }
        CqBug::DroppedCqe => {
            let mut i = 0;
            batch.retain(|_| {
                i += 1;
                i % 3 != 0
            });
        }
    }
    for (tag, len, space, vaddr) in batch {
        real_recv.push((tag, len));
        real_landings.push((space, vaddr, len));
        // The delivered bytes must already be in place when the
        // completion is polled, not just at the end of the run.
        let got = w.peek_app(HostId::B, space, vaddr, len);
        if got.is_none() {
            return Err(format!("polled delivery {tag:#x} is not readable"));
        }
    }
    for _ in 0..n {
        let Some((tag, _space, _vaddr, len)) = m.recv_q.pop_front() else {
            break;
        };
        model_recv.push((tag, len));
    }
    // Sends: drain whatever is ready on both sides.
    while let Some(c) = qps[0].poll() {
        if !matches!(c.landing, Landing::Sent { .. }) {
            return Err(format!("send completion without a Sent landing: {c:?}"));
        }
        real_send.push((c.user_data, c.len));
    }
    while let Some((tag, len)) = m.send_q.pop_front() {
        model_send.push((tag, len));
    }
    Ok(())
}

impl CqScenario {
    /// Generates the scenario for one (semantics, arch, seed) grid
    /// point. Pure function of its arguments. Receives always lead
    /// sends (every arrival is solicited), and a trailing
    /// submit-and-wait drains everything so the final streams close.
    pub fn generate(semantics: Semantics, arch: InputBuffering, seed: u64) -> CqScenario {
        let mut rng = XorShift64::new(
            seed.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ index_of(&Semantics::ALL, semantics) << 8,
        );
        let max_len = 1 + rng.below(4096) as usize;
        let sq_depth = 4 + rng.below(12) as usize;
        let cq_depth = 2 + rng.below(6) as usize;
        let window = 1 + rng.below(4) as usize;
        let n = 8 + rng.below(16) as usize;
        let mut ops = Vec::new();
        let mut sends = 0usize;
        let mut recvs = 0usize;
        for _ in 0..n {
            match rng.below(100) {
                0..=34 => {
                    if recvs > sends && sends < 16 {
                        let len = 1 + rng.below(max_len as u64) as usize;
                        ops.push(CqOp::Send { len });
                        sends += 1;
                    } else if recvs < 20 {
                        ops.push(CqOp::PostRecv);
                        recvs += 1;
                    }
                }
                35..=59 => {
                    if recvs < 20 {
                        ops.push(CqOp::PostRecv);
                        recvs += 1;
                    }
                }
                60..=74 => ops.push(CqOp::Submit),
                75..=89 => ops.push(CqOp::Poll {
                    n: 1 + rng.below(4) as usize,
                }),
                _ => {
                    // Wait for at most what can still complete.
                    if sends > 0 {
                        ops.push(CqOp::Wait {
                            n: 1 + rng.below(sends as u64) as usize,
                        });
                    }
                }
            }
        }
        // Drain: flush everything staged, then wait out every send.
        ops.push(CqOp::Submit);
        ops.push(CqOp::Wait { n: sends });
        ops.push(CqOp::Poll { n: recvs });
        CqScenario {
            semantics,
            arch,
            seed,
            sq_depth,
            cq_depth,
            window,
            max_len,
            ops,
        }
    }
}

impl Differential for CqScenario {
    type Op = CqOp;
    type Bug = CqBug;
    type Stats = CqRunStats;
    const KIND: &'static str = "cq";

    fn ops(&self) -> &[CqOp] {
        &self.ops
    }

    fn ops_mut(&mut self) -> &mut Vec<CqOp> {
        &mut self.ops
    }

    fn header(&self) -> String {
        format!(
            "semantics={:?}\narch={:?}\nseed={}\nsq_depth={}\ncq_depth={}\nwindow={}\nmax_len={}\n",
            self.semantics,
            self.arch,
            self.seed,
            self.sq_depth,
            self.cq_depth,
            self.window,
            self.max_len
        )
    }

    fn op_line(op: &CqOp) -> String {
        match *op {
            CqOp::Send { len } => format!("send len={len}"),
            CqOp::PostRecv => "postrecv".into(),
            CqOp::Submit => "submit".into(),
            CqOp::Poll { n } => format!("poll n={n}"),
            CqOp::Wait { n } => format!("wait n={n}"),
        }
    }

    fn parse(text: &str) -> Result<CqScenario, String> {
        let mut ops = Vec::new();
        let keys = [
            "semantics",
            "arch",
            "seed",
            "sq_depth",
            "cq_depth",
            "window",
            "max_len",
        ];
        let h = parse_ops(text, &keys, |verb, a| {
            ops.push(match verb {
                "send" => CqOp::Send { len: a.kv("len")? },
                "postrecv" => CqOp::PostRecv,
                "submit" => CqOp::Submit,
                "poll" => CqOp::Poll { n: a.kv("n")? },
                "wait" => CqOp::Wait { n: a.kv("n")? },
                _ => return None,
            });
            Some(())
        })?;
        Ok(CqScenario {
            semantics: h.get("semantics")?,
            arch: h.get("arch")?,
            seed: h.get("seed")?,
            sq_depth: h.get("sq_depth")?,
            cq_depth: h.get("cq_depth")?,
            window: h.get("window")?,
            max_len: h.get("max_len")?,
            ops,
        })
    }

    fn run(&self, bug: CqBug, traced: bool) -> Result<CqRunStats, Divergence> {
        run_cq_scenario(self, bug, traced)
    }

    fn stem(&self) -> String {
        format!("cq_ce_{:?}_{:?}_{}", self.semantics, self.arch, self.seed)
    }

    fn reproduce(&self) -> String {
        format!(
            "GENIE_MODEL_SEED={} cargo test --test cq_differential",
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        for seed in 0..12 {
            for sem in Semantics::ALL {
                let a = CqScenario::generate(sem, InputBuffering::Pooled, seed);
                let b = CqScenario::generate(sem, InputBuffering::Pooled, seed);
                assert_eq!(a, b);
                let parsed = CqScenario::parse(&a.to_ops_string()).expect("parse");
                assert_eq!(a, parsed);
            }
        }
    }

    #[test]
    fn generated_scenarios_keep_receives_ahead_of_sends() {
        for seed in 0..40 {
            let sc = CqScenario::generate(Semantics::Move, InputBuffering::EarlyDemux, seed);
            let (mut sends, mut recvs) = (0usize, 0usize);
            for op in &sc.ops {
                match op {
                    CqOp::Send { len } => {
                        sends += 1;
                        assert!(*len >= 1 && *len <= sc.max_len);
                        assert!(recvs >= sends, "send without a leading receive");
                    }
                    CqOp::PostRecv => recvs += 1,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn a_small_scenario_passes_differentially() {
        let sc = CqScenario::generate(Semantics::Copy, InputBuffering::Pooled, 1);
        let stats = run_cq_scenario(&sc, CqBug::None, false).expect("clean run");
        assert_eq!(stats.sq_rejects, 0);
    }
}
