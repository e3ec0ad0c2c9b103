//! The executable reference model.
//!
//! [`ModelWorld`] is a deliberately simple, allocation-naive
//! restatement of the *observable* contract of the eight semantics:
//! buffers are `Vec<u8>`s, the wire is a FIFO, and each rule from the
//! paper is stated directly — what an output promises to deliver
//! (strong = bytes at the output call, weak = bytes at transmission),
//! when move-family sources disappear from the address space, what
//! weakly-moved-out regions let the application keep doing, how the
//! region cache recycles released regions and reclaims those beyond
//! its bound, and what a pageout storm may evict. There is no cost
//! model, no pooling, no scatter/gather: if the simulator and this
//! model disagree about any application-visible byte, one of them is
//! wrong.

use std::collections::VecDeque;

use genie::{Integrity, Semantics};
use genie_net::InputBuffering;

/// Everything the model needs to know about the scenario. Thresholds
/// and geometry come from the real world's configuration so there is
/// one source of truth for the numbers.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Data-passing semantics of every send and receive.
    pub semantics: Semantics,
    /// Receiver's input buffering architecture.
    pub arch: InputBuffering,
    /// Capacity every receive is posted with.
    pub max_len: usize,
    /// Page size of the simulated machines.
    pub page_size: usize,
    /// Datagram header length (affects pooled region spans).
    pub header_len: usize,
    /// Below this, emulated copy output falls back to copy.
    pub emulated_copy_output_threshold: usize,
    /// Below this, emulated share output falls back to copy.
    pub emulated_share_output_threshold: usize,
}

/// A deliberately seeded model defect, used to prove the harness can
/// catch and shrink real divergences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModelBug {
    /// The correct model.
    #[default]
    None,
    /// Wrong on purpose: treats basic share as a strong semantics
    /// (snapshotting the source at the output call), so touching a
    /// shared source between output and transmission diverges.
    ShareIsStrong,
}

/// What kind of application-visible buffer an entity is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityKind {
    /// A sender-side buffer an output was issued on.
    Source,
    /// A receiver-side application buffer a receive was posted into.
    Dest,
    /// A receiver-side system-allocated region a receive delivered.
    Region,
}

/// Observable lifecycle of an entity's address range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityState {
    /// Readable and writable; contents are `bytes`.
    Visible,
    /// Weakly moved out: still readable and writable (the weak
    /// semantics' defining leniency) until a pageout storm evicts it
    /// or the region cache reclaims it.
    WeaklyOut,
    /// Unrecoverably gone: moved out, invalidated, paged out, or
    /// reclaimed by the region cache. Any access faults.
    Hidden,
}

/// One tracked application-visible buffer.
#[derive(Clone, Debug)]
pub struct ModelEntity {
    /// What the buffer is.
    pub kind: EntityKind,
    /// True if it lives on the receiving host.
    pub on_receiver: bool,
    /// The bytes the application would read while the entity is not
    /// [`EntityState::Hidden`].
    pub bytes: Vec<u8>,
    /// Probe window: how many leading bytes are predictable. Shrinks
    /// to the delivered length once a receive completes into a
    /// destination buffer.
    pub window: usize,
    /// Observable lifecycle state.
    pub state: EntityState,
    /// True while the application holds resident mappings over the
    /// whole window (established by reading or writing it, evicted by
    /// a pageout storm). A weakly-moved-out range is unrecoverable, so
    /// it stays readable only *through* such mappings: releasing a
    /// region the application never faulted in hides it immediately.
    pub mapped: bool,
    /// True once the address range was recycled by the region cache;
    /// the entity is no longer tracked or targetable.
    pub retired: bool,
    /// True for a delivered region not yet released.
    pub releasable: bool,
}

/// A send in flight (output issued, not yet transmitted).
#[derive(Clone, Debug)]
struct ModelSend {
    src: usize,
    len: usize,
    /// Strong semantics promise the bytes as of the output call.
    snapshot: Option<Vec<u8>>,
    seq: u32,
    requested: Semantics,
    effective: Semantics,
}

/// A datagram that arrived with no receive posted.
#[derive(Clone, Debug)]
struct ModelPdu {
    seq: u32,
    len: usize,
    bytes: Vec<u8>,
}

/// A posted receive slot. `dst` is the destination entity for
/// application-allocated semantics, `None` for system-allocated.
#[derive(Clone, Copy, Debug)]
struct Posted {
    dst: Option<usize>,
}

/// Where a completed receive delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvDst {
    /// Into the posted application buffer (entity index).
    App(usize),
    /// Into a fresh system region (entity index, created now).
    NewRegion(usize),
}

/// One predicted receive completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelRecv {
    /// Sequence number (gapless, in posting order of the outputs).
    pub seq: u32,
    /// Delivered length.
    pub len: usize,
    /// Delivered bytes.
    pub bytes: Vec<u8>,
    /// Where they landed.
    pub dst: RecvDst,
}

/// One predicted send completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSendDone {
    /// Source entity of the send.
    pub src: usize,
    /// Payload length.
    pub len: usize,
    /// Semantics the application asked for.
    pub requested: Semantics,
    /// Semantics actually applied (output thresholds may fall back
    /// to copy).
    pub effective: Semantics,
}

/// Everything one op is predicted to complete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelEvents {
    /// Receive completions, in delivery order.
    pub recvs: Vec<ModelRecv>,
    /// Send completions, in output order.
    pub sends: Vec<ModelSendDone>,
}

/// Outcome of posting a receive.
#[derive(Clone, Debug)]
pub enum PostOutcome {
    /// Queued; a later transmission will fill it.
    Posted,
    /// Completed immediately from the unsolicited backlog.
    Immediate(ModelRecv),
}

/// Outcome of a touch op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchOutcome {
    /// No targetable entity; the op is a no-op on both sides.
    Skip,
    /// Write `n` `pattern` bytes at offset `at` of entity `idx`;
    /// the write succeeds iff `expect_ok`.
    Apply {
        /// Target entity index.
        idx: usize,
        /// Byte offset of the write within the entity.
        at: usize,
        /// Write length.
        n: usize,
        /// Whether the write is predicted to succeed.
        expect_ok: bool,
    },
}

/// Outcome of a release op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// Nothing releasable; no-op on both sides.
    Skip,
    /// Release delivered region entity `idx`.
    Apply {
        /// Target entity index.
        idx: usize,
    },
}

/// The reference model of one unidirectional scenario (host A sends,
/// host B receives, one VC).
#[derive(Clone, Debug)]
pub struct ModelWorld {
    params: ModelParams,
    bug: ModelBug,
    entities: Vec<ModelEntity>,
    inflight: VecDeque<ModelSend>,
    backlog: VecDeque<ModelPdu>,
    posted: VecDeque<Posted>,
    /// Receiver-side region cache: (entity, npages), oldest first.
    cache: VecDeque<(usize, u64)>,
    /// Receives that took a region from the cache (hit or miss) and
    /// have not released it yet.
    inputs_out: usize,
    /// High-water mark of `inputs_out`: the receiver's cache keeps at
    /// most this many regions (and at least one).
    inputs_hwm: usize,
    /// Sender-side region cache: disposed move-family sources, oldest
    /// first. The sender never takes a region back, so it keeps one.
    sent_cache: VecDeque<usize>,
    next_seq: u32,
}

impl ModelWorld {
    /// A fresh model for one scenario.
    pub fn new(params: ModelParams, bug: ModelBug) -> Self {
        ModelWorld {
            params,
            bug,
            entities: Vec::new(),
            inflight: VecDeque::new(),
            backlog: VecDeque::new(),
            posted: VecDeque::new(),
            cache: VecDeque::new(),
            inputs_out: 0,
            inputs_hwm: 0,
            sent_cache: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// The scenario parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// All tracked entities.
    pub fn entities(&self) -> &[ModelEntity] {
        &self.entities
    }

    /// Output thresholds: small emulated-copy and emulated-share
    /// outputs fall back to plain copy (observably *strengthening*
    /// emulated share).
    pub fn effective_semantics(&self, len: usize) -> Semantics {
        match self.params.semantics {
            Semantics::EmulatedCopy if len < self.params.emulated_copy_output_threshold => {
                Semantics::Copy
            }
            Semantics::EmulatedShare if len < self.params.emulated_share_output_threshold => {
                Semantics::Copy
            }
            s => s,
        }
    }

    /// Registers a sender-side buffer holding `bytes`.
    pub fn add_source(&mut self, bytes: Vec<u8>) -> usize {
        let window = bytes.len();
        self.entities.push(ModelEntity {
            kind: EntityKind::Source,
            on_receiver: false,
            bytes,
            window,
            state: EntityState::Visible,
            mapped: true,
            retired: false,
            releasable: false,
        });
        self.entities.len() - 1
    }

    /// Registers a receiver-side application buffer of `max_len`
    /// fresh (zero-filled) bytes.
    pub fn add_dest(&mut self) -> usize {
        self.entities.push(ModelEntity {
            kind: EntityKind::Dest,
            on_receiver: true,
            bytes: vec![0; self.params.max_len],
            window: self.params.max_len,
            state: EntityState::Visible,
            mapped: true,
            retired: false,
            releasable: false,
        });
        self.entities.len() - 1
    }

    /// Issues an output of `len` bytes on source entity `src`,
    /// followed (if the source is still visible) by a full-length
    /// scribble. Returns whether the scribble applies.
    pub fn send(&mut self, src: usize, len: usize, scribble: Option<u8>) -> bool {
        let requested = self.params.semantics;
        let effective = self.effective_semantics(len);
        let strong = effective.integrity() == Integrity::Strong
            || (self.bug == ModelBug::ShareIsStrong && requested == Semantics::Share);
        let snapshot = strong.then(|| self.entities[src].bytes[..len].to_vec());
        // Move-family outputs hide the source region at the output
        // call (it is invalidated for the move), never to return.
        if matches!(requested, Semantics::Move | Semantics::EmulatedMove) {
            self.entities[src].state = EntityState::Hidden;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push_back(ModelSend {
            src,
            len,
            snapshot,
            seq,
            requested,
            effective,
        });
        let applies = scribble.is_some() && self.entities[src].state != EntityState::Hidden;
        if let Some(p) = scribble {
            if applies {
                self.entities[src].bytes[..len].fill(p);
            }
        }
        applies
    }

    /// Region span, in pages, of every system-allocated receive in
    /// this scenario (uniform because every receive uses `max_len`).
    /// Mirrors the simulator's prepare-time geometry: pooled delivery
    /// overlays the header in front of the payload.
    pub fn recv_npages(&self) -> u64 {
        let span = self.params.max_len
            + if self.params.arch == InputBuffering::Pooled {
                self.params.header_len
            } else {
                0
            };
        (span as u64).div_ceil(self.params.page_size as u64)
    }

    /// True for the semantics whose moved-out regions enter a region
    /// cache.
    fn caches_regions(&self) -> bool {
        matches!(
            self.params.semantics,
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove
        )
    }

    /// Posts one receive. `dst` is the destination entity for
    /// application-allocated semantics (`None` for system-allocated,
    /// which may recycle the oldest cached region of matching span —
    /// retiring that entity). Completes immediately if a datagram is
    /// already backlogged.
    pub fn post_recv(&mut self, dst: Option<usize>) -> PostOutcome {
        if dst.is_none() && self.caches_regions() {
            self.inputs_out += 1;
            self.inputs_hwm = self.inputs_hwm.max(self.inputs_out);
            let want = self.recv_npages();
            if let Some(&(id, np)) = self.cache.front() {
                if np == want {
                    self.cache.pop_front();
                    self.entities[id].retired = true;
                }
            }
        }
        if let Some(pdu) = self.backlog.pop_front() {
            PostOutcome::Immediate(self.complete(Posted { dst }, pdu.seq, pdu.len, pdu.bytes))
        } else {
            self.posted.push_back(Posted { dst });
            PostOutcome::Posted
        }
    }

    fn complete(&mut self, p: Posted, seq: u32, len: usize, bytes: Vec<u8>) -> ModelRecv {
        match p.dst {
            Some(d) => {
                let e = &mut self.entities[d];
                e.bytes[..len].copy_from_slice(&bytes);
                e.window = len;
                ModelRecv {
                    seq,
                    len,
                    bytes,
                    dst: RecvDst::App(d),
                }
            }
            None => {
                let id = self.entities.len();
                self.entities.push(ModelEntity {
                    kind: EntityKind::Region,
                    on_receiver: true,
                    bytes: bytes.clone(),
                    window: len,
                    state: EntityState::Visible,
                    // The harness reads every delivery in full, which
                    // faults the whole window resident.
                    mapped: true,
                    retired: false,
                    releasable: true,
                });
                ModelRecv {
                    seq,
                    len,
                    bytes,
                    dst: RecvDst::NewRegion(id),
                }
            }
        }
    }

    /// Transmits every in-flight send, in order: strong sends deliver
    /// their output-time snapshot, weak sends deliver the source's
    /// *current* bytes; weak-move sources become weakly moved out at
    /// dispose. Each datagram fills the oldest posted receive or joins
    /// the backlog. The sources enter the sender's region cache only
    /// through [`ModelWorld::disposed`], in completion order.
    pub fn run(&mut self) -> ModelEvents {
        let mut ev = ModelEvents::default();
        while let Some(s) = self.inflight.pop_front() {
            let bytes = match s.snapshot {
                Some(b) => b,
                None => self.entities[s.src].bytes[..s.len].to_vec(),
            };
            if matches!(
                s.requested,
                Semantics::WeakMove | Semantics::EmulatedWeakMove
            ) {
                let e = &mut self.entities[s.src];
                if e.state == EntityState::Visible {
                    e.state = EntityState::WeaklyOut;
                }
            }
            if let Some(p) = self.posted.pop_front() {
                let r = self.complete(p, s.seq, s.len, bytes);
                ev.recvs.push(r);
            } else {
                self.backlog.push_back(ModelPdu {
                    seq: s.seq,
                    len: s.len,
                    bytes,
                });
            }
            ev.sends.push(ModelSendDone {
                src: s.src,
                len: s.len,
                requested: s.requested,
                effective: s.effective,
            });
        }
        ev
    }

    /// Resolves a touch op: picks `target % entities`, computes the
    /// deterministic subrange, predicts success, and (if successful)
    /// applies the write to the model's bytes.
    pub fn touch(&mut self, target: usize, pattern: u8) -> TouchOutcome {
        if self.entities.is_empty() {
            return TouchOutcome::Skip;
        }
        let idx = target % self.entities.len();
        let e = &mut self.entities[idx];
        if e.retired || e.window == 0 {
            return TouchOutcome::Skip;
        }
        let w = e.window;
        let at = (pattern as usize * 131) % w;
        let n = (pattern as usize * 17) % (w - at) + 1;
        let expect_ok = e.state != EntityState::Hidden;
        if expect_ok {
            e.bytes[at..at + n].fill(pattern);
            // The harness reads the whole window back after a
            // successful touch, faulting the range fully resident.
            e.mapped = true;
        }
        TouchOutcome::Apply {
            idx,
            at,
            n,
            expect_ok,
        }
    }

    /// Resolves a release op over the delivered, unreleased regions:
    /// move loses the region outright, emulated move hides and caches
    /// it, the weak-move semantics cache it while the application can
    /// still read it.
    pub fn release(&mut self, target: usize) -> ReleaseOutcome {
        let ids: Vec<usize> = self
            .entities
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EntityKind::Region && e.releasable && !e.retired)
            .map(|(i, _)| i)
            .collect();
        if ids.is_empty() {
            return ReleaseOutcome::Skip;
        }
        let idx = ids[target % ids.len()];
        let np = self.recv_npages();
        let e = &mut self.entities[idx];
        e.releasable = false;
        match self.params.semantics {
            Semantics::Move => e.state = EntityState::Hidden,
            Semantics::EmulatedMove => {
                e.state = EntityState::Hidden;
                self.recache(idx, np);
            }
            Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                // A weakly-moved-out range is unrecoverable; it stays
                // readable only through mappings the application
                // already holds. If a pageout storm evicted them (and
                // no touch faulted them back), release hides it now.
                e.state = if e.mapped {
                    EntityState::WeaklyOut
                } else {
                    EntityState::Hidden
                };
                self.recache(idx, np);
            }
            // Application-allocated semantics never deliver regions,
            // so `ids` was empty above.
            _ => unreachable!("no releasable regions under {:?}", self.params.semantics),
        }
        ReleaseOutcome::Apply { idx }
    }

    /// Returns a released region to the receiver's cache, which keeps
    /// at most `max(1, inputs_hwm)` regions: the oldest beyond that
    /// are reclaimed, hiding them for good.
    fn recache(&mut self, idx: usize, npages: u64) {
        self.inputs_out = self.inputs_out.saturating_sub(1);
        self.cache.push_back((idx, npages));
        while self.cache.len() > self.inputs_hwm.max(1) {
            let (old, _) = self.cache.pop_front().expect("over bound");
            self.entities[old].state = EntityState::Hidden;
        }
    }

    /// A send from source `src` completed: under the move-family
    /// semantics its region enters the sender's cache, which keeps one
    /// region (the sender never asks for one back), so the previously
    /// cached source is reclaimed and hidden. Completion order is a
    /// timing matter the model does not simulate; the harness reports
    /// each send as the world completes it.
    pub fn disposed(&mut self, src: usize) {
        if !self.caches_regions() {
            return;
        }
        self.sent_cache.push_back(src);
        if self.sent_cache.len() > 1 {
            let old = self.sent_cache.pop_front().expect("over bound");
            self.entities[old].state = EntityState::Hidden;
        }
    }

    /// A pageout storm on host 0 (sender) or 1 (receiver). Only
    /// weakly-moved-out ranges change observably: their pages are
    /// evicted unrecoverably. Everything recoverable pages back in
    /// with identical bytes — but loses its resident mappings, which
    /// matters if the range is later weakly released. Skipped
    /// (returning false) while sends are in flight.
    pub fn pageout(&mut self, host: u8) -> bool {
        if !self.inflight.is_empty() {
            return false;
        }
        for e in &mut self.entities {
            if (host == 1) == e.on_receiver && !e.retired {
                if e.state == EntityState::WeaklyOut {
                    e.state = EntityState::Hidden;
                }
                e.mapped = false;
            }
        }
        true
    }

    /// Predicted observation for every tracked entity:
    /// `(entity, window, Some(bytes) if readable / None if hidden)`.
    pub fn probes(&self) -> Vec<(usize, usize, Option<&[u8]>)> {
        self.entities
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.retired && e.window > 0)
            .map(|(i, e)| {
                let exp = (e.state != EntityState::Hidden).then(|| &e.bytes[..e.window]);
                (i, e.window, exp)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(sem: Semantics) -> ModelParams {
        ModelParams {
            semantics: sem,
            arch: InputBuffering::Pooled,
            max_len: 5000,
            page_size: 4096,
            header_len: 16,
            emulated_copy_output_threshold: 1666,
            emulated_share_output_threshold: 280,
        }
    }

    #[test]
    fn strong_sends_snapshot_weak_sends_track_the_source() {
        for (sem, expect_snapshot) in [
            (Semantics::Copy, true),
            (Semantics::EmulatedCopy, true),
            (Semantics::Share, false),
        ] {
            let mut m = ModelWorld::new(params(sem), ModelBug::None);
            let src = m.add_source(vec![1; 2000]);
            m.send(src, 2000, None);
            m.touch(src, 7); // mutate the source while in flight
            let d = m.add_dest();
            m.post_recv(Some(d));
            let ev = m.run();
            assert_eq!(ev.recvs.len(), 1);
            let untouched = ev.recvs[0].bytes.iter().all(|&b| b == 1);
            assert_eq!(untouched, expect_snapshot, "{sem}");
        }
    }

    #[test]
    fn small_emulated_share_strengthens_to_copy() {
        let mut m = ModelWorld::new(params(Semantics::EmulatedShare), ModelBug::None);
        assert_eq!(m.effective_semantics(100), Semantics::Copy);
        assert_eq!(m.effective_semantics(2000), Semantics::EmulatedShare);
        let src = m.add_source(vec![9; 100]);
        m.send(src, 100, Some(0x55)); // scribble after output
        let d = m.add_dest();
        m.post_recv(Some(d));
        let ev = m.run();
        // Below the threshold the output degenerated to copy: strong.
        assert!(ev.recvs[0].bytes.iter().all(|&b| b == 9));
        assert_eq!(ev.sends[0].effective, Semantics::Copy);
    }

    #[test]
    fn backlogged_datagrams_complete_at_post_time_in_order() {
        let mut m = ModelWorld::new(params(Semantics::Copy), ModelBug::None);
        for i in 0..3u8 {
            let s = m.add_source(vec![i; 10]);
            m.send(s, 10, None);
        }
        let ev = m.run();
        assert!(ev.recvs.is_empty());
        assert_eq!(ev.sends.len(), 3);
        for i in 0..3u8 {
            let d = m.add_dest();
            match m.post_recv(Some(d)) {
                PostOutcome::Immediate(r) => {
                    assert_eq!(r.seq, u32::from(i));
                    assert_eq!(r.bytes, vec![i; 10]);
                }
                PostOutcome::Posted => panic!("backlog should complete immediately"),
            }
        }
    }

    #[test]
    fn move_hides_source_at_output_weak_move_only_after_pageout() {
        let mut m = ModelWorld::new(params(Semantics::Move), ModelBug::None);
        let s = m.add_source(vec![3; 64]);
        m.send(s, 64, None);
        assert_eq!(m.entities()[s].state, EntityState::Hidden);

        let mut m = ModelWorld::new(params(Semantics::WeakMove), ModelBug::None);
        let s = m.add_source(vec![3; 64]);
        m.send(s, 64, None);
        assert_eq!(m.entities()[s].state, EntityState::Visible);
        m.post_recv(None);
        m.run();
        assert_eq!(m.entities()[s].state, EntityState::WeaklyOut);
        assert!(m.pageout(0));
        assert_eq!(m.entities()[s].state, EntityState::Hidden);
        // The receiver-side delivered region is unaffected by the
        // sender-side storm.
        assert_eq!(m.entities().last().unwrap().state, EntityState::Visible);
    }

    #[test]
    fn release_then_post_recycles_the_cached_region() {
        let mut m = ModelWorld::new(params(Semantics::EmulatedMove), ModelBug::None);
        let s = m.add_source(vec![8; 100]);
        m.send(s, 100, None);
        m.post_recv(None);
        let ev = m.run();
        let region = match ev.recvs[0].dst {
            RecvDst::NewRegion(id) => id,
            _ => panic!("system semantics deliver regions"),
        };
        assert!(matches!(m.release(0), ReleaseOutcome::Apply { idx } if idx == region));
        assert_eq!(m.entities()[region].state, EntityState::Hidden);
        // The next receive consumes the cache and retires the entity.
        m.post_recv(None);
        assert!(m.entities()[region].retired);
        assert!(m.probes().iter().all(|&(i, _, _)| i != region));
    }

    #[test]
    fn the_sender_cache_keeps_only_the_latest_disposed_source() {
        let mut m = ModelWorld::new(params(Semantics::WeakMove), ModelBug::None);
        let (a, b) = (m.add_source(vec![1; 64]), m.add_source(vec![2; 64]));
        m.send(a, 64, None);
        m.send(b, 64, None);
        m.post_recv(None);
        m.post_recv(None);
        let ev = m.run();
        assert_eq!(m.entities()[a].state, EntityState::WeaklyOut);
        // Completion order decides which source the cache keeps.
        for s in ev.sends.iter().rev() {
            m.disposed(s.src);
        }
        assert_eq!(m.entities()[a].state, EntityState::WeaklyOut);
        assert_eq!(m.entities()[b].state, EntityState::Hidden);
    }

    #[test]
    fn touch_on_hidden_entities_predicts_failure() {
        let mut m = ModelWorld::new(params(Semantics::EmulatedMove), ModelBug::None);
        let s = m.add_source(vec![1; 50]);
        m.send(s, 50, None);
        match m.touch(s, 9) {
            TouchOutcome::Apply { expect_ok, .. } => assert!(!expect_ok),
            TouchOutcome::Skip => panic!("entity is targetable"),
        }
        // The failed write left the model bytes alone.
        assert!(m.entities()[s].bytes.iter().all(|&b| b == 1));
    }
}
