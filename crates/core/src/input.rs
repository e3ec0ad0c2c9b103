//! The input data-passing paths (paper Tables 3 and 4, Section 6.2.3).
//!
//! Input has three stages: **prepare** (the application invokes or
//! preposts the input operation), **ready** (the device needs
//! buffering, at PDU arrival), and **dispose** (input is complete and
//! control returns to the application). With early demultiplexing the
//! prepare/ready stages overlap sender-side and network latency, so
//! only dispose contributes to end-to-end latency; with pooled or
//! outboard buffering the ready-stage operations land on the critical
//! path too (paper Section 8).

use std::collections::VecDeque;

use genie_machine::{Op, SimTime};
use genie_mem::{FrameId, IoDir};
use genie_net::{checksum16, Adapter, DatagramHeader, RxCompletion, Vc, HEADER_LEN};
use genie_vm::{Access, IoDescriptor, IoVec, RegionHandle, RegionMark, SpaceId};

use crate::align::{plan_aligned_input, PageAction, PagePlan};
use crate::config::ChecksumMode;
use crate::error::GenieError;
use crate::semantics::Semantics;
use crate::world::{BackloggedPdu, HostId, World};

/// An application's input request (prepost).
#[derive(Clone, Copy, Debug)]
pub struct InputRequest {
    /// Requested data-passing semantics.
    pub semantics: Semantics,
    /// Virtual circuit to receive on.
    pub vc: Vc,
    /// Receiving process.
    pub space: SpaceId,
    /// Application buffer (application-allocated semantics only).
    pub buffer: Option<(u64, usize)>,
    /// Expected maximum payload (sizes system-allocated buffers).
    pub len_hint: usize,
}

impl InputRequest {
    /// An application-allocated input: the application names its
    /// buffer (the Unix-style API).
    pub fn app(semantics: Semantics, vc: Vc, space: SpaceId, vaddr: u64, len: usize) -> Self {
        InputRequest {
            semantics,
            vc,
            space,
            buffer: Some((vaddr, len)),
            len_hint: len,
        }
    }

    /// A system-allocated input: the system will return the location
    /// of the data (the V-style API).
    pub fn system(semantics: Semantics, vc: Vc, space: SpaceId, len_hint: usize) -> Self {
        InputRequest {
            semantics,
            vc,
            space,
            buffer: None,
            len_hint,
        }
    }
}

/// A finished input operation.
#[derive(Clone, Copy, Debug)]
pub struct RecvCompletion {
    /// Correlation token returned by [`World::input`].
    pub token: u64,
    /// Receiving host.
    pub host: HostId,
    /// Semantics used.
    pub semantics: Semantics,
    /// Receiving process.
    pub space: SpaceId,
    /// Where the data is: the application buffer (application-
    /// allocated) or the location the system returned (system-
    /// allocated).
    pub vaddr: u64,
    /// Data length in bytes.
    pub len: usize,
    /// End-to-end latency from output invocation at the sender.
    pub latency: SimTime,
    /// Receiver clock at completion.
    pub completed_at: SimTime,
    /// Datagram sequence number.
    pub seq: u32,
    /// Checksum verification result (true when checksumming is off).
    pub checksum_ok: bool,
    /// The region holding the data, for system-allocated semantics.
    pub region: Option<RegionHandle>,
}

/// A preposted input operation.
#[derive(Debug)]
pub(crate) struct PendingRecv {
    pub token: u64,
    pub semantics: Semantics,
    pub space: SpaceId,
    pub app: Option<(u64, usize)>,
    pub region: Option<RegionHandle>,
    pub desc: Option<IoDescriptor>,
}

/// Where an arrived PDU's bytes physically are before dispose.
#[derive(Debug)]
pub(crate) enum PlacedPayload {
    /// Early demux into the prepared descriptor — data already final.
    Direct,
    /// A system buffer allocated at ready time (copy/move semantics;
    /// payload at offset 0, header stripped).
    SysFrames(Vec<FrameId>),
    /// An aligned system buffer (emulated copy; payload at the
    /// application buffer's page offset).
    Aligned(Vec<FrameId>),
    /// Pooled overlay frames holding the raw PDU (header at offset 0,
    /// payload at [`HEADER_LEN`]).
    Overlay(Vec<(FrameId, usize)>),
    /// Outboard adapter memory holding the raw PDU.
    Outboard(usize),
}

impl World {
    /// Invokes (preposts) input with the requested semantics (Table 3
    /// prepare stage) and returns a token. If a matching PDU already
    /// arrived (unsolicited input), it completes immediately.
    pub fn input(&mut self, to: HostId, req: InputRequest) -> Result<u64, GenieError> {
        if req.semantics.allocation() == crate::semantics::Allocation::Application
            && req.buffer.is_none()
        {
            return Err(GenieError::BufferMismatch(req.semantics));
        }
        if req.semantics.allocation() == crate::semantics::Allocation::System
            && req.buffer.is_some()
        {
            return Err(GenieError::BufferMismatch(req.semantics));
        }
        let token = self.take_token();
        let prepare_start = self.host(to).clock;
        let pending = self.prepare_input(to, &req)?;
        debug_assert_eq!(pending.token, 0, "token assigned below");
        let mut pending = pending;
        pending.token = token;
        {
            let host = self.host_mut(to);
            if host.tracer.enabled() {
                let end = host.clock;
                host.tracer.span(
                    genie_trace::Track::Phase,
                    "input.prepare",
                    prepare_start,
                    end.saturating_sub(prepare_start),
                    req.len_hint,
                    0,
                );
            }
        }

        // Unsolicited data already waiting? Complete right away.
        let vc = u64::from(req.vc.0);
        if let Some(q) = self.backlog[to.idx()].get_mut(vc) {
            if let Some(pdu) = q.pop_front() {
                self.complete_backlogged(to, pending, pdu);
                return Ok(token);
            }
        }
        self.recvs[to.idx()]
            .get_or_insert_with(vc, VecDeque::new)
            .push_back(pending);
        Ok(token)
    }

    /// Table 3 prepare-stage operations.
    fn prepare_input(&mut self, to: HostId, req: &InputRequest) -> Result<PendingRecv, GenieError> {
        let page = self.host(to).page_size();
        let host = self.host_mut(to);
        let mk = |region, desc, app| PendingRecv {
            token: 0,
            semantics: req.semantics,
            space: req.space,
            app,
            region,
            desc,
        };
        match req.semantics {
            // Nothing happens until the device needs buffering.
            Semantics::Copy | Semantics::EmulatedCopy | Semantics::Move => {
                Ok(mk(None, None, req.buffer))
            }
            Semantics::Share | Semantics::EmulatedShare => {
                let (vaddr, len) = req.buffer.expect("checked by caller");
                let pages = host
                    .machine()
                    .pages_spanned((vaddr % page as u64) as usize, len);
                host.charge_latency(Op::Reference, len, pages);
                let (desc, _faults) =
                    host.vm
                        .reference_pages(req.space, vaddr, len, IoDir::Input)?;
                if req.semantics == Semantics::Share {
                    let region = host.vm.region_at(req.space, vaddr)?;
                    host.charge_latency(Op::Wire, len, pages);
                    host.vm.wire_region(region)?;
                    return Ok(mk(Some(region), Some(desc), req.buffer));
                }
                Ok(mk(None, Some(desc), req.buffer))
            }
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let len = req.len_hint.max(1);
                // With pooled buffering the PDU (header included) is
                // swapped wholesale into the region, and the data sits
                // at the header offset — size the region for the whole
                // PDU span.
                let span = if self.rx_mode == genie_net::InputBuffering::Pooled {
                    len + HEADER_LEN
                } else {
                    len
                };
                let host = self.host_mut(to);
                let npages = (span as u64).div_ceil(page as u64);
                let want_mark = if req.semantics == Semantics::EmulatedMove {
                    RegionMark::MovedOut
                } else {
                    RegionMark::WeaklyMovedOut
                };
                // Region caching: dequeue a cached region, else
                // allocate a fresh one.
                let region = match host
                    .vm
                    .space_mut(req.space)
                    .uncache_region(npages, want_mark)
                {
                    Some(start_vpn) => RegionHandle {
                        space: req.space,
                        start_vpn,
                    },
                    None => {
                        host.charge_latency(Op::RegionCreate, 0, 0);
                        host.vm
                            .alloc_region(req.space, npages, RegionMark::MovingIn)?
                    }
                };
                host.vm.mark_region(region, RegionMark::MovingIn)?;
                let pages = npages as usize;
                host.charge_latency(Op::Reference, len, pages);
                let (desc, _faults) = host.vm.reference_region_pages(
                    region,
                    0,
                    span.min(pages * page),
                    IoDir::Input,
                )?;
                if req.semantics == Semantics::WeakMove {
                    host.charge_latency(Op::Wire, len, pages);
                    host.vm.wire_region(region)?;
                }
                Ok(mk(Some(region), Some(desc), None))
            }
        }
    }

    /// Arrival event: adapter-level accounting and credit return, then
    /// delivery — direct in a fault-free world, gated by per-VC
    /// sequence order when a fault plan is active (so retransmissions
    /// slot back in order).
    pub(crate) fn on_arrive(
        &mut self,
        time: SimTime,
        to: HostId,
        vc: Vc,
        pdu: genie_net::WirePdu,
        sent_at: SimTime,
        token: u64,
    ) {
        let total = pdu.len();
        let cells = pdu.n_cells();
        {
            let host = self.host_mut(to);
            host.clock = host.clock.max(time);
            host.charge_latency(Op::OsFixedRecv, 0, 0);
            host.charge_overlapped(Op::CellRx, total, cells);
        }
        self.return_hop_credits(time, to, vc, cells);

        if !self.fault.plan.active() {
            self.deliver_pdu(to, vc, pdu.payload(), sent_at);
            self.recycle_pdu(pdu);
            return;
        }

        // Faulted world: hold the PDU until every lower sequence number
        // on this VC has been delivered, discarding stale arrivals.
        let header = DatagramHeader::decode(pdu.payload()).expect("header fits");
        let seq = header.seq;
        let next = self.fault.next_seq(to.idx(), vc);
        let already_held = self
            .fault
            .hold_queue(to.idx(), vc)
            .is_some_and(|q| q.contains(seq));
        if seq < next || already_held {
            self.fault.stats.duplicates_discarded += 1;
            if let Some(inf) = self.clear_inflight(token) {
                self.recycle_payload(inf.bytes);
            }
            self.recycle_pdu(pdu);
            return;
        }
        if seq > next {
            // Reorder hold-depth cap: an out-of-order arrival at a full
            // queue is spilled — discarded and re-requested from the
            // sender — so receiver-side reorder memory stays bounded no
            // matter how deep the reorder burst runs.
            let full = self
                .fault
                .hold_queue(to.idx(), vc)
                .is_some_and(|q| q.len() >= self.fault.hold_cap);
            if full {
                self.fault.stats.hold_spills += 1;
                self.recycle_pdu(pdu);
                self.schedule_retransmit(time, token);
                return;
            }
            self.fault.stats.held_for_reorder += 1;
            let tracer = &mut self.hosts[to.idx()].tracer;
            if tracer.enabled() {
                tracer.instant(
                    genie_trace::Track::Events,
                    "held_for_reorder",
                    time,
                    seq as usize,
                );
            }
        }
        // One table reach: the queue handle the PDU is inserted into
        // also reports the resulting depth (no second lookup).
        let q = self.fault.hold_queue_mut(to.idx(), vc);
        q.insert(
            seq,
            crate::faults::HeldPdu {
                token,
                pdu,
                sent_at,
                tries: 0,
            },
        );
        let depth = q.len();
        self.fault.hold_depth.record(depth as u64);
        self.drain_in_order(time, to, vc);
    }

    /// Ready-stage buffering and dispose for one intact PDU; returns
    /// false if the PDU had to be dropped for lack of buffering (the
    /// pending input, if any, is reposted for the next PDU).
    pub(crate) fn deliver_pdu(
        &mut self,
        to: HostId,
        vc: Vc,
        payload: &[u8],
        sent_at: SimTime,
    ) -> bool {
        let header = DatagramHeader::decode(payload).expect("header fits");
        // Flow identity for the sampling layer: the whole ready +
        // dispose pipeline of this PDU is kept or sampled as one unit.
        if self.hosts[to.idx()].tracer.enabled() {
            self.hosts[to.idx()].tracer.set_flow(vc.0, header.seq);
        }
        let pending = self.recvs[to.idx()]
            .get_mut(u64::from(vc.0))
            .and_then(VecDeque::pop_front);
        let ready_start = self.host(to).clock;

        let delivered = match pending {
            Some(p) => match self.place_for_pending(to, &p, payload) {
                Some(placed) => {
                    self.trace_ready_span(to, ready_start, payload.len());
                    self.dispose_input(to, p, placed, header, sent_at);
                    true
                }
                None => {
                    // Dropped for lack of buffering: repost the
                    // pending input for the next PDU.
                    self.recvs[to.idx()]
                        .get_mut(u64::from(vc.0))
                        .expect("entry")
                        .push_front(p);
                    false
                }
            },
            None => {
                // Unsolicited: buffer via the pool (or outboard) and
                // backlog.
                match self.place_unsolicited(to, vc, payload) {
                    Some(placed) => {
                        self.trace_ready_span(to, ready_start, payload.len());
                        self.backlog[to.idx()]
                            .get_or_insert_with(u64::from(vc.0), VecDeque::new)
                            .push_back(BackloggedPdu { placed, sent_at });
                        true
                    }
                    None => false,
                }
            }
        };
        self.hosts[to.idx()].tracer.clear_flow();
        delivered
    }

    /// Records the "input.ready" phase span covering the ready-stage
    /// buffering work just performed on `to`.
    fn trace_ready_span(&mut self, to: HostId, start: SimTime, bytes: usize) {
        let host = self.host_mut(to);
        if host.tracer.enabled() {
            let end = host.clock;
            host.tracer.span(
                genie_trace::Track::Phase,
                "input.ready",
                start,
                end.saturating_sub(start),
                bytes,
                0,
            );
        }
    }

    /// Ready-stage placement when a matching input is pending.
    ///
    /// Returns `None` if the PDU had to be dropped.
    fn place_for_pending(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        payload: &[u8],
    ) -> Option<PlacedPayload> {
        use genie_net::InputBuffering as Ib;
        let mode = self.rx_mode;
        match mode {
            Ib::EarlyDemux => self.place_early(to, p, &payload[HEADER_LEN..]),
            Ib::Pooled => self.place_pooled(to, payload),
            Ib::Outboard => {
                let host = self.host_mut(to);
                match host
                    .adapter
                    .receive(&mut host.vm.phys, Vc(0), payload)
                    .expect("outboard store")
                {
                    RxCompletion::Outboard { buf, .. } => Some(PlacedPayload::Outboard(buf)),
                    _ => unreachable!("outboard adapter"),
                }
            }
        }
    }

    /// Early-demultiplexed placement: data goes straight where it
    /// belongs (`data` excludes the header, which the demultiplexing
    /// adapter consumed).
    fn place_early(&mut self, to: HostId, p: &PendingRecv, data: &[u8]) -> Option<PlacedPayload> {
        let page = self.host(to).page_size();
        let host = self.host_mut(to);
        match p.semantics {
            Semantics::Share
            | Semantics::EmulatedShare
            | Semantics::EmulatedMove
            | Semantics::WeakMove
            | Semantics::EmulatedWeakMove => {
                let desc = p.desc.as_ref().expect("prepared descriptor");
                Adapter::dma_scatter(&mut host.vm.phys, &desc.vecs, data).expect("scatter");
                Some(PlacedPayload::Direct)
            }
            Semantics::Copy | Semantics::Move => {
                host.charge_latency(Op::SysBufAllocate, 0, 0);
                let npages = data.len().div_ceil(page).max(1);
                let frames = host.alloc_kernel_frames(npages).ok()?;
                let vecs: Vec<IoVec> = frames
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| IoVec {
                        frame: f,
                        offset: 0,
                        len: (data.len() - i * page).min(page),
                        object: None,
                    })
                    .collect();
                Adapter::dma_scatter(&mut host.vm.phys, &vecs, data).expect("scatter");
                Some(PlacedPayload::SysFrames(frames))
            }
            Semantics::EmulatedCopy => {
                // System input alignment: the aligned buffer starts at
                // the application buffer's page offset (Section 5.2).
                let (vaddr, _len) = p.app.expect("app buffer");
                let off = (vaddr % page as u64) as usize;
                host.charge_latency(Op::AlignedBufAllocate, 0, 0);
                let npages = host.machine().pages_spanned(off, data.len().max(1));
                let frames = host.alloc_kernel_frames(npages).ok()?;
                let vecs = aligned_vecs(&frames, page, off, data.len());
                Adapter::dma_scatter(&mut host.vm.phys, &vecs, data).expect("scatter");
                Some(PlacedPayload::Aligned(frames))
            }
        }
    }

    /// Pooled placement: the raw PDU (header included) lands in
    /// overlay pages.
    fn place_pooled(&mut self, to: HostId, payload: &[u8]) -> Option<PlacedPayload> {
        let host = self.host_mut(to);
        host.charge_latency(Op::OverlayAllocate, 0, 0);
        host.charge_latency(Op::Overlay, 0, 0);
        match host
            .adapter
            .receive(&mut host.vm.phys, Vc(0), payload)
            .expect("pooled receive")
        {
            RxCompletion::Overlay { frames, .. } => Some(PlacedPayload::Overlay(frames)),
            RxCompletion::Dropped => None,
            _ => unreachable!("pooled adapter"),
        }
    }

    /// Placement for unsolicited PDUs (no pending input).
    fn place_unsolicited(&mut self, to: HostId, vc: Vc, payload: &[u8]) -> Option<PlacedPayload> {
        use genie_net::InputBuffering as Ib;
        match self.rx_mode {
            Ib::EarlyDemux | Ib::Pooled => self.place_pooled(to, payload),
            Ib::Outboard => {
                let host = self.host_mut(to);
                match host
                    .adapter
                    .receive(&mut host.vm.phys, vc, payload)
                    .expect("outboard store")
                {
                    RxCompletion::Outboard { buf, .. } => Some(PlacedPayload::Outboard(buf)),
                    _ => unreachable!("outboard adapter"),
                }
            }
        }
    }

    /// Completes a backlogged PDU against a late input operation.
    fn complete_backlogged(&mut self, to: HostId, p: PendingRecv, pdu: BackloggedPdu) {
        // Reconstruct the header from the stored bytes.
        let mut header_bytes = [0u8; HEADER_LEN];
        match &pdu.placed {
            PlacedPayload::Overlay(frames) => {
                let (f, _) = frames[0];
                header_bytes.copy_from_slice(
                    self.host(to)
                        .vm
                        .phys
                        .read(f, 0, HEADER_LEN)
                        .expect("header in first overlay page"),
                );
            }
            PlacedPayload::Outboard(buf) => {
                header_bytes.copy_from_slice(
                    &self.host(to).adapter.outboard_data(*buf).expect("buf")[..HEADER_LEN],
                );
            }
            _ => unreachable!("backlog holds overlay or outboard payloads"),
        }
        let header = DatagramHeader::decode(&header_bytes).expect("header");
        self.dispose_input(to, p, pdu.placed, header, pdu.sent_at);
    }

    /// Copies an overlay-held PDU's data bytes (past the wire header)
    /// straight into the application buffer at `vaddr`: the fused
    /// equivalent of materializing the PDU into a pooled buffer and
    /// `write_app`ing the data slice, minus the intermediate buffer.
    fn overlay_copyout(
        &mut self,
        to: HostId,
        frames: &[(FrameId, usize)],
        space: genie_vm::SpaceId,
        vaddr: u64,
        data_len: usize,
    ) {
        let mut skip = HEADER_LEN;
        let mut remaining = data_len;
        let mut srcs = Vec::with_capacity(frames.len());
        for &(f, n) in frames {
            let o = skip.min(n);
            let take = (n - o).min(remaining);
            if take > 0 {
                srcs.push((f, o, take));
                remaining -= take;
            }
            skip -= o;
        }
        debug_assert_eq!(remaining, 0, "overlay frames shorter than the PDU");
        self.host_mut(to)
            .vm
            .copy_iovecs_into_app(space, vaddr, &srcs)
            .expect("copyout");
    }

    /// Dispose stage: Table 3 (early demux), Table 4 (pooled) or
    /// Section 6.2.3 (outboard) operations, then completion.
    pub(crate) fn dispose_input(
        &mut self,
        to: HostId,
        p: PendingRecv,
        placed: PlacedPayload,
        header: DatagramHeader,
        sent_at: SimTime,
    ) {
        let data_len = header.len as usize;
        let dispose_start = self.host(to).clock;
        let (vaddr, region) = match placed {
            PlacedPayload::Direct => self.dispose_direct(to, &p, data_len),
            PlacedPayload::SysFrames(frames) => self.dispose_sys_frames(to, &p, frames, data_len),
            PlacedPayload::Aligned(frames) => self.dispose_aligned(to, &p, frames, data_len),
            PlacedPayload::Overlay(frames) => self.dispose_overlay(to, &p, frames, data_len),
            PlacedPayload::Outboard(buf) => {
                let (vaddr, region) = self.dispose_outboard(to, &p, buf, data_len);
                self.host_mut(to).adapter.outboard_release(buf);
                (vaddr, region)
            }
        };

        // Checksum handling (Section 9 ablation).
        let checksum_ok = if header.has_checksum() {
            let separate = self.cfg.checksum == ChecksumMode::Separate;
            let host = self.host_mut(to);
            if separate {
                host.charge_latency(Op::ChecksumRead, data_len, 0);
            }
            let (got, _) = host
                .vm
                .read_app(p.space, vaddr, data_len)
                .expect("delivered data readable");
            checksum16(&got) == header.checksum
        } else {
            true
        };

        // Oracle: the delivered bytes and sequence number, checked
        // against the sender's promise and the gapless-ordering rule.
        if self.fault.oracle.is_some() {
            let (got, _) = self
                .host_mut(to)
                .vm
                .read_app(p.space, vaddr, data_len)
                .expect("delivered data readable");
            let fp = genie_fault::fnv64(&got);
            if let Some(o) = self.fault.oracle.as_mut() {
                o.on_delivery(to.idx(), u32::from(header.src_port), header.seq, fp);
            }
        }

        let completed_at = self.host(to).clock;
        {
            let host = self.host_mut(to);
            if host.tracer.enabled() {
                host.tracer.span(
                    genie_trace::Track::Phase,
                    "input.dispose",
                    dispose_start,
                    completed_at.saturating_sub(dispose_start),
                    data_len,
                    0,
                );
            }
        }
        // Per-VC latency rollup (tracing-gated so the untraced fast
        // path never touches the map).
        if self.tracing_enabled() {
            self.vc_latency
                .entry(u32::from(header.src_port))
                .or_default()
                .record(completed_at.saturating_sub(sent_at).0 / 1_000);
        }
        self.done_recvs.push(RecvCompletion {
            token: p.token,
            host: to,
            semantics: p.semantics,
            space: p.space,
            vaddr,
            len: data_len,
            latency: completed_at.saturating_sub(sent_at),
            completed_at,
            seq: header.seq,
            checksum_ok,
            region,
        });
    }

    /// Dispose for early-demultiplexed data already in place.
    fn dispose_direct(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        _data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let page = self.host(to).page_size();
        let host = self.host_mut(to);
        match p.semantics {
            Semantics::Share | Semantics::EmulatedShare => {
                let (vaddr, len) = p.app.expect("app buffer");
                let pages = host
                    .machine()
                    .pages_spanned((vaddr % page as u64) as usize, len);
                if p.semantics == Semantics::Share {
                    host.charge_latency(Op::Unwire, len, pages);
                    let region = p.region.expect("wired region");
                    let _ = host.vm.unwire_region(region);
                }
                host.charge_latency(Op::Unreference, len, pages);
                host.vm
                    .unreference(p.desc.as_ref().expect("descriptor"))
                    .expect("unreference");
                (vaddr, None)
            }
            Semantics::EmulatedMove => {
                let region = p.region.expect("prepared region");
                let desc = p.desc.as_ref().expect("descriptor");
                let npages = host.vm.region(region).map(|r| r.npages).unwrap_or(0);
                let len = desc.len();
                host.charge_latency(Op::RegionCheckUnrefReinstateMarkIn, len, npages as usize);
                let region = self.ensure_region_intact(to, region, desc, npages);
                let host = self.host_mut(to);
                host.vm.unreference(desc).expect("unreference");
                host.vm.reinstate_region(region).expect("reinstate");
                host.vm
                    .mark_region(region, RegionMark::MovedIn)
                    .expect("mark");
                (region.start_vpn * page as u64, Some(region))
            }
            Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let region = p.region.expect("prepared region");
                let desc = p.desc.as_ref().expect("descriptor");
                let npages = host.vm.region(region).map(|r| r.npages).unwrap_or(0);
                let len = desc.len();
                if p.semantics == Semantics::WeakMove {
                    host.charge_latency(Op::RegionCheck, 0, 0);
                    host.charge_latency(Op::Unwire, len, npages as usize);
                    host.charge_latency(Op::Unreference, len, npages as usize);
                    host.charge_latency(Op::RegionMarkIn, 0, 0);
                } else {
                    host.charge_latency(Op::RegionCheckUnrefMarkIn, len, npages as usize);
                }
                let region = self.ensure_region_intact(to, region, desc, npages);
                let host = self.host_mut(to);
                if p.semantics == Semantics::WeakMove {
                    let _ = host.vm.unwire_region(region);
                }
                host.vm.unreference(desc).expect("unreference");
                host.vm
                    .mark_region(region, RegionMark::MovedIn)
                    .expect("mark");
                (region.start_vpn * page as u64, Some(region))
            }
            other => unreachable!("direct placement for {other:?}"),
        }
    }

    /// Dispose for copy/move semantics data in a system buffer.
    fn dispose_sys_frames(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        frames: Vec<FrameId>,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let page = self.host(to).page_size();
        match p.semantics {
            Semantics::Copy => {
                let (vaddr, _len) = p.app.expect("app buffer");
                let host = self.host_mut(to);
                let pages = host
                    .machine()
                    .pages_spanned((vaddr % page as u64) as usize, data_len);
                host.charge_latency(Op::Copyout, data_len, pages);
                let srcs: Vec<(FrameId, usize, usize)> = frames
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| (f, 0, (data_len - i * page).min(page)))
                    .collect();
                host.vm
                    .copy_iovecs_into_app(p.space, vaddr, &srcs)
                    .expect("copyout");
                host.charge_latency(Op::SysBufDeallocate, 0, 0);
                host.free_kernel_frames(frames);
                (vaddr, None)
            }
            Semantics::Move => {
                let host = self.host_mut(to);
                // Create region; zero-complete system pages; fill; map;
                // mark moved in.
                let npages = frames.len() as u64;
                host.charge_latency(Op::RegionCreate, 0, 0);
                let region = host
                    .vm
                    .alloc_region(p.space, npages, RegionMark::MovingIn)
                    .expect("region");
                let tail = npages as usize * page - data_len;
                if tail > 0 {
                    host.charge_latency(Op::ZeroFill, tail, 1);
                    let last = *frames.last().expect("at least one frame");
                    let start = data_len - (npages as usize - 1) * page;
                    host.vm.phys.frame_mut(last).expect("frame").data_mut()[start..].fill(0);
                }
                host.charge_latency(Op::RegionFill, data_len, npages as usize);
                host.vm.fill_region(region, &frames).expect("fill");
                host.charge_latency(Op::RegionMap, data_len, npages as usize);
                host.vm.map_region(region).expect("map");
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                host.vm
                    .mark_region(region, RegionMark::MovedIn)
                    .expect("mark");
                (region.start_vpn * page as u64, Some(region))
            }
            other => unreachable!("sys-frame placement for {other:?}"),
        }
    }

    /// Dispose for emulated copy with an aligned system buffer:
    /// reverse copyout / page swapping (Section 5.2).
    fn dispose_aligned(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        frames: Vec<FrameId>,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let (vaddr, _len) = p.app.expect("app buffer");
        let page = self.host(to).page_size();
        let off = (vaddr % page as u64) as usize;
        let threshold = self.cfg.reverse_copyout_threshold_for(page);
        let plans = plan_aligned_input(page, off, data_len, threshold);
        self.execute_swap_plan(to, p.space, vaddr, &frames, &plans, 0);
        let host = self.host_mut(to);
        host.charge_latency(Op::AlignedBufDeallocate, 0, 0);
        // Frames that were swapped now belong to the application; the
        // rest go back to the kernel.
        let swapped: Vec<bool> = plans
            .iter()
            .map(|pl| pl.action != PageAction::CopyOut)
            .collect();
        let leftover = frames
            .iter()
            .enumerate()
            .filter(|(i, _)| !swapped.get(*i).copied().unwrap_or(false))
            .map(|(_, &f)| f);
        host.free_kernel_frames(leftover.collect::<Vec<_>>());
        (vaddr, None)
    }

    /// Executes a reverse-copyout plan: `sys_frames[i]` holds the data
    /// for plan page `i`, with `pdu_off` bytes of adapter header before
    /// the application data in the overlay case.
    ///
    /// Charges one aggregate `Copyout` for all copied bytes and one
    /// aggregate `Swap` for all swapped pages, matching how the paper
    /// accounts these operations per buffer.
    fn execute_swap_plan(
        &mut self,
        to: HostId,
        space: SpaceId,
        vaddr: u64,
        sys_frames: &[FrameId],
        plans: &[PagePlan],
        _pdu_off: usize,
    ) {
        let page = self.host(to).page_size();
        let first_vpn = vaddr / page as u64;
        let mut copied_bytes = 0usize;
        let mut swapped_pages = 0usize;
        let mut swapped_bytes = 0usize;
        for plan in plans {
            let vpn = first_vpn + plan.page as u64;
            let sys_frame = sys_frames[plan.page];
            match plan.action {
                PageAction::CopyOut => {
                    let host = self.host_mut(to);
                    let dst = vpn * page as u64 + plan.data_start as u64;
                    host.vm
                        .copy_iovecs_into_app(
                            space,
                            dst,
                            &[(sys_frame, plan.data_start, plan.data_len)],
                        )
                        .expect("copy out");
                    copied_bytes += plan.data_len;
                }
                PageAction::FillAndSwap {
                    fill_prefix,
                    fill_suffix,
                } => {
                    let host = self.host_mut(to);
                    // Fault the app page in (it must exist to donate
                    // its surrounding bytes), then fill + swap.
                    if host.vm.space(space).pte(vpn).is_none() {
                        host.vm
                            .handle_fault(space, vpn, Access::Write)
                            .expect("app page");
                    }
                    let app_frame = host.vm.space(space).pte(vpn).expect("mapped").frame;
                    if fill_prefix > 0 {
                        host.vm
                            .phys
                            .copy(app_frame, 0, sys_frame, 0, fill_prefix)
                            .expect("fill prefix");
                    }
                    if fill_suffix > 0 {
                        let at = plan.data_start + plan.data_len;
                        host.vm
                            .phys
                            .copy(app_frame, at, sys_frame, at, fill_suffix)
                            .expect("fill suffix");
                    }
                    host.vm.swap_page(space, vpn, sys_frame).expect("swap");
                    copied_bytes += fill_prefix + fill_suffix;
                    swapped_pages += 1;
                    swapped_bytes += plan.data_len;
                }
                PageAction::SwapWhole => {
                    let host = self.host_mut(to);
                    // Ensure the page exists in the object so swap has
                    // something to displace.
                    if host.vm.space(space).pte(vpn).is_none() {
                        host.vm
                            .handle_fault(space, vpn, Access::Write)
                            .expect("app page");
                    }
                    host.vm.swap_page(space, vpn, sys_frame).expect("swap");
                    swapped_pages += 1;
                    swapped_bytes += plan.data_len;
                }
            }
        }
        let host = self.host_mut(to);
        if copied_bytes > 0 {
            host.charge_latency(Op::Copyout, copied_bytes, plans.len());
        }
        if swapped_pages > 0 {
            host.charge_latency(Op::Swap, swapped_bytes, swapped_pages);
        }
    }

    /// Dispose for pooled overlay placements (Table 4).
    fn dispose_overlay(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        frames: Vec<(FrameId, usize)>,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let page = self.host(to).page_size();
        let total = data_len + HEADER_LEN;
        let overlay_frames: Vec<FrameId> = frames.iter().map(|&(f, _)| f).collect();
        let overlay_pages = overlay_frames.len();

        let result = match p.semantics {
            Semantics::Copy => {
                let (vaddr, _len) = p.app.expect("app buffer");
                let host = self.host_mut(to);
                let pages = host
                    .machine()
                    .pages_spanned((vaddr % page as u64) as usize, data_len);
                host.charge_latency(Op::Copyout, data_len, pages);
                self.overlay_copyout(to, &frames, p.space, vaddr, data_len);
                self.return_overlay_frames(to, overlay_frames, total, overlay_pages);
                (vaddr, None)
            }
            Semantics::EmulatedCopy | Semantics::Share | Semantics::EmulatedShare => {
                let (vaddr, _len) = p.app.expect("app buffer");
                let host = self.host_mut(to);
                let pages = host
                    .machine()
                    .pages_spanned((vaddr % page as u64) as usize, data_len);
                // Share-family first releases its prepared descriptor.
                if p.semantics == Semantics::Share {
                    host.charge_latency(Op::Unwire, data_len, pages);
                    let _ = host.vm.unwire_region(p.region.expect("region"));
                }
                if p.semantics != Semantics::EmulatedCopy {
                    host.charge_latency(Op::Unreference, data_len, pages);
                    host.vm
                        .unreference(p.desc.as_ref().expect("descriptor"))
                        .expect("unreference");
                }
                // Aligned if the app buffer sits at the PDU data offset
                // within its page (application input alignment).
                let aligned = (vaddr % page as u64) as usize == HEADER_LEN % page;
                if aligned {
                    let threshold = self.cfg.reverse_copyout_threshold_for(page);
                    let plans = plan_aligned_input(page, HEADER_LEN, data_len, threshold);
                    self.execute_swap_plan(
                        to,
                        p.space,
                        vaddr - HEADER_LEN as u64,
                        &overlay_frames,
                        &plans,
                        HEADER_LEN,
                    );
                    let swapped: Vec<bool> = plans
                        .iter()
                        .map(|pl| pl.action != PageAction::CopyOut)
                        .collect();
                    let leftover: Vec<FrameId> = overlay_frames
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !swapped.get(*i).copied().unwrap_or(false))
                        .map(|(_, &f)| f)
                        .collect();
                    self.return_overlay_frames(to, leftover, total, overlay_pages);
                } else {
                    self.host_mut(to)
                        .charge_latency(Op::Copyout, data_len, pages);
                    self.overlay_copyout(to, &frames, p.space, vaddr, data_len);
                    self.return_overlay_frames(to, overlay_frames, total, overlay_pages);
                }
                (vaddr, None)
            }
            Semantics::Move => {
                let host = self.host_mut(to);
                host.charge_latency(Op::RegionCreate, 0, 0);
                let npages = overlay_pages as u64;
                let region = host
                    .vm
                    .alloc_region(p.space, npages, RegionMark::MovingIn)
                    .expect("region");
                // Zero-complete: the header prefix and the tail are not
                // application data and must not leak.
                let zero_bytes = npages as usize * page - data_len;
                if zero_bytes > 0 {
                    host.charge_latency(Op::ZeroFill, zero_bytes, overlay_pages);
                    let first = overlay_frames[0];
                    host.vm.phys.frame_mut(first).expect("frame").data_mut()[..HEADER_LEN].fill(0);
                    let last = *overlay_frames.last().expect("frame");
                    let valid_in_last = total - (overlay_pages - 1) * page;
                    host.vm.phys.frame_mut(last).expect("frame").data_mut()[valid_in_last..]
                        .fill(0);
                }
                host.charge_latency(Op::RegionFillOverlayRefill, data_len, overlay_pages);
                host.vm.fill_region(region, &overlay_frames).expect("fill");
                host.charge_latency(Op::RegionMap, data_len, overlay_pages);
                host.vm.map_region(region).expect("map");
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                host.vm
                    .mark_region(region, RegionMark::MovedIn)
                    .expect("mark");
                // The overlay frames became region pages: refill the
                // pool with fresh frames.
                self.host_mut(to).return_overlay([]);
                (
                    region.start_vpn * page as u64 + HEADER_LEN as u64,
                    Some(region),
                )
            }
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let region = p.region.expect("prepared region");
                let desc = p.desc.as_ref().expect("descriptor");
                let host = self.host_mut(to);
                let npages = host.vm.region(region).map(|r| r.npages).unwrap_or(0);
                host.charge_latency(Op::RegionCheck, 0, 0);
                if p.semantics == Semantics::WeakMove {
                    host.charge_latency(Op::Unwire, data_len, npages as usize);
                }
                host.charge_latency(Op::Unreference, data_len, npages as usize);
                let region = self.ensure_region_intact(to, region, desc, npages);
                let host = self.host_mut(to);
                if p.semantics == Semantics::WeakMove {
                    let _ = host.vm.unwire_region(region);
                }
                host.vm.unreference(desc).expect("unreference");
                // Swap overlay pages into the region.
                let usable = overlay_pages.min(npages as usize);
                host.charge_latency(Op::Swap, total.min(usable * page), usable);
                for (i, &f) in overlay_frames.iter().take(usable).enumerate() {
                    host.vm
                        .swap_page(region.space, region.start_vpn + i as u64, f)
                        .expect("swap overlay into region");
                }
                if p.semantics == Semantics::EmulatedMove {
                    host.vm.reinstate_region(region).expect("reinstate");
                }
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                host.vm
                    .mark_region(region, RegionMark::MovedIn)
                    .expect("mark");
                self.host_mut(to).return_overlay(
                    overlay_frames
                        .iter()
                        .skip(usable)
                        .copied()
                        .collect::<Vec<_>>(),
                );
                (
                    region.start_vpn * page as u64 + HEADER_LEN as u64,
                    Some(region),
                )
            }
        };
        let host = self.host_mut(to);
        host.charge_latency(Op::OverlayDeallocate, total, overlay_pages);
        result
    }

    /// Returns overlay frames to the pool (charging is the caller's
    /// business — `OverlayDeallocate` is charged once per dispose).
    fn return_overlay_frames(
        &mut self,
        to: HostId,
        frames: Vec<FrameId>,
        _total: usize,
        _pages: usize,
    ) {
        self.host_mut(to).return_overlay(frames);
    }

    /// Dispose for outboard placements (Section 6.2.3).
    fn dispose_outboard(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        buf: usize,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let total = data_len + HEADER_LEN;
        // Copy the stored wire PDU into a pooled buffer so the borrow
        // of the adapter's outboard slot ends before the host mutates.
        let mut pdu = self.take_payload_buf();
        pdu.extend_from_slice(
            self.host(to)
                .adapter
                .outboard_data(buf)
                .expect("outboard buffer"),
        );
        // Store-and-forward: the host-side DMA happens now, adding its
        // full transfer time to the critical path.
        let dma_time = self.dma.transfer_time(total);

        if p.semantics == Semantics::EmulatedCopy {
            // Section 6.2.3: reference the application pages, DMA from
            // the outboard buffer straight into them, unreference.
            let (vaddr, _len) = p.app.expect("app buffer");
            let page = self.host(to).page_size();
            let host = self.host_mut(to);
            let pages = host
                .machine()
                .pages_spanned((vaddr % page as u64) as usize, data_len);
            host.charge_latency(Op::Reference, data_len, pages);
            let (desc, _faults) = host
                .vm
                .reference_pages(p.space, vaddr, data_len, IoDir::Input)
                .expect("reference app buffer");
            host.clock += dma_time;
            Adapter::dma_scatter(
                &mut host.vm.phys,
                &desc.vecs,
                &pdu[HEADER_LEN..HEADER_LEN + data_len],
            )
            .expect("outboard dma");
            host.charge_latency(Op::Unreference, data_len, pages);
            host.vm.unreference(&desc).expect("unreference");
            self.recycle_payload(pdu);
            return (vaddr, None);
        }

        // All other semantics: run the early-demux placement against
        // the outboard data, after the store-and-forward DMA.
        self.host_mut(to).clock += dma_time;
        let placed = self
            .place_early(to, p, &pdu[HEADER_LEN..HEADER_LEN + data_len])
            .expect("early placement from outboard");
        self.recycle_payload(pdu);
        match placed {
            PlacedPayload::Direct => self.dispose_direct(to, p, data_len),
            PlacedPayload::SysFrames(frames) => self.dispose_sys_frames(to, p, frames, data_len),
            PlacedPayload::Aligned(frames) => self.dispose_aligned(to, p, frames, data_len),
            _ => unreachable!("early placement"),
        }
    }

    /// Releases a system-allocated input buffer back to the system —
    /// the system-allocated API's explicit deallocation call. For the
    /// cached semantics this re-enters the region cache, so subsequent
    /// inputs reuse it (steady state); for move semantics the region
    /// is removed outright.
    pub fn release_input_region(
        &mut self,
        host: HostId,
        region: RegionHandle,
        semantics: Semantics,
    ) -> Result<(), GenieError> {
        let h = self.host_mut(host);
        match semantics {
            Semantics::Move => {
                h.vm.remove_region(region)?;
                Ok(())
            }
            Semantics::EmulatedMove => {
                h.vm.invalidate_region(region)?;
                h.vm.mark_region(region, RegionMark::MovedOut)?;
                h.vm.space_mut(region.space)
                    .cache_region(region.start_vpn, RegionMark::MovedOut);
                Ok(())
            }
            Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                h.vm.mark_region(region, RegionMark::WeaklyMovedOut)?;
                h.vm.space_mut(region.space)
                    .cache_region(region.start_vpn, RegionMark::WeaklyMovedOut);
                Ok(())
            }
            other => Err(GenieError::BufferMismatch(other)),
        }
    }

    /// Confirms a cached region survived the input; if the application
    /// removed it, maps the (revived) pages to a new region so the
    /// location returned to the application is valid (Section 6.2.1).
    fn ensure_region_intact(
        &mut self,
        to: HostId,
        region: RegionHandle,
        desc: &IoDescriptor,
        npages: u64,
    ) -> RegionHandle {
        let host = self.host_mut(to);
        if npages > 0 && host.vm.check_region(region, npages) {
            return region;
        }
        // Region gone: revive the (zombie) frames into a new region.
        let frames: Vec<FrameId> = desc.vecs.iter().map(|v| v.frame).collect();
        let n = frames.len() as u64;
        let new = host
            .vm
            .alloc_region(region.space, n.max(1), RegionMark::MovingIn)
            .expect("replacement region");
        let obj = host.vm.region(new).expect("new region").object;
        for &f in &frames {
            host.vm
                .phys
                .adopt(f, Some(u64::from(obj.0)))
                .expect("adopt");
        }
        host.vm.fill_region(new, &frames).expect("fill");
        host.vm.map_region(new).expect("map");
        new
    }
}

/// Builds the aligned-buffer scatter list: payload starts `off` bytes
/// into the first frame.
fn aligned_vecs(frames: &[FrameId], page: usize, off: usize, len: usize) -> Vec<IoVec> {
    let mut vecs = Vec::with_capacity(frames.len());
    let mut remaining = len;
    let mut start = off;
    for &f in frames {
        if remaining == 0 {
            break;
        }
        let n = remaining.min(page - start);
        vecs.push(IoVec {
            frame: f,
            offset: start,
            len: n,
            object: None,
        });
        remaining -= n;
        start = 0;
    }
    vecs
}
