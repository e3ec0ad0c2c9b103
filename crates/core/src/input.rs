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
use genie_mem::{FrameId, IoDir, PhysMem};
use genie_net::{checksum16, Adapter, DatagramHeader, Vc, WirePdu, HEADER_LEN};
use genie_vm::{Access, IoDescriptor, RegionHandle, RegionMark, SpaceId};

use crate::align::{plan_aligned_input, plan_totals, AlignedPlan, PageAction};
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
    /// payload at [`HEADER_LEN`]); every frame is full but the last.
    Overlay(Vec<FrameId>),
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
        self.host_mut(to)
            .phase_span("input.prepare", prepare_start, req.len_hint);

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
                let wire = req.semantics == Semantics::Share;
                let (desc, region) =
                    host.reference_app(req.space, vaddr, len, IoDir::Input, wire)?;
                Ok(mk(region, Some(desc), req.buffer))
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
                // Region caching: dequeue a cached region, else
                // allocate a fresh one.
                let region = match host
                    .vm
                    .space_mut(req.space)
                    .uncache_region(npages, req.semantics.cached_mark())
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
                let desc = host.vm.reference_region_pages(
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
            if let Err(pdu) = self.deliver_pdu(to, vc, pdu, sent_at) {
                self.recycle_pdu(pdu);
            }
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

    /// Ready-stage buffering and dispose for one intact PDU, which is
    /// consumed: its storage is recycled once the bytes are placed, or
    /// kept whole by an outboard adapter. A PDU that had to be dropped
    /// for lack of buffering comes back as the error (the pending
    /// input, if any, is reposted for the next PDU).
    pub(crate) fn deliver_pdu(
        &mut self,
        to: HostId,
        vc: Vc,
        pdu: WirePdu,
        sent_at: SimTime,
    ) -> Result<(), WirePdu> {
        let header = DatagramHeader::decode(pdu.payload()).expect("header fits");
        let total = pdu.len();
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
            Some(p) => match self.place_for_pending(to, &p, pdu) {
                Ok(placed) => {
                    self.host_mut(to)
                        .phase_span("input.ready", ready_start, total);
                    self.dispose_input(to, p, placed, header, sent_at);
                    Ok(())
                }
                Err(pdu) => {
                    // Dropped for lack of buffering: repost the
                    // pending input for the next PDU.
                    self.recvs[to.idx()]
                        .get_mut(u64::from(vc.0))
                        .expect("entry")
                        .push_front(p);
                    Err(pdu)
                }
            },
            None => {
                // Unsolicited: buffer via the pool (or outboard) and
                // backlog.
                self.place_unsolicited(to, pdu).map(|placed| {
                    self.host_mut(to)
                        .phase_span("input.ready", ready_start, total);
                    self.backlog[to.idx()]
                        .get_or_insert_with(u64::from(vc.0), VecDeque::new)
                        .push_back(BackloggedPdu { placed, sent_at });
                })
            }
        };
        self.hosts[to.idx()].tracer.clear_flow();
        delivered
    }

    /// Ready-stage placement when a matching input is pending.
    ///
    /// Gives the PDU back if it had to be dropped.
    fn place_for_pending(
        &mut self,
        to: HostId,
        p: &PendingRecv,
        pdu: WirePdu,
    ) -> Result<PlacedPayload, WirePdu> {
        use genie_net::InputBuffering as Ib;
        let placed = match self.rx_mode {
            Ib::EarlyDemux => self.place_early(to, p, &pdu.payload()[HEADER_LEN..]),
            Ib::Pooled => self.place_pooled(to, pdu.payload()),
            Ib::Outboard => return Ok(self.place_outboard(to, pdu)),
        };
        self.settle_pdu(placed, pdu)
    }

    /// Finishes a host-memory placement: the PDU's bytes now live in
    /// host frames, so its storage is recycled; a dropped PDU is handed
    /// back instead.
    fn settle_pdu(
        &mut self,
        placed: Option<PlacedPayload>,
        pdu: WirePdu,
    ) -> Result<PlacedPayload, WirePdu> {
        match placed {
            Some(placed) => {
                self.recycle_pdu(pdu);
                Ok(placed)
            }
            None => Err(pdu),
        }
    }

    /// Outboard placement: the adapter keeps the arriving wire image.
    fn place_outboard(&mut self, to: HostId, pdu: WirePdu) -> PlacedPayload {
        PlacedPayload::Outboard(self.host_mut(to).adapter.store_outboard(pdu))
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
                scatter_from(&mut host.vm.phys, &frames, 0, data);
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
                scatter_from(&mut host.vm.phys, &frames, off, data);
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
        let mut frames = host.take_frame_list();
        let delivered = host
            .adapter
            .receive(&mut host.vm.phys, payload, &mut frames)
            .expect("pooled receive");
        if delivered {
            Some(PlacedPayload::Overlay(frames))
        } else {
            host.recycle_frame_list(frames);
            None
        }
    }

    /// Placement for unsolicited PDUs (no pending input); gives the
    /// PDU back if it had to be dropped.
    fn place_unsolicited(&mut self, to: HostId, pdu: WirePdu) -> Result<PlacedPayload, WirePdu> {
        use genie_net::InputBuffering as Ib;
        match self.rx_mode {
            Ib::EarlyDemux | Ib::Pooled => {
                let placed = self.place_pooled(to, pdu.payload());
                self.settle_pdu(placed, pdu)
            }
            Ib::Outboard => Ok(self.place_outboard(to, pdu)),
        }
    }

    /// Completes a backlogged PDU against a late input operation.
    fn complete_backlogged(&mut self, to: HostId, p: PendingRecv, pdu: BackloggedPdu) {
        // Reconstruct the header from the stored bytes.
        let mut header_bytes = [0u8; HEADER_LEN];
        match &pdu.placed {
            PlacedPayload::Overlay(frames) => {
                header_bytes.copy_from_slice(
                    self.host(to)
                        .vm
                        .phys
                        .read(frames[0], 0, HEADER_LEN)
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
        frames: &[FrameId],
        space: genie_vm::SpaceId,
        vaddr: u64,
        data_len: usize,
    ) {
        let page = self.host(to).page_size();
        // Overlay page `i` holds PDU bytes `[i * page, (i + 1) * page)`;
        // copy out its share of `[HEADER_LEN, HEADER_LEN + data_len)`.
        let data_end = HEADER_LEN + data_len;
        let srcs = frames.iter().enumerate().filter_map(move |(i, &f)| {
            let start = i * page;
            let lo = start.max(HEADER_LEN);
            let hi = (start + page).min(data_end);
            (hi > lo).then_some((f, lo - start, hi - lo))
        });
        debug_assert_eq!(
            srcs.clone().map(|(_, _, n)| n).sum::<usize>(),
            data_len,
            "overlay frames shorter than the PDU"
        );
        self.host_mut(to)
            .vm
            .copy_iovecs_into_app(space, vaddr, srcs)
            .expect("copyout");
    }

    /// Dispose stage: Table 3 (early demux), Table 4 (pooled) or
    /// Section 6.2.3 (outboard) operations, then completion.
    pub(crate) fn dispose_input(
        &mut self,
        to: HostId,
        mut p: PendingRecv,
        placed: PlacedPayload,
        header: DatagramHeader,
        sent_at: SimTime,
    ) {
        let data_len = header.len as usize;
        let dispose_start = self.host(to).clock;
        let (vaddr, region) = match placed {
            PlacedPayload::Direct => self.dispose_direct(to, &mut p),
            PlacedPayload::SysFrames(frames) => self.dispose_sys_frames(to, &p, frames, data_len),
            PlacedPayload::Aligned(frames) => self.dispose_aligned(to, &p, frames, data_len),
            PlacedPayload::Overlay(frames) => self.dispose_overlay(to, &mut p, frames, data_len),
            PlacedPayload::Outboard(buf) => self.dispose_outboard(to, &mut p, buf, data_len),
        };

        // Checksum handling (Section 9 ablation).
        let checksum_ok = if header.has_checksum() {
            let separate = self.cfg.checksum == ChecksumMode::Separate;
            let host = self.host_mut(to);
            if separate {
                host.charge_latency(Op::ChecksumRead, data_len, 0);
            }
            let got = host
                .vm
                .read_app(p.space, vaddr, data_len)
                .expect("delivered data readable");
            checksum16(&got) == header.checksum
        } else {
            true
        };

        // Oracle: the delivered bytes and sequence number, checked
        // against the sender's promise and the gapless-ordering rule.
        // It reads through `peek`, which faults nothing in: a checked
        // run must take, and charge, the same faults as an unchecked one.
        if self.fault.oracle.is_some() {
            let got = self
                .host(to)
                .vm
                .peek(p.space, vaddr, data_len)
                .expect("delivered data readable");
            let fp = genie_fault::fnv64(&got);
            if let Some(o) = self.fault.oracle.as_mut() {
                o.on_delivery(to.idx(), u32::from(header.src_port), header.seq, fp);
            }
        }

        self.host_mut(to)
            .phase_span("input.dispose", dispose_start, data_len);
        let completed_at = self.host(to).clock;
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
    fn dispose_direct(&mut self, to: HostId, p: &mut PendingRecv) -> (u64, Option<RegionHandle>) {
        let page = self.host(to).page_size();
        let desc = p.desc.take().expect("descriptor");
        let host = self.host_mut(to);
        match p.semantics {
            Semantics::Share | Semantics::EmulatedShare => {
                let (vaddr, len) = p.app.expect("app buffer");
                let pages = host.pages_at(vaddr, len);
                host.release_app(desc, p.region, len, pages);
                (vaddr, None)
            }
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let region = p.region.expect("prepared region");
                let npages = host.vm.region(region).map_or(0, |r| r.npages);
                let (len, pages) = (desc.len(), npages as usize);
                match p.semantics {
                    Semantics::EmulatedMove => {
                        host.charge_latency(Op::RegionCheckUnrefReinstateMarkIn, len, pages);
                    }
                    Semantics::WeakMove => {
                        host.charge_latency(Op::RegionCheck, 0, 0);
                        host.charge_latency(Op::Unwire, len, pages);
                        host.charge_latency(Op::Unreference, len, pages);
                        host.charge_latency(Op::RegionMarkIn, 0, 0);
                    }
                    _ => {
                        host.charge_latency(Op::RegionCheckUnrefMarkIn, len, pages);
                    }
                }
                let region = self.move_into_cached(to, p.semantics, region, desc, npages, &[]);
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
        let host = self.host_mut(to);
        match p.semantics {
            Semantics::Copy => {
                let (vaddr, _len) = p.app.expect("app buffer");
                let pages = host.pages_at(vaddr, data_len);
                host.charge_latency(Op::Copyout, data_len, pages);
                let srcs = frames
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| (f, 0, (data_len - i * page).min(page)));
                host.vm
                    .copy_iovecs_into_app(p.space, vaddr, srcs)
                    .expect("copyout");
                host.charge_latency(Op::SysBufDeallocate, 0, 0);
                host.free_kernel_frames(frames);
                (vaddr, None)
            }
            Semantics::Move => {
                // Create region; zero-complete system pages; fill; map;
                // mark moved in.
                let npages = frames.len();
                host.charge_latency(Op::RegionCreate, 0, 0);
                let tail = npages * page - data_len;
                if tail > 0 {
                    host.charge_latency(Op::ZeroFill, tail, 1);
                }
                host.charge_latency(Op::RegionFill, data_len, npages);
                host.charge_latency(Op::RegionMap, data_len, npages);
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                let region = self.move_into_fresh(to, p.space, &frames, 0, data_len);
                // The frames are the region's pages now; only the list
                // is left over.
                self.host_mut(to).recycle_frame_list(frames);
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
        let plan = plan_aligned_input(page, off, data_len, threshold);
        self.execute_swap_plan(to, p.space, vaddr, &frames, plan.clone());
        let host = self.host_mut(to);
        host.charge_latency(Op::AlignedBufDeallocate, 0, 0);
        // Frames that were swapped now belong to the application; the
        // rest go back to the kernel.
        for (&f, swapped) in frames.iter().zip(swapped_pages(plan)) {
            if !swapped {
                let _ = host.vm.phys.dealloc(f);
            }
        }
        host.recycle_frame_list(frames);
        (vaddr, None)
    }

    /// Executes a reverse-copyout plan: `sys_frames[i]` holds the data
    /// for plan page `i`.
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
        plan: AlignedPlan,
    ) {
        let page = self.host(to).page_size();
        let first_vpn = vaddr / page as u64;
        let host = self.host_mut(to);
        for pl in plan.clone() {
            let vpn = first_vpn + pl.page as u64;
            let sys_frame = sys_frames[pl.page];
            if pl.action == PageAction::CopyOut {
                let dst = vpn * page as u64 + pl.data_start as u64;
                host.vm
                    .copy_iovecs_into_app(space, dst, [(sys_frame, pl.data_start, pl.data_len)])
                    .expect("copy out");
                continue;
            }
            // Both swaps need the app page in its object (to donate the
            // bytes around the data, and for the swap to displace). Not
            // the page walk, which would TCOW-copy a read-only page first.
            if host.vm.space(space).pte(vpn).is_none() {
                host.vm
                    .handle_fault(space, vpn, Access::Write)
                    .expect("app page");
            }
            if let PageAction::FillAndSwap {
                fill_prefix,
                fill_suffix,
            } = pl.action
            {
                let app_frame = host.vm.space(space).pte(vpn).expect("mapped").frame;
                if fill_prefix > 0 {
                    host.vm
                        .phys
                        .copy(app_frame, 0, sys_frame, 0, fill_prefix)
                        .expect("fill prefix");
                }
                if fill_suffix > 0 {
                    let at = pl.data_start + pl.data_len;
                    host.vm
                        .phys
                        .copy(app_frame, at, sys_frame, at, fill_suffix)
                        .expect("fill suffix");
                }
            }
            host.vm.swap_page(space, vpn, sys_frame).expect("swap");
        }
        let pages = plan.clone().count();
        let (copied_bytes, swapped_pages, swapped_bytes) = plan_totals(plan);
        if copied_bytes > 0 {
            host.charge_latency(Op::Copyout, copied_bytes, pages);
        }
        if swapped_pages > 0 {
            host.charge_latency(Op::Swap, swapped_bytes, swapped_pages);
        }
    }

    /// Dispose for pooled overlay placements (Table 4).
    fn dispose_overlay(
        &mut self,
        to: HostId,
        p: &mut PendingRecv,
        frames: Vec<FrameId>,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let page = self.host(to).page_size();
        let total = data_len + HEADER_LEN;
        let overlay_pages = frames.len();

        let result = match p.semantics {
            Semantics::Copy
            | Semantics::EmulatedCopy
            | Semantics::Share
            | Semantics::EmulatedShare => {
                let (vaddr, _len) = p.app.expect("app buffer");
                let host = self.host_mut(to);
                let pages = host.pages_at(vaddr, data_len);
                // Share-family first releases its prepared descriptor.
                if let Some(desc) = p.desc.take() {
                    host.release_app(desc, p.region, data_len, pages);
                }
                // Aligned if the app buffer sits at the PDU data offset
                // within its page (application input alignment); copy
                // always copies out.
                let aligned = p.semantics != Semantics::Copy
                    && (vaddr % page as u64) as usize == HEADER_LEN % page;
                if aligned {
                    let threshold = self.cfg.reverse_copyout_threshold_for(page);
                    let plan = plan_aligned_input(page, HEADER_LEN, data_len, threshold);
                    self.execute_swap_plan(
                        to,
                        p.space,
                        vaddr - HEADER_LEN as u64,
                        &frames,
                        plan.clone(),
                    );
                    let leftover = frames.iter().zip(swapped_pages(plan));
                    self.host_mut(to)
                        .return_overlay(leftover.filter(|&(_, s)| !s).map(|(&f, _)| f));
                } else {
                    self.host_mut(to)
                        .charge_latency(Op::Copyout, data_len, pages);
                    self.overlay_copyout(to, &frames, p.space, vaddr, data_len);
                    self.host_mut(to).return_overlay(frames.iter().copied());
                }
                (vaddr, None)
            }
            Semantics::Move => {
                // Create region; zero-complete the header prefix and
                // the tail, which are not application data and must not
                // leak; fill; map; mark moved in.
                let host = self.host_mut(to);
                host.charge_latency(Op::RegionCreate, 0, 0);
                let zero_bytes = overlay_pages * page - data_len;
                host.charge_latency(Op::ZeroFill, zero_bytes, overlay_pages);
                host.charge_latency(Op::RegionFillOverlayRefill, data_len, overlay_pages);
                host.charge_latency(Op::RegionMap, data_len, overlay_pages);
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                let region = self.move_into_fresh(to, p.space, &frames, HEADER_LEN, data_len);
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
                let desc = p.desc.take().expect("descriptor");
                let host = self.host_mut(to);
                let npages = host.vm.region(region).map_or(0, |r| r.npages);
                let usable = overlay_pages.min(npages as usize);
                host.charge_latency(Op::RegionCheck, 0, 0);
                if p.semantics == Semantics::WeakMove {
                    host.charge_latency(Op::Unwire, data_len, npages as usize);
                }
                host.charge_latency(Op::Unreference, data_len, npages as usize);
                // Swap overlay pages into the region.
                host.charge_latency(Op::Swap, total.min(usable * page), usable);
                host.charge_latency(Op::RegionMarkIn, 0, 0);
                let (swapped, rest) = frames.split_at(usable);
                let region = self.move_into_cached(to, p.semantics, region, desc, npages, swapped);
                self.host_mut(to).return_overlay(rest.iter().copied());
                (
                    region.start_vpn * page as u64 + HEADER_LEN as u64,
                    Some(region),
                )
            }
        };
        let host = self.host_mut(to);
        host.charge_latency(Op::OverlayDeallocate, total, overlay_pages);
        host.recycle_frame_list(frames);
        result
    }

    /// Dispose for outboard placements (Section 6.2.3): the stored wire
    /// image leaves the adapter and its storage is recycled once the
    /// data is in host memory.
    fn dispose_outboard(
        &mut self,
        to: HostId,
        p: &mut PendingRecv,
        buf: usize,
        data_len: usize,
    ) -> (u64, Option<RegionHandle>) {
        let total = data_len + HEADER_LEN;
        let pdu = self
            .host_mut(to)
            .adapter
            .outboard_free(buf)
            .expect("outboard buffer");
        let data = &pdu.payload()[HEADER_LEN..total];
        // Store-and-forward: the host-side DMA happens now, adding its
        // full transfer time to the critical path.
        let dma_time = self.dma.transfer_time(total);

        let result = if p.semantics == Semantics::EmulatedCopy {
            // Section 6.2.3: reference the application pages, DMA from
            // the outboard buffer straight into them, unreference.
            let (vaddr, _len) = p.app.expect("app buffer");
            let host = self.host_mut(to);
            let (desc, _) = host
                .reference_app(p.space, vaddr, data_len, IoDir::Input, false)
                .expect("reference app buffer");
            host.clock += dma_time;
            Adapter::dma_scatter(&mut host.vm.phys, &desc.vecs, data).expect("outboard dma");
            let pages = host.pages_at(vaddr, data_len);
            host.release_app(desc, None, data_len, pages);
            (vaddr, None)
        } else {
            // All other semantics: run the early-demux placement
            // against the outboard data, after the store-and-forward
            // DMA.
            self.host_mut(to).clock += dma_time;
            match self
                .place_early(to, &*p, data)
                .expect("early placement from outboard")
            {
                PlacedPayload::Direct => self.dispose_direct(to, p),
                PlacedPayload::SysFrames(frames) => {
                    self.dispose_sys_frames(to, p, frames, data_len)
                }
                PlacedPayload::Aligned(frames) => self.dispose_aligned(to, p, frames, data_len),
                _ => unreachable!("early placement"),
            }
        };
        self.recycle_pdu(pdu);
        result
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
            Semantics::Move => h.vm.remove_region(region)?,
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                if semantics == Semantics::EmulatedMove {
                    h.vm.invalidate_region(region)?;
                }
                h.vm.space_mut(region.space).input_region_released();
                h.vm.cache_region(region, semantics.cached_mark())?;
            }
            other => return Err(GenieError::BufferMismatch(other)),
        }
        Ok(())
    }

    /// The fresh-region move-in of Tables 3 and 4: a new region takes
    /// `frames`, whose data starts `head` bytes into the first, and the
    /// bytes around the data are zeroed so no stale contents leak; the
    /// region is filled, mapped and marked moved in. VM actions only:
    /// the caller charges the row.
    fn move_into_fresh(
        &mut self,
        to: HostId,
        space: SpaceId,
        frames: &[FrameId],
        head: usize,
        data_len: usize,
    ) -> RegionHandle {
        let host = self.host_mut(to);
        let page = host.page_size();
        let npages = frames.len();
        let region = host
            .vm
            .alloc_region(space, npages as u64, RegionMark::MovingIn)
            .expect("region");
        let (first, last) = (frames[0], frames[npages - 1]);
        host.vm.phys.zero_range(first, 0..head).expect("frame");
        let data_end = head + data_len - (npages - 1) * page;
        host.vm
            .phys
            .zero_range(last, data_end..page)
            .expect("frame");
        host.vm
            .fill_region(region, frames.iter().copied())
            .expect("fill");
        host.vm.map_region(region).expect("map");
        host.vm
            .mark_region(region, RegionMark::MovedIn)
            .expect("mark");
        region
    }

    /// The cached-region move-in of Tables 3 and 4: confirms the
    /// prepared region survived, unwires it (weak move), releases the
    /// input descriptor, swaps `overlay` frames in as its first pages,
    /// reinstates it (emulated move) and marks it moved in. VM actions
    /// only: the caller charges the row.
    fn move_into_cached(
        &mut self,
        to: HostId,
        semantics: Semantics,
        region: RegionHandle,
        desc: IoDescriptor,
        npages: u64,
        overlay: &[FrameId],
    ) -> RegionHandle {
        let region = self.ensure_region_intact(to, region, &desc, npages);
        let host = self.host_mut(to);
        if semantics == Semantics::WeakMove {
            let _ = host.vm.unwire_region(region);
        }
        host.vm.unreference(desc).expect("unreference");
        for (i, &f) in overlay.iter().enumerate() {
            host.vm
                .swap_page(region.space, region.start_vpn + i as u64, f)
                .expect("swap overlay into region");
        }
        if semantics == Semantics::EmulatedMove {
            host.vm.reinstate_region(region).expect("reinstate");
        }
        host.vm
            .mark_region(region, RegionMark::MovedIn)
            .expect("mark");
        region
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
        let frames = desc.vecs.iter().map(|v| v.frame);
        let n = desc.vecs.len() as u64;
        let new = host
            .vm
            .alloc_region(region.space, n.max(1), RegionMark::MovingIn)
            .expect("replacement region");
        let obj = host.vm.region(new).expect("new region").object;
        for f in frames.clone() {
            host.vm.phys.adopt(f, Some(obj.0)).expect("adopt");
        }
        host.vm.fill_region(new, frames).expect("fill");
        host.vm.map_region(new).expect("map");
        new
    }
}

/// Which pages of an aligned buffer a plan swaps into the application
/// (in page order); the rest stay with the system.
fn swapped_pages(plan: AlignedPlan) -> impl Iterator<Item = bool> {
    plan.map(|pl| pl.action != PageAction::CopyOut)
        .chain(std::iter::repeat(false))
}

/// Receive-side DMA of `data` into consecutive kernel frames, starting
/// `off` bytes into the first (the layout of system and aligned
/// buffers).
fn scatter_from(phys: &mut PhysMem, frames: &[FrameId], off: usize, data: &[u8]) {
    let page = phys.page_size();
    let mut start = off;
    let mut rest = data;
    for &f in frames {
        if rest.is_empty() {
            break;
        }
        let n = rest.len().min(page - start);
        phys.write(f, start, &rest[..n]).expect("scatter");
        rest = &rest[n..];
        start = 0;
    }
}
