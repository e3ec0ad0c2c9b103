//! The output data-passing path (paper Table 2).
//!
//! Output has two stages: **prepare**, when the application invokes
//! the operation (its cost is on the end-to-end critical path), and
//! **dispose**, when transmit-side DMA completes (overlapping network
//! latency, but serializing with the application's next operation).

use genie_machine::link::{cells_for_payload, AAL5_MAX_PAYLOAD};
use genie_machine::{Op, SimTime};
use genie_mem::{FrameId, IoDir};
use genie_net::{checksum16, Adapter, DatagramHeader, Vc, WirePdu, HEADER_LEN};
use genie_vm::{IoDescriptor, RegionHandle, RegionMark, SpaceId};

use crate::config::ChecksumMode;
use crate::error::GenieError;
use crate::semantics::Semantics;
use crate::world::{Event, HostId, World};

/// An application's output request.
#[derive(Clone, Copy, Debug)]
pub struct OutputRequest {
    /// Requested data-passing semantics.
    pub semantics: Semantics,
    /// Virtual circuit to send on.
    pub vc: Vc,
    /// Sending process.
    pub space: SpaceId,
    /// Buffer virtual address. For system-allocated semantics this
    /// must be the start of a moved-in region.
    pub vaddr: u64,
    /// Buffer length in bytes.
    pub len: usize,
    /// Correlation tag, echoed verbatim in the [`SendCompletion`].
    pub user_data: u64,
}

impl OutputRequest {
    /// Convenience constructor (`user_data` 0).
    pub fn new(semantics: Semantics, vc: Vc, space: SpaceId, vaddr: u64, len: usize) -> Self {
        OutputRequest {
            semantics,
            vc,
            space,
            vaddr,
            len,
            user_data: 0,
        }
    }
}

/// A finished output operation.
#[derive(Clone, Copy, Debug)]
pub struct SendCompletion {
    /// Correlation token returned by [`World::output`].
    pub token: u64,
    /// Sending host.
    pub host: HostId,
    /// Semantics requested by the application.
    pub requested: Semantics,
    /// Semantics actually used (thresholds may convert to copy).
    pub effective: Semantics,
    /// When the sender's dispose stage finished.
    pub completed_at: SimTime,
    /// Payload length.
    pub len: usize,
    /// Times the transmission stalled waiting for credits.
    pub credit_stalls: u32,
    /// The request's `user_data`.
    pub user_data: u64,
    /// The sender's clock when the application invoked the output.
    pub invoked_at: SimTime,
}

/// An output awaiting its dispose stage (its identity lives in the
/// enclosing `OpSlot`).
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub requested: Semantics,
    pub effective: Semantics,
    pub desc: IoDescriptor,
    pub sys_frames: Vec<FrameId>,
    pub region: Option<RegionHandle>,
    pub header: DatagramHeader,
    pub len: usize,
    pub stalls: u32,
}

/// Refuses a VC number the datagram header cannot carry: its ports are
/// 16 bits wide, and every per-VC table grows to the largest VC used.
pub(crate) fn check_vc(vc: Vc) -> Result<(), GenieError> {
    if vc.0 > u32::from(u16::MAX) {
        return Err(GenieError::VcOutOfRange(vc.0));
    }
    Ok(())
}

impl World {
    /// Invokes output with the requested semantics (Table 2 prepare
    /// stage), schedules transmission, and returns a token.
    pub fn output(&mut self, from: HostId, req: OutputRequest) -> Result<u64, GenieError> {
        if req.len == 0 {
            return Err(GenieError::Empty);
        }
        check_vc(req.vc)?;
        if req.len + HEADER_LEN > AAL5_MAX_PAYLOAD {
            return Err(GenieError::TooLong(req.len));
        }
        // A PDU larger than an allotment it must cross would stall the
        // sender (or strand a switch port) forever.
        let cells = cells_for_payload(req.len + HEADER_LEN) as u32;
        let limit = self.host(from).adapter.credit_limit();
        let allotment = self
            .switch
            .as_ref()
            .map_or(limit, |sw| limit.min(sw.port_credit()));
        if cells > allotment {
            return Err(GenieError::ExceedsCredit { cells, allotment });
        }
        let invoked_at = self.host(from).clock;
        let effective = self.effective_output_semantics(req.semantics, req.len);
        let seq = self.next_seq(req.vc);
        // Flow identity for the sampling layer: every span recorded on
        // this host until the prepare phase closes belongs to
        // `(vc, seq)` and is kept or sampled out as one unit.
        if self.hosts[from.idx()].tracer.enabled() {
            self.hosts[from.idx()].tracer.set_flow(req.vc.0, seq);
        }

        // Fixed OS path: system call, socket/protocol layers.
        self.host_mut(from).charge_latency(Op::OsFixedSend, 0, 0);

        let (desc, sys_frames, region) = self.prepare_output(from, &req, effective)?;

        // Optional checksumming (Section 9 ablation). With copy
        // semantics the checksum can be integrated in the copy, which
        // was already charged by `prepare_output`; every other path
        // needs a separate read pass. The oracle fingerprints the same
        // bytes: strong-integrity semantics promise that delivery will
        // carry them as of this invocation (read from the referenced
        // frames, i.e. post-copy / post-protect). One gather serves
        // both.
        let checksumming = self.cfg.checksum != ChecksumMode::None;
        let promising =
            self.fault.oracle.is_some() && req.semantics.integrity() == crate::Integrity::Strong;
        if checksumming
            && !(self.cfg.checksum == ChecksumMode::Integrated && effective == Semantics::Copy)
        {
            self.host_mut(from)
                .charge_latency(Op::ChecksumRead, req.len, 0);
        }
        let mut checksum = 0;
        if checksumming || promising {
            let mut bytes = std::mem::take(&mut self.scratch_bytes);
            bytes.clear();
            let phys = &self.host(from).vm.phys;
            for v in &desc.vecs {
                bytes.extend_from_slice(phys.read(v.frame, v.offset, v.len)?);
            }
            if checksumming {
                checksum = checksum16(&bytes);
            }
            if let Some(o) = self.fault.oracle.as_mut().filter(|_| promising) {
                o.record_promised(req.vc.0, seq, genie_fault::fnv64(&bytes));
            }
            self.scratch_bytes = bytes;
        }

        let header = DatagramHeader {
            src_port: req.vc.0 as u16,
            dst_port: req.vc.0 as u16,
            seq,
            len: req.len as u32,
            checksum,
            flags: u16::from(checksumming),
        };

        let token = self.ops.insert(crate::world::OpSlot {
            from,
            vc: req.vc,
            seq,
            invoked_at,
            user_data: req.user_data,
            send: Some(PendingSend {
                requested: req.semantics,
                effective,
                desc,
                sys_frames,
                region,
                header,
                len: req.len,
                stalls: 0,
            }),
            copy: None,
        });
        let host = self.host_mut(from);
        host.phase_span("output.prepare", invoked_at, req.len);
        host.tracer.clear_flow();
        let t = host.clock;
        self.txq[from.idx()]
            .get_or_insert_with(u64::from(req.vc.0), Default::default)
            .push_back(token);
        self.events.push(t, Event::Transmit { token });
        Ok(token)
    }

    /// Applies the output copy-conversion thresholds (Section 6), plus
    /// fault-injected graceful degradation: under an active plan an
    /// optimized semantics may fall back to the basic semantics it
    /// emulates, which must be behaviorally invisible to applications.
    fn effective_output_semantics(&mut self, s: Semantics, len: usize) -> Semantics {
        let mut eff = match s {
            Semantics::EmulatedCopy if len < self.cfg.emulated_copy_output_threshold => {
                Semantics::Copy
            }
            Semantics::EmulatedShare if len < self.cfg.emulated_share_output_threshold => {
                Semantics::Copy
            }
            other => other,
        };
        if self.fault.plan.active() && eff.optimized() && self.fault.plan.degrade() {
            self.fault.stats.degraded_outputs += 1;
            eff = eff.basic();
        }
        eff
    }

    /// Table 2 prepare-stage operations.
    fn prepare_output(
        &mut self,
        from: HostId,
        req: &OutputRequest,
        effective: Semantics,
    ) -> Result<(IoDescriptor, Vec<FrameId>, Option<RegionHandle>), GenieError> {
        let host = self.host_mut(from);
        let page = host.page_size();
        let pages = host.pages_at(req.vaddr, req.len);
        match effective {
            Semantics::Copy => {
                // Allocate system buffer; copyin output data.
                host.charge_latency(Op::SysBufAllocate, 0, 0);
                let npages = req.len.div_ceil(page);
                let frames = host.alloc_kernel_frames(npages)?;
                host.charge_latency(Op::Copyin, req.len, pages);
                host.vm
                    .copy_app_into_frames(req.space, req.vaddr, req.len, &frames)?;
                let triples = frames
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| (f, 0, (req.len - i * page).min(page)));
                let desc = host.vm.reference_frames(triples, IoDir::Output)?;
                Ok((desc, frames, None))
            }
            Semantics::EmulatedCopy => {
                // Reference application pages; read-only them (TCOW).
                let (desc, _) =
                    host.reference_app(req.space, req.vaddr, req.len, IoDir::Output, false)?;
                host.charge_latency(Op::ReadOnly, req.len, pages);
                host.vm.write_protect(req.space, req.vaddr, req.len);
                Ok((desc, Vec::new(), None))
            }
            Semantics::Share | Semantics::EmulatedShare => {
                let wire = effective == Semantics::Share;
                let (desc, region) =
                    host.reference_app(req.space, req.vaddr, req.len, IoDir::Output, wire)?;
                Ok((desc, Vec::new(), region))
            }
            Semantics::Move
            | Semantics::EmulatedMove
            | Semantics::WeakMove
            | Semantics::EmulatedWeakMove => {
                let region = host.vm.region_at(req.space, req.vaddr)?;
                {
                    let r = host.vm.region(region)?;
                    if r.mark != RegionMark::MovedIn {
                        return Err(GenieError::OutputRequiresMovedInRegion);
                    }
                    if req.vaddr != r.start_vpn * page as u64
                        || req.len > (r.npages as usize) * page
                    {
                        return Err(GenieError::BufferMismatch(effective));
                    }
                }
                host.charge_latency(Op::Reference, req.len, pages);
                let desc = host
                    .vm
                    .reference_region_pages(region, 0, req.len, IoDir::Output)?;
                if matches!(effective, Semantics::Move | Semantics::WeakMove) {
                    host.charge_latency(Op::Wire, req.len, pages);
                    host.vm.wire_region(region)?;
                }
                host.charge_latency(Op::RegionMarkOut, 0, 0);
                host.vm.mark_region(region, RegionMark::MovingOut)?;
                if matches!(effective, Semantics::Move | Semantics::EmulatedMove) {
                    host.charge_latency(Op::Invalidate, req.len, pages);
                    host.vm.invalidate_region(region)?;
                }
                Ok((desc, Vec::new(), Some(region)))
            }
        }
    }

    /// Transmit event: drain this PDU's per-VC transmit queue in FIFO
    /// order. Each drained PDU is gathered by DMA (page shares of
    /// whatever the frames hold *now* — in-place semantics race
    /// application writes exactly as real DMA does), spends credits, and is
    /// launched; a credit-stalled PDU blocks the head of its VC's line
    /// so delivery order is preserved.
    pub(crate) fn on_transmit(&mut self, time: SimTime, token: u64) {
        let Some(slot) = self.ops.get(token).filter(|s| s.send.is_some()) else {
            return; // already transmitted by an earlier drain
        };
        let (host, vc) = (slot.from.idx(), u64::from(slot.vc.0));
        while let Some(&front) = self.txq[host].get(vc).and_then(|q| q.front()) {
            if !self.try_transmit_one(time, front) {
                break;
            }
            self.txq[host]
                .get_mut(vc)
                .expect("queue exists")
                .pop_front();
        }
    }

    /// Attempts to put one pending PDU on the wire; returns false on a
    /// credit stall (a retry is scheduled).
    fn try_transmit_one(&mut self, time: SimTime, token: u64) -> bool {
        let slot = self.ops.get(token).expect("pending send");
        let (from, vc, seq) = (slot.from, slot.vc, slot.seq);
        let send = slot.send.as_ref().expect("pending send");
        let total = send.len + HEADER_LEN;
        let cells = cells_for_payload(total);
        if self.hosts[from.idx()].tracer.enabled() {
            self.hosts[from.idx()].tracer.set_flow(vc.0, seq);
        }

        if self.fault.plan.active() {
            self.maybe_starve_credits(time, from, vc);
        }

        if !self.hosts[from.idx()]
            .adapter
            .try_send_credits(vc, cells as u32)
        {
            // Out of credit: retry after a round-trip-ish delay (credit
            // returns also wake this queue directly).
            self.send_mut(token).expect("pending send").stalls += 1;
            let tracer = &mut self.hosts[from.idx()].tracer;
            if tracer.enabled() {
                tracer.instant(genie_trace::Track::Events, "credit.stall", time, cells);
            }
            let retry = time + crate::fabric::UPLINK_STALL_RETRY;
            self.events.push(retry, Event::Transmit { token });
            self.hosts[from.idx()].tracer.clear_flow();
            return false;
        }

        // Transmit DMA: the wire image shares the referenced frames'
        // pages as they are now; a later write copies the page first.
        let mut segs = self.take_seg_list();
        let send = self.ops.get(token).and_then(|s| s.send.as_ref());
        let send = send.expect("pending send");
        let phys = &mut self.hosts[from.idx()].vm.phys;
        Adapter::dma_gather_into(phys, &send.desc.vecs, &mut segs)
            .expect("gather referenced frames");
        let wire = WirePdu::from_parts(vc.0, send.header.encode(), segs);

        // Per-cell driver housekeeping: CPU busy, overlapped with the
        // transmission (contributes to Figure 4, not to latency).
        self.hosts[from.idx()].charge_overlapped(Op::CellTx, total, cells);

        let dma_setup = self.hosts[from.idx()].charge_overlapped(Op::DmaSetup, 0, 0);
        let dev_tx = self.hosts[from.idx()].charge_overlapped(Op::DeviceFixedSend, 0, 0);

        if self.fault.plan.active() {
            // The adapter keeps the wire image for retransmission until
            // the peer delivers this PDU in order.
            let pdu = wire.replicate(self.take_seg_list());
            let slot = self.ops.get_mut(token).expect("pending send");
            debug_assert!(slot.copy.is_none(), "a PDU is sent first only once");
            slot.copy = Some(crate::faults::RetransmitCopy { pdu, attempts: 0 });
        }

        let wire_start = self.launch(token, time + dma_setup + dev_tx, wire);
        let mut txdone = wire_start.max(time) + self.dma.transfer_time(total);
        if self.fault.plan.active() {
            if let Some(d) = self.fault.plan.completion_delay() {
                self.fault.stats.completion_delays += 1;
                txdone += d;
            }
        }
        self.events.push(txdone, Event::TxDone { token });
        self.hosts[from.idx()].tracer.clear_flow();
        true
    }

    /// Transmit-DMA-complete event: Table 2 dispose-stage operations.
    pub(crate) fn on_tx_done(&mut self, time: SimTime, token: u64) {
        let slot = self.ops.get(token).expect("pending send");
        let (from, vc, seq) = (slot.from, slot.vc, slot.seq);
        let (user_data, invoked_at) = (slot.user_data, slot.invoked_at);
        let send = self.take_send(token).expect("pending send");
        let page = self.host(from).page_size();
        let page_off = send.desc.vecs.first().map_or(0, |v| v.offset % page);
        let pages = self.host(from).machine().pages_spanned(page_off, send.len);
        let host = self.host_mut(from);
        // Dispose runs when the adapter raises tx-complete; it overlaps
        // network latency but the application regains the CPU only
        // afterwards.
        host.clock = host.clock.max(time);
        let dispose_start = host.clock;
        if host.tracer.enabled() {
            host.tracer.set_flow(vc.0, seq);
        }
        match send.effective {
            Semantics::Copy => {
                host.charge_latency(Op::SysBufDeallocate, 0, 0);
                host.vm.unreference(send.desc).expect("unreference");
                host.free_kernel_frames(send.sys_frames);
            }
            // Share's region is wired; the emulated ones keep none.
            Semantics::EmulatedCopy | Semantics::Share | Semantics::EmulatedShare => {
                host.release_app(send.desc, send.region, send.len, pages);
            }
            Semantics::Move => {
                let region = send.region.expect("move region");
                host.release_app(send.desc, Some(region), send.len, pages);
                host.charge_latency(Op::RegionRemove, 0, 0);
                host.vm.remove_region(region).expect("remove region");
            }
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let region = send.region.expect("region");
                let wired = (send.effective == Semantics::WeakMove).then_some(region);
                host.release_app(send.desc, wired, send.len, pages);
                host.charge_latency(Op::RegionMarkOut, 0, 0);
                host.vm
                    .cache_region(region, send.effective.cached_mark())
                    .expect("cache");
            }
        }
        let host = self.host_mut(from);
        host.phase_span("output.dispose", dispose_start, send.len);
        host.tracer.clear_flow();
        self.done_sends.push(SendCompletion {
            token,
            host: from,
            requested: send.requested,
            effective: send.effective,
            completed_at: self.host(from).clock,
            len: send.len,
            credit_stalls: send.stalls,
            user_data,
            invoked_at,
        });
    }
}
