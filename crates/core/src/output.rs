//! The output data-passing path (paper Table 2).
//!
//! Output has two stages: **prepare**, when the application invokes
//! the operation (its cost is on the end-to-end critical path), and
//! **dispose**, when transmit-side DMA completes (overlapping network
//! latency, but serializing with the application's next operation).

use genie_machine::link::{cells_for_payload, AAL5_MAX_PAYLOAD};
use genie_machine::{Op, SimTime};
use genie_mem::{FrameId, IoDir};
use genie_net::{checksum16, Adapter, DatagramHeader, Vc, HEADER_LEN};
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
}

impl OutputRequest {
    /// Convenience constructor.
    pub fn new(semantics: Semantics, vc: Vc, space: SpaceId, vaddr: u64, len: usize) -> Self {
        OutputRequest {
            semantics,
            vc,
            space,
            vaddr,
            len,
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
}

/// An output in flight.
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub from: HostId,
    pub vc: Vc,
    pub requested: Semantics,
    pub effective: Semantics,
    pub desc: IoDescriptor,
    pub sys_frames: Vec<FrameId>,
    pub region: Option<RegionHandle>,
    pub header: DatagramHeader,
    pub len: usize,
    pub invoked_at: SimTime,
    pub stalls: u32,
}

impl World {
    /// Invokes output with the requested semantics (Table 2 prepare
    /// stage), schedules transmission, and returns a token.
    pub fn output(&mut self, from: HostId, req: OutputRequest) -> Result<u64, GenieError> {
        if req.len == 0 {
            return Err(GenieError::Empty);
        }
        if req.len + HEADER_LEN > AAL5_MAX_PAYLOAD {
            return Err(GenieError::TooLong(req.len));
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
        // needs a separate read pass.
        let checksum = match self.cfg.checksum {
            ChecksumMode::None => 0,
            ChecksumMode::Integrated | ChecksumMode::Separate => {
                let integrated_in_copy =
                    self.cfg.checksum == ChecksumMode::Integrated && effective == Semantics::Copy;
                if !integrated_in_copy {
                    self.host_mut(from)
                        .charge_latency(Op::ChecksumRead, req.len, 0);
                }
                let mut bytes = self.take_payload_buf();
                Adapter::dma_gather_into(&self.host(from).vm.phys, &desc.vecs, &mut bytes)?;
                let sum = checksum16(&bytes);
                self.recycle_payload(bytes);
                sum
            }
        };

        let header = DatagramHeader {
            src_port: req.vc.0 as u16,
            dst_port: req.vc.0 as u16,
            seq,
            len: req.len as u32,
            checksum,
            flags: u16::from(self.cfg.checksum != ChecksumMode::None),
        };

        // Oracle: strong-integrity semantics promise that delivery will
        // carry the bytes as of this invocation; fingerprint them now
        // (from the referenced frames, i.e. post-copy / post-protect).
        if self.fault.oracle.is_some() && req.semantics.integrity() == crate::Integrity::Strong {
            let mut bytes = self.take_payload_buf();
            Adapter::dma_gather_into(&self.host(from).vm.phys, &desc.vecs, &mut bytes)?;
            let fp = genie_fault::fnv64(&bytes);
            self.recycle_payload(bytes);
            if let Some(o) = self.fault.oracle.as_mut() {
                o.record_promised(req.vc.0, seq, fp);
            }
        }

        let token = self.ops.insert(crate::world::OpSlot {
            send: Some(PendingSend {
                from,
                vc: req.vc,
                requested: req.semantics,
                effective,
                desc,
                sys_frames,
                region,
                header,
                len: req.len,
                invoked_at,
                stalls: 0,
            }),
            inflight: None,
        });
        let t = self.host(from).clock;
        {
            let host = self.host_mut(from);
            if host.tracer.enabled() {
                host.tracer.span(
                    genie_trace::Track::Phase,
                    "output.prepare",
                    invoked_at,
                    t.saturating_sub(invoked_at),
                    req.len,
                    0,
                );
                host.tracer.clear_flow();
            }
        }
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
        let page = self.host(from).page_size();
        let page_off = (req.vaddr % page as u64) as usize;
        let pages = self.host(from).machine().pages_spanned(page_off, req.len);
        let host = self.host_mut(from);
        match effective {
            Semantics::Copy => {
                // Allocate system buffer; copyin output data.
                host.charge_latency(Op::SysBufAllocate, 0, 0);
                let npages = req.len.div_ceil(page);
                let frames = host.alloc_kernel_frames(npages)?;
                let integrated = false; // handled by caller for checksum
                let _ = integrated;
                host.charge_latency(Op::Copyin, req.len, pages);
                host.vm
                    .copy_app_into_frames(req.space, req.vaddr, req.len, &frames)?;
                let mut triples = Vec::with_capacity(npages);
                for (i, f) in frames.iter().enumerate() {
                    let off = i * page;
                    let n = (req.len - off).min(page);
                    triples.push((*f, 0usize, n));
                }
                let desc = host.vm.reference_frames(&triples, IoDir::Output)?;
                Ok((desc, frames, None))
            }
            Semantics::EmulatedCopy => {
                // Reference application pages; read-only them (TCOW).
                host.charge_latency(Op::Reference, req.len, pages);
                let (desc, _faults) =
                    host.vm
                        .reference_pages(req.space, req.vaddr, req.len, IoDir::Output)?;
                host.charge_latency(Op::ReadOnly, req.len, pages);
                host.vm.write_protect(req.space, req.vaddr, req.len);
                Ok((desc, Vec::new(), None))
            }
            Semantics::Share => {
                host.charge_latency(Op::Reference, req.len, pages);
                let (desc, _faults) =
                    host.vm
                        .reference_pages(req.space, req.vaddr, req.len, IoDir::Output)?;
                let region = host.vm.region_at(req.space, req.vaddr)?;
                host.charge_latency(Op::Wire, req.len, pages);
                host.vm.wire_region(region)?;
                Ok((desc, Vec::new(), Some(region)))
            }
            Semantics::EmulatedShare => {
                host.charge_latency(Op::Reference, req.len, pages);
                let (desc, _faults) =
                    host.vm
                        .reference_pages(req.space, req.vaddr, req.len, IoDir::Output)?;
                Ok((desc, Vec::new(), None))
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
                let (desc, _faults) =
                    host.vm
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
    /// order. Each drained PDU is gathered by DMA (reading whatever
    /// the frames hold *now* — in-place semantics race application
    /// writes exactly as real DMA does), spends credits, and is
    /// scheduled for arrival; a credit-stalled PDU blocks the head of
    /// its VC's line so delivery order is preserved.
    pub(crate) fn on_transmit(&mut self, time: SimTime, token: u64) {
        let Some(send) = self.send(token) else {
            return; // already transmitted by an earlier drain
        };
        let (host, vc) = (send.from.idx(), u64::from(send.vc.0));
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
        let send = self.send(token).expect("pending send");
        let from = send.from;
        let vc = send.vc;
        let seq = send.header.seq;
        let sent_at = send.invoked_at;
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

        let mut payload = self.take_payload_buf();
        payload.reserve(total);
        let send = self.send(token).expect("pending send");
        payload.extend_from_slice(&send.header.encode());
        Adapter::dma_gather_into(
            &self.hosts[from.idx()].vm.phys,
            &send.desc.vecs,
            &mut payload,
        )
        .expect("gather referenced frames");

        // Per-cell driver housekeeping: CPU busy, overlapped with the
        // transmission (contributes to Figure 4, not to latency).
        self.hosts[from.idx()].charge_overlapped(Op::CellTx, total, cells);

        let dma_setup = self.hosts[from.idx()].charge_overlapped(Op::DmaSetup, 0, 0);
        let dev_tx = self.hosts[from.idx()].charge_overlapped(Op::DeviceFixedSend, 0, 0);
        // The wire serializes transmissions in each direction:
        // pipelined datagrams queue behind the previous PDU's cells.
        let ready = time + dma_setup + dev_tx;
        let (wire_start, mut arrival) = self.uplink_hop(from, vc, seq, ready, total, cells);
        let mut txdone = wire_start.max(time) + self.dma.transfer_time(total);

        // The wire image: one contiguous pooled buffer plus cell
        // metadata. Real cells exist only on the slow path (fault
        // damage, forced cell codec).
        let mut pdu = genie_net::WirePdu::new(vc.0, payload);
        debug_assert_eq!(pdu.n_cells(), cells, "cell metadata disagrees with charge");
        if self.force_cells {
            pdu = self.roundtrip_through_cells(pdu);
        }

        let mut intact = true;
        if self.fault.plan.active() {
            // The adapter keeps the wire image for retransmission until
            // the peer delivers this PDU in order.
            if !self.has_inflight(token) {
                let mut bytes = self.take_payload_buf();
                bytes.extend_from_slice(pdu.payload());
                self.set_inflight(
                    token,
                    crate::faults::Inflight {
                        from,
                        vc,
                        bytes,
                        cells,
                        sent_at,
                        attempts: 0,
                    },
                );
            }
            let verdict = self.fault.plan.wire(cells);
            if let Some(extra) = verdict.extra_delay {
                self.fault.stats.pdus_delayed += 1;
                arrival += extra;
            }
            if let Some(d) = self.fault.plan.completion_delay() {
                self.fault.stats.completion_delays += 1;
                txdone += d;
            }
            if let Some(damage) = verdict.damage {
                intact = self.apply_wire_damage(vc, pdu.payload(), damage);
            }
        }
        let pdu = if intact {
            Some(pdu)
        } else {
            self.fault.stats.pdus_damaged += 1;
            self.recycle_pdu(pdu);
            None
        };

        let ev = self.uplink_event(from, vc, pdu, cells, total, sent_at, token, seq);
        self.events.push(arrival, ev);
        self.events.push(txdone, Event::TxDone { token });
        self.hosts[from.idx()].tracer.clear_flow();
        true
    }

    /// Transmit-DMA-complete event: Table 2 dispose-stage operations.
    pub(crate) fn on_tx_done(&mut self, time: SimTime, token: u64) {
        let send = self.take_send(token).expect("pending send");
        let from = send.from;
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
            host.tracer.set_flow(send.vc.0, send.header.seq);
        }
        match send.effective {
            Semantics::Copy => {
                host.charge_latency(Op::SysBufDeallocate, 0, 0);
                host.vm.unreference(&send.desc).expect("unreference");
                host.free_kernel_frames(send.sys_frames.iter().copied());
            }
            Semantics::EmulatedCopy | Semantics::EmulatedShare => {
                host.charge_latency(Op::Unreference, send.len, pages);
                host.vm.unreference(&send.desc).expect("unreference");
            }
            Semantics::Share => {
                host.charge_latency(Op::Unwire, send.len, pages);
                let region = send.region.expect("share region");
                let _ = host.vm.unwire_region(region);
                host.charge_latency(Op::Unreference, send.len, pages);
                host.vm.unreference(&send.desc).expect("unreference");
            }
            Semantics::Move => {
                let region = send.region.expect("move region");
                host.charge_latency(Op::Unwire, send.len, pages);
                let _ = host.vm.unwire_region(region);
                host.charge_latency(Op::Unreference, send.len, pages);
                host.vm.unreference(&send.desc).expect("unreference");
                host.charge_latency(Op::RegionRemove, 0, 0);
                host.vm.remove_region(region).expect("remove region");
            }
            Semantics::EmulatedMove => {
                let region = send.region.expect("region");
                host.charge_latency(Op::Unreference, send.len, pages);
                host.vm.unreference(&send.desc).expect("unreference");
                host.charge_latency(Op::RegionMarkOut, 0, 0);
                host.vm
                    .mark_region(region, RegionMark::MovedOut)
                    .expect("mark");
                host.vm
                    .space_mut(region.space)
                    .cache_region(region.start_vpn, RegionMark::MovedOut);
            }
            Semantics::WeakMove | Semantics::EmulatedWeakMove => {
                let region = send.region.expect("region");
                if send.effective == Semantics::WeakMove {
                    host.charge_latency(Op::Unwire, send.len, pages);
                    let _ = host.vm.unwire_region(region);
                }
                host.charge_latency(Op::Unreference, send.len, pages);
                host.vm.unreference(&send.desc).expect("unreference");
                host.charge_latency(Op::RegionMarkOut, 0, 0);
                host.vm
                    .mark_region(region, RegionMark::WeaklyMovedOut)
                    .expect("mark");
                host.vm
                    .space_mut(region.space)
                    .cache_region(region.start_vpn, RegionMark::WeaklyMovedOut);
            }
        }
        {
            let host = self.host_mut(from);
            if host.tracer.enabled() {
                let end = host.clock;
                host.tracer.span(
                    genie_trace::Track::Phase,
                    "output.dispose",
                    dispose_start,
                    end.saturating_sub(dispose_start),
                    send.len,
                    0,
                );
                host.tracer.clear_flow();
            }
        }
        self.done_sends.push(SendCompletion {
            token,
            host: from,
            requested: send.requested,
            effective: send.effective,
            completed_at: self.host(from).clock,
            len: send.len,
            credit_stalls: send.stalls,
        });
    }
}
