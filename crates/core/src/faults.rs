//! Fault-injection hooks and recovery machinery for the datapath.
//!
//! Everything here is gated on [`FaultPlan::active`]: with
//! `FaultPlan::none()` (the default) no hook changes any state, no
//! event is added, and the simulation is byte-identical to a world
//! without the fault subsystem — the `report` determinism gate relies
//! on this.
//!
//! With an active plan the world gains the robustness semantics the
//! paper's network (Credit Net ATM) leaves to higher layers:
//!
//! - **AAL5 CRC drop detection**: a damaged PDU is segmented into real
//!   cells, the damage applied, and reassembly attempted; reassembly
//!   failure discards the PDU at the receiving adapter.
//! - **Per-VC retransmission**: the sending adapter keeps a copy of
//!   the wire image of each unacknowledged PDU in the output's slot
//!   and retransmits with exponential backoff when the receiver
//!   reports damage or buffer exhaustion. A retransmission spends
//!   credits like a first send and leaves through the same launch
//!   (`World::launch`), so it draws its own wire verdict; it stays
//!   outside flow attribution, so trace sampling never drops it.
//! - **In-order delivery**: the receiver holds out-of-order PDUs per
//!   VC and releases them gaplessly by sequence number, so recovery is
//!   invisible above the datapath.
//!
//! The in-order gate assumes each VC carries traffic toward one host
//! (sequence numbers are per VC), which every experiment in this
//! repository honors; fault-free worlds have no such restriction.

use genie_fault::{FaultConfig, FaultPlan, FaultStats, Oracle, WireDamage};
use genie_machine::link::CELL_PAYLOAD;
use genie_machine::{Op, SimTime};
use genie_mem::{DenseMap, FrameId};
use genie_net::{aal5, InflightPdu, Vc, WirePdu};
use genie_vm::pageout::PageoutPolicy;

use crate::world::{Event, HostId, World};

/// Retransmission attempts before a PDU is abandoned.
const MAX_RETRANSMIT_ATTEMPTS: u32 = 10;
/// Local redelivery attempts (receiver-side buffer-exhaustion retries)
/// before falling back to a sender retransmission.
const MAX_REDELIVER_TRIES: u32 = 50;
/// Free frames the pressure injector always leaves available, so
/// hoarding exercises allocation pressure without wedging the
/// datapath's own (small, bounded) frame needs.
const HOARD_MARGIN: usize = 64;
/// Default per-(host, VC) reorder hold-queue depth cap: a held PDU
/// arriving at a full queue is spilled (discarded and re-requested
/// from the sender), bounding receiver-side reorder memory at scale.
const DEFAULT_HOLD_CAP: usize = 64;

/// The wire image (header + payload as gathered at first
/// transmission) the sending adapter holds for possible
/// retransmission, matching an adapter-resident retransmit buffer —
/// the host-side frames may be disposed or reused long before recovery
/// finishes (the image shares their pages, so a later write copies the
/// page first). The output's identity lives in its `OpSlot`.
#[derive(Debug)]
pub(crate) struct RetransmitCopy {
    pub pdu: WirePdu,
    pub attempts: u32,
}

/// An intact PDU the receiver is holding: either waiting for its
/// predecessors in sequence order, or waiting for buffering to free up.
#[derive(Debug)]
pub(crate) struct HeldPdu {
    pub pdu: InflightPdu,
    pub tries: u32,
}

/// One (host, VC)'s reorder hold queue: held PDUs sorted by sequence
/// number in a small vector. The access pattern is exact-sequence
/// probe/insert/remove on a handful of entries (bounded by the fault
/// plan's reorder window), where a sorted vector beats a tree map.
#[derive(Debug, Default)]
pub(crate) struct HoldQueue(Vec<HeldPdu>);

impl HoldQueue {
    fn find(&self, seq: u32) -> Result<usize, usize> {
        self.0.binary_search_by_key(&seq, |h| h.pdu.seq)
    }

    /// Whether a PDU with sequence number `seq` is held.
    pub fn contains(&self, seq: u32) -> bool {
        self.find(seq).is_ok()
    }

    /// Inserts a held PDU (caller guarantees its sequence number is
    /// not present).
    pub fn insert(&mut self, held: HeldPdu) {
        match self.find(held.pdu.seq) {
            Ok(_) => unreachable!("duplicate held sequence {}", held.pdu.seq),
            Err(i) => self.0.insert(i, held),
        }
    }

    /// Removes and returns the PDU with sequence number `seq`.
    pub fn remove(&mut self, seq: u32) -> Option<HeldPdu> {
        let i = self.find(seq).ok()?;
        Some(self.0.remove(i))
    }

    /// Number of held PDUs.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// All per-world fault state.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    pub stats: FaultStats,
    pub oracle: Option<Oracle>,
    /// Receiver-side hold queues, `[host index][VC]` (sender-side
    /// retransmit copies live in the world's output-op arena).
    pub rx_held: Vec<DenseMap<HoldQueue>>,
    /// Next sequence number each `[host index][VC]` will release.
    pub rx_next_seq: Vec<DenseMap<u32>>,
    /// Frames hoarded by pressure episodes, per host.
    pub hoard: Vec<Vec<FrameId>>,
    /// Oracle sweep site names, one per host (precomputed so the
    /// per-event sweep allocates nothing).
    pub site_names: Vec<String>,
    /// Distribution of hold-queue depths observed as PDUs were held
    /// (empty in fault-free worlds, where nothing is ever held).
    pub hold_depth: genie_trace::metrics::Histogram,
    /// Depth cap per (host, VC) reorder hold queue; arrivals past it
    /// spill (counted in `FaultStats::hold_spills`).
    pub hold_cap: usize,
}

impl FaultState {
    pub fn new(cfg: FaultConfig, n_hosts: usize) -> Self {
        FaultState {
            plan: FaultPlan::new(cfg),
            stats: FaultStats::default(),
            oracle: None,
            rx_held: (0..n_hosts).map(|_| DenseMap::new()).collect(),
            rx_next_seq: (0..n_hosts).map(|_| DenseMap::new()).collect(),
            hoard: (0..n_hosts).map(|_| Vec::new()).collect(),
            site_names: (0..n_hosts)
                .map(|i| match i {
                    0 => "host A".to_string(),
                    1 => "host B".to_string(),
                    i => format!("host {i}"),
                })
                .collect(),
            hold_depth: genie_trace::metrics::Histogram::new(),
            hold_cap: DEFAULT_HOLD_CAP,
        }
    }

    /// Next in-order sequence number for `(host, vc)` (0 if untouched).
    pub fn next_seq(&self, host: usize, vc: Vc) -> u32 {
        self.rx_next_seq[host]
            .get(u64::from(vc.0))
            .copied()
            .unwrap_or(0)
    }

    /// The hold queue for `(host, vc)`, if one was ever created.
    pub fn hold_queue(&self, host: usize, vc: Vc) -> Option<&HoldQueue> {
        self.rx_held[host].get(u64::from(vc.0))
    }

    /// The hold queue for `(host, vc)`, created on first use.
    pub fn hold_queue_mut(&mut self, host: usize, vc: Vc) -> &mut HoldQueue {
        self.rx_held[host].get_or_insert_with(u64::from(vc.0), HoldQueue::default)
    }
}

fn backoff(attempts: u32) -> SimTime {
    SimTime::from_us(150.0 * f64::from(1u32 << attempts.min(6)))
}

impl World {
    /// Enables the invariant oracle: structural sweeps after every
    /// event, end-to-end checks per delivery. Independent of whether
    /// faults are configured.
    pub fn enable_oracle(&mut self) {
        if self.fault.oracle.is_none() {
            self.fault.oracle = Some(Oracle::new());
        }
    }

    /// The invariant oracle, if enabled.
    pub fn oracle(&self) -> Option<&Oracle> {
        self.fault.oracle.as_ref()
    }

    /// Mutable access to the invariant oracle. Crash-dump tests use
    /// this to plant a bogus promised fingerprint and force a
    /// violation on an otherwise healthy run.
    pub fn oracle_mut(&mut self) -> Option<&mut Oracle> {
        self.fault.oracle.as_mut()
    }

    /// Fault-injection and recovery counters for this world.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats
    }

    /// The fault configuration this world was built with.
    pub fn fault_config(&self) -> FaultConfig {
        *self.fault.plan.config()
    }

    /// Applies cell-level damage to a PDU's wire image through the
    /// real AAL5 codec. Returns true if the PDU still reassembles to
    /// the original bytes (benign damage, e.g. swapping identical
    /// cells); false means the receiving adapter will discard it.
    ///
    /// This is the one place the fast path materializes real cells:
    /// damage is defined on cells, so the PDU is segmented into the
    /// world's scratch cell buffer, damaged, and reassembled into its
    /// scratch bytes — the only per-PDU allocations are warm-up.
    pub(crate) fn apply_wire_damage(&mut self, pdu: &WirePdu, damage: WireDamage) -> bool {
        let mut cells = std::mem::take(&mut self.scratch_cells);
        pdu.materialize_into(&mut cells);
        match damage {
            WireDamage::DropCell(i) => {
                if i < cells.len() {
                    cells.remove(i);
                }
            }
            WireDamage::CorruptCell(i) => {
                if let Some(c) = cells.get_mut(i) {
                    c.payload[7] ^= 0x20;
                }
            }
            WireDamage::SwapCells(i, j) => {
                if j < cells.len() {
                    cells.swap(i, j);
                }
            }
        }
        let mut bytes = std::mem::take(&mut self.scratch_bytes);
        let intact = match aal5::reassemble_into(&cells, &mut bytes) {
            Ok(()) => pdu.matches(&bytes),
            Err(_) => false,
        };
        self.scratch_bytes = bytes;
        cells.clear();
        self.scratch_cells = cells;
        intact
    }

    /// Transient credit starvation: steal credits from the sender's VC
    /// and schedule their restoration.
    pub(crate) fn maybe_starve_credits(&mut self, time: SimTime, from: HostId, vc: Vc) {
        let Some(starve) = self.fault.plan.credit_starve() else {
            return;
        };
        let adapter = &mut self.hosts[from.idx()].adapter;
        let steal = starve.cells.min(adapter.credits_mut(vc).available());
        if steal > 0 && adapter.try_send_credits(vc, steal) {
            self.fault.stats.credit_starvations += 1;
            let tracer = &mut self.hosts[from.idx()].tracer;
            if tracer.enabled() {
                tracer.instant(
                    genie_trace::Track::Events,
                    "credit.starved",
                    time,
                    steal as usize,
                );
            }
            self.events.push(
                time + starve.hold,
                Event::RestoreCredits {
                    host: from,
                    vc,
                    cells: steal,
                },
            );
        }
    }

    /// Restores credits a starvation episode withheld, and wakes the
    /// VC's transmit queue in case a PDU stalled on them.
    pub(crate) fn on_restore_credits(&mut self, time: SimTime, host: HostId, vc: Vc, cells: u32) {
        self.hosts[host.idx()].adapter.return_credits(vc, cells);
        self.wake_txq(host, vc, time);
    }

    /// Schedules a retransmission of `token` with exponential backoff,
    /// abandoning the PDU after the attempt cap.
    pub(crate) fn schedule_retransmit(&mut self, time: SimTime, token: u64) {
        let Some(copy) = self.copy_mut(token) else {
            return; // already delivered or abandoned
        };
        copy.attempts += 1;
        if copy.attempts > MAX_RETRANSMIT_ATTEMPTS {
            self.fault.stats.retransmits_abandoned += 1;
            self.drop_copy(token);
            return;
        }
        let at = time + backoff(copy.attempts);
        self.events.push(at, Event::Retransmit { token });
    }

    /// Retransmit event: resend the stored wire image on its VC. The
    /// launch draws a fresh wire verdict from the fault plan, so
    /// repeated damage keeps recovering until the plan's budget runs
    /// dry.
    pub(crate) fn on_retransmit(&mut self, time: SimTime, token: u64) {
        let Some(slot) = self.ops.get(token) else {
            return; // delivered in the meantime
        };
        let Some(copy) = &slot.copy else {
            return;
        };
        let (from, vc, total, cells) = (slot.from, slot.vc, copy.pdu.len(), copy.pdu.n_cells());
        if !self.hosts[from.idx()]
            .adapter
            .try_send_credits(vc, cells as u32)
        {
            self.events.push(
                time + crate::fabric::UPLINK_STALL_RETRY,
                Event::Retransmit { token },
            );
            return;
        }
        self.fault.stats.retransmits += 1;
        {
            let tracer = &mut self.hosts[from.idx()].tracer;
            if tracer.enabled() {
                tracer.instant(genie_trace::Track::Events, "retransmit", time, cells);
            }
        }
        self.hosts[from.idx()].charge_overlapped(Op::CellTx, total, cells);
        let segs = self.take_seg_list();
        let copy = self.ops.get(token).and_then(|s| s.copy.as_ref());
        let pdu = copy.expect("checked above").pdu.replicate(segs);
        self.launch(token, time, pdu);
    }

    /// A damaged PDU reached the receiving adapter: AAL5 reassembly
    /// failed, so the PDU is discarded after its cells drained the
    /// buffer (credits still return), and the sender retransmits.
    pub(crate) fn on_arrive_damaged(&mut self, time: SimTime, to: HostId, pdu: InflightPdu) {
        let cells = pdu.cells as usize;
        self.fault.stats.crc_drops += 1;
        {
            let host = self.host_mut(to);
            host.clock = host.clock.max(time);
            if host.tracer.enabled() {
                host.tracer
                    .instant(genie_trace::Track::Events, "aal5.crc_drop", time, cells);
            }
            host.charge_overlapped(Op::CellRx, cells * CELL_PAYLOAD, cells);
        }
        // The damaged cells still drained the receiver's buffers, so
        // the last hop's credits return and wake as in `on_arrive`.
        self.return_hop_credits(time, to, Vc(pdu.vc), cells);
        self.schedule_retransmit(time, pdu.token);
    }

    /// Releases every frame a pressure episode hoarded on `host`.
    pub(crate) fn on_release_hoard(&mut self, host: HostId) {
        let frames = std::mem::take(&mut self.fault.hoard[host.idx()]);
        for f in frames {
            let _ = self.hosts[host.idx()].vm.phys.dealloc(f);
        }
    }

    /// Consulted after every event with an active plan: maybe starts a
    /// memory-pressure episode (pageout storm plus a transient frame
    /// hoard) on one host.
    pub(crate) fn inject_pressure(&mut self, time: SimTime) {
        let Some(p) = self.fault.plan.pressure() else {
            return;
        };
        self.fault.stats.pressure_events += 1;
        let hid = HostId(p.host as u16);
        {
            let tracer = &mut self.hosts[p.host].tracer;
            if tracer.enabled() {
                tracer.instant(
                    genie_trace::Track::Events,
                    "pageout.storm",
                    time,
                    p.pageout_pages,
                );
            }
        }
        // The storm runs the paper's input-disabled daemon, racing any
        // pending DMA input on purpose: pages with input references
        // must be skipped, which the stats (and the oracle) witness.
        if let Ok(st) = self.hosts[p.host]
            .vm
            .pageout_scan(p.pageout_pages, PageoutPolicy::InputDisabled)
        {
            self.fault.stats.pages_stormed_out += st.paged_out as u64;
            self.fault.stats.pageout_skipped_input += st.skipped_input_referenced as u64;
        }
        let free = self.hosts[p.host].vm.phys.free_frames();
        let take = p.hoard_frames.min(free.saturating_sub(HOARD_MARGIN));
        for _ in 0..take {
            if let Ok(f) = self.hosts[p.host].vm.phys.alloc(None) {
                self.fault.hoard[p.host].push(f);
            }
        }
        if take > 0 {
            self.fault.stats.frames_hoarded += take as u64;
            self.events
                .push(time + p.hold, Event::ReleaseHoard { host: hid });
        }
    }

    /// Structural oracle sweep over every host (runs after every event
    /// when the oracle is enabled).
    pub(crate) fn oracle_sweep(&mut self) {
        let Some(mut o) = self.fault.oracle.take() else {
            return;
        };
        for (i, h) in self.hosts.iter().enumerate() {
            o.check_vm(&self.fault.site_names[i], &h.vm);
        }
        self.fault.oracle = Some(o);
    }

    /// Releases held PDUs for `(to, vc)` in gapless sequence order,
    /// delivering each through the normal datapath. A PDU that cannot
    /// be buffered stays held and is retried (then re-requested from
    /// the sender), without advancing the sequence window.
    pub(crate) fn drain_in_order(&mut self, time: SimTime, to: HostId, vc: Vc) {
        loop {
            let next = self.fault.next_seq(to.idx(), vc);
            let Some(HeldPdu { mut pdu, tries }) = self.fault.rx_held[to.idx()]
                .get_mut(u64::from(vc.0))
                .and_then(|q| q.remove(next))
            else {
                return;
            };
            let wire = pdu.wire.take().expect("held PDUs are intact");
            let Err(wire) = self.deliver_pdu(to, vc, wire, pdu.sent_at) else {
                self.fault.rx_next_seq[to.idx()].insert(u64::from(vc.0), next + 1);
                self.drop_copy(pdu.token);
                continue;
            };
            // Out of buffering: the sequence window stays put so later
            // PDUs keep waiting behind this one.
            self.fault.stats.buffer_drops += 1;
            let tries = tries + 1;
            if tries > MAX_REDELIVER_TRIES {
                self.recycle_pdu(wire);
                self.schedule_retransmit(time, pdu.token);
            } else {
                pdu.wire = Some(wire);
                let held = HeldPdu { pdu, tries };
                self.fault.hold_queue_mut(to.idx(), vc).insert(held);
                self.events
                    .push(time + SimTime::from_us(100.0), Event::Redeliver { to, vc });
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
    use genie_fault::FaultConfig;
    use genie_net::Vc;

    /// A delay-only faulted run is a pure reorder burst: PDUs overtake
    /// one another on the wire, the receiver holds out-of-order
    /// arrivals, and every one is eventually released in sequence
    /// order. This pins the hold-queue depth distribution for a fixed
    /// seed, so a regression in the hold/drain bookkeeping (double
    /// holds, missed drains, a depth recorded against the wrong
    /// queue) shows up as a changed histogram even when delivery
    /// still happens to succeed.
    #[test]
    fn reorder_burst_hold_depths_are_pinned() {
        const N: usize = 24;
        const BYTES: usize = 256;
        let cfg = WorldConfig {
            frames_per_host: 512,
            fault: FaultConfig {
                seed: 34,
                pdu_delay_per_mille: 1_000,
                max_faults: 64,
                ..FaultConfig::none()
            },
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        for _ in 0..N {
            w.input(
                HostId::B,
                InputRequest::system(Semantics::Move, Vc(1), rx, BYTES),
            )
            .expect("input");
        }
        for i in 0..N {
            let data: Vec<u8> = (0..BYTES).map(|b| (b + i) as u8).collect();
            let (_r, src) = w
                .host_mut(HostId::A)
                .alloc_io_buffer(tx, BYTES)
                .expect("alloc io");
            w.app_write(HostId::A, tx, src, &data).expect("write");
            w.output(
                HostId::A,
                OutputRequest::new(Semantics::Move, Vc(1), tx, src, BYTES),
            )
            .expect("output");
        }
        w.run();

        // Every datagram is delivered, in sequence order, intact.
        let done = w.take_completed_inputs();
        assert_eq!(done.len(), N, "all datagrams delivered");
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.len, BYTES);
            let got = w.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
            let want: Vec<u8> = (0..BYTES).map(|b| (b + i) as u8).collect();
            assert_eq!(got, want, "datagram {i} out of order or corrupted");
        }

        // The burst actually reordered, and the hold queue drained.
        assert_eq!(w.fault.stats.held_for_reorder, 17);
        let drained = w
            .fault
            .hold_queue(HostId::B.idx(), Vc(1))
            .is_none_or(|q| q.len() == 0);
        assert!(drained, "hold queue must drain completely");

        // The depth distribution under this seed: one sample per held
        // PDU (24 holds), total depth-at-hold 99, deepest queue 7.
        let h = &w.fault.hold_depth;
        assert_eq!(
            (h.count(), h.sum(), h.max()),
            (24, 99, 7),
            "hold-queue depth histogram drifted"
        );
    }

    /// The same reorder burst with the hold queue capped at 3: deep
    /// arrivals spill (counted, recycled, re-requested) instead of
    /// growing the queue, and retransmission still delivers every
    /// datagram intact and in order — the cap bounds receiver reorder
    /// memory without changing what the application sees.
    #[test]
    fn hold_cap_spills_bound_reorder_memory() {
        const N: usize = 24;
        const BYTES: usize = 256;
        const CAP: usize = 3;
        let cfg = WorldConfig {
            frames_per_host: 512,
            fault: FaultConfig {
                seed: 34,
                pdu_delay_per_mille: 1_000,
                max_faults: 64,
                ..FaultConfig::none()
            },
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        w.fault.hold_cap = CAP;
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        for _ in 0..N {
            w.input(
                HostId::B,
                InputRequest::system(Semantics::Move, Vc(1), rx, BYTES),
            )
            .expect("input");
        }
        for i in 0..N {
            let data: Vec<u8> = (0..BYTES).map(|b| (b + i) as u8).collect();
            let (_r, src) = w
                .host_mut(HostId::A)
                .alloc_io_buffer(tx, BYTES)
                .expect("alloc io");
            w.app_write(HostId::A, tx, src, &data).expect("write");
            w.output(
                HostId::A,
                OutputRequest::new(Semantics::Move, Vc(1), tx, src, BYTES),
            )
            .expect("output");
        }
        w.run();

        let done = w.take_completed_inputs();
        assert_eq!(done.len(), N, "all datagrams delivered despite spills");
        for (i, c) in done.iter().enumerate() {
            let got = w.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
            let want: Vec<u8> = (0..BYTES).map(|b| (b + i) as u8).collect();
            assert_eq!(got, want, "datagram {i} out of order or corrupted");
        }
        assert!(
            w.fault.stats.hold_spills > 0,
            "this burst must overflow a 3-deep hold queue"
        );
        // Out-of-order arrivals never push past the cap; only the
        // in-order arrival that unblocks a full queue may transiently
        // sit one above it on its way through.
        assert!(
            w.fault.hold_depth.max() <= CAP as u64 + 1,
            "hold depth {} exceeds cap {CAP} by more than the in-order transient",
            w.fault.hold_depth.max()
        );
    }
}
