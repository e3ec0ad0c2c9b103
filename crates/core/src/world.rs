//! The experiment world: event loop, clocks and plumbing.
//!
//! A [`World`] connects N simulated [`Host`]s — back to back over one
//! ATM link in the paper's two-host configuration
//! ([`Fabric::Passthrough`]), or through an N-port switch with per-hop
//! credit flow control ([`Fabric::Switched`]) — and drives datagram
//! exchanges through the Genie data-passing paths. End-to-end latency
//! emerges from the event timeline exactly as the paper's Section 8
//! breaks it down: sender prepare-time operations are serial before
//! transmission; the wire pipelines DMA and cell transmission;
//! dispose-time operations at the sender overlap network latency; and
//! ready/dispose operations at the receiver run at arrival.

use std::collections::VecDeque;

use genie_machine::{LinkSpec, MachineSpec, Op, SimTime};
use genie_mem::{DenseMap, SlotMap};
use genie_net::{DmaModel, EventQueue, InputBuffering, Switch, SwitchConfig, Vc, WirePdu};
use genie_vm::SpaceId;

use crate::config::GenieConfig;
use crate::error::GenieError;
use crate::faults::Inflight;
use crate::host::Host;
use crate::input::{PendingRecv, RecvCompletion};
use crate::output::{PendingSend, SendCompletion};

/// A host's index in the world (also its switch port number).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u16);

impl HostId {
    /// First host (the usual sender in two-host experiments).
    pub const A: HostId = HostId(0);
    /// Second host (the usual receiver in two-host experiments).
    pub const B: HostId = HostId(1);

    /// Index into the host table.
    pub fn idx(self) -> usize {
        usize::from(self.0)
    }

    /// The other host of a two-host world: the passthrough fabric's
    /// route, where exactly two hosts exist (switched worlds route
    /// through the switch instead; see `World::route_dst`).
    pub fn peer(self) -> HostId {
        HostId(self.0 ^ 1)
    }
}

/// The network fabric connecting the hosts.
#[derive(Clone, Debug)]
pub enum Fabric {
    /// Two hosts wired back to back (the paper's configuration).
    /// Requires exactly two hosts.
    Passthrough,
    /// N hosts behind a store-and-forward switch with per-hop credit
    /// flow control; the switch must have one port per host.
    Switched(SwitchConfig),
}

/// Configuration of a world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Machine spec of host A.
    pub machine_a: MachineSpec,
    /// Machine spec of host B.
    pub machine_b: MachineSpec,
    /// Machine specs of hosts 2.. (beyond the paper's two).
    pub extra_machines: Vec<MachineSpec>,
    /// How the hosts are wired together.
    pub fabric: Fabric,
    /// The link between them.
    pub link: LinkSpec,
    /// Receive-side input buffering architecture (both hosts).
    pub rx_buffering: InputBuffering,
    /// Genie framework parameters.
    pub genie: GenieConfig,
    /// Physical frames per host.
    pub frames_per_host: usize,
    /// Per-VC credit limit in cells.
    pub credit_limit: u32,
    /// Fault-injection plan ([`genie_fault::FaultConfig::NONE`] keeps
    /// the world fault-free and byte-identical to a build without the
    /// fault subsystem).
    pub fault: genie_fault::FaultConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        let m = MachineSpec::micron_p166();
        WorldConfig {
            machine_a: m.clone(),
            machine_b: m,
            extra_machines: Vec::new(),
            fabric: Fabric::Passthrough,
            link: LinkSpec::oc3(),
            rx_buffering: InputBuffering::EarlyDemux,
            genie: GenieConfig::default(),
            frames_per_host: 6144,
            credit_limit: 4096,
            fault: genie_fault::FaultConfig::NONE,
        }
    }
}

impl WorldConfig {
    /// Same machine on both hosts.
    pub fn homogeneous(machine: MachineSpec) -> Self {
        WorldConfig {
            machine_a: machine.clone(),
            machine_b: machine,
            ..WorldConfig::default()
        }
    }

    /// `n` identical hosts behind a switch (one port per host).
    pub fn switched(machine: MachineSpec, n: usize, switch: SwitchConfig) -> Self {
        assert!(n >= 2, "a switched world needs at least two hosts");
        assert_eq!(
            switch.ports as usize, n,
            "switch must have one port per host"
        );
        WorldConfig {
            machine_a: machine.clone(),
            machine_b: machine.clone(),
            extra_machines: vec![machine; n - 2],
            fabric: Fabric::Switched(switch),
            ..WorldConfig::default()
        }
    }

    /// Number of hosts this configuration builds.
    pub fn n_hosts(&self) -> usize {
        2 + self.extra_machines.len()
    }
}

/// Events of the simulation.
#[derive(Debug)]
pub(crate) enum Event {
    /// The sender's adapter starts reading the PDU from memory.
    Transmit { token: u64 },
    /// Transmit-side DMA finished: run the sender's dispose stage.
    TxDone { token: u64 },
    /// A PDU reached the receiving adapter. An intact PDU travels the
    /// wire as one contiguous [`WirePdu`] — cell count and AAL5
    /// trailer are metadata; 48-byte cells are never materialized on
    /// this fast path.
    Arrive {
        to: HostId,
        vc: Vc,
        /// The intact wire image, or `None` for a damaged PDU (AAL5
        /// reassembly fails at the adapter; only raised by an active
        /// fault plan).
        pdu: Option<WirePdu>,
        cells: usize,
        sent_at: SimTime,
        token: u64,
    },
    /// Resend a PDU from the sender's retransmit buffer.
    Retransmit { token: u64 },
    /// End of a credit-starvation episode: give the cells back.
    RestoreCredits { host: HostId, vc: Vc, cells: u32 },
    /// End of a memory-pressure episode: free the hoarded frames.
    ReleaseHoard { host: HostId },
    /// Retry delivering held in-order PDUs that ran out of buffering.
    Redeliver { to: HostId, vc: Vc },
    /// A PDU (or damaged-PDU marker) reached the switch on its ingress
    /// hop; only raised by switched fabrics.
    SwitchIngress {
        from: HostId,
        vc: Vc,
        /// The intact wire image, or `None` for a damaged marker.
        pdu: Option<WirePdu>,
        cells: usize,
        total: usize,
        sent_at: SimTime,
        token: u64,
        /// Per-VC sequence number (flow identity for sampling).
        seq: u32,
    },
    /// Dispatch the head of a switch output port's FIFO (port index ==
    /// destination host index); only raised by switched fabrics.
    PortDrain { port: u16 },
}

/// A PDU that arrived before any matching input was posted
/// (unsolicited input, buffered per Section 6.2.2's pooled fallback or
/// in outboard memory).
#[derive(Debug)]
pub(crate) struct BackloggedPdu {
    pub placed: crate::input::PlacedPayload,
    pub sent_at: SimTime,
}

/// One output operation's arena slot: the pending send (alive until
/// the dispose stage) and, under an active fault plan, the adapter's
/// retransmit buffer (alive until in-order delivery at the peer). The
/// output token is the slot's generational key; the slot is freed only
/// once both halves are gone, so a late event naming the token (a
/// backed-off retransmit timer, a stale transmit wakeup) resolves to
/// nothing instead of aliasing a reused slot.
#[derive(Debug)]
pub(crate) struct OpSlot {
    pub send: Option<PendingSend>,
    pub inflight: Option<Inflight>,
}

/// Per-host, per-VC queue tables, outer-indexed by host and
/// flat-indexed by VC number (the experiments use small VC numbers, so
/// the tables stay compact).
pub(crate) type VcQueues<T> = Vec<DenseMap<VecDeque<T>>>;

/// The simulation world.
#[derive(Debug)]
pub struct World {
    pub(crate) hosts: Vec<Host>,
    /// The switch's queues, credits and routing table; `None` wires
    /// two hosts back to back, routed by [`HostId::peer`].
    pub(crate) switch: Option<Switch>,
    pub(crate) link: LinkSpec,
    pub(crate) dma: DmaModel,
    pub(crate) cfg: GenieConfig,
    pub(crate) rx_mode: InputBuffering,
    /// Pending events; same-instant ties pop in push order.
    pub(crate) events: EventQueue<Event>,
    /// In-flight output operations; tokens are the arena's
    /// generational keys (all `>= 1 << 32`, disjoint from the small
    /// counter tokens input operations use).
    pub(crate) ops: SlotMap<OpSlot>,
    pub(crate) recvs: VcQueues<PendingRecv>,
    pub(crate) backlog: VcQueues<BackloggedPdu>,
    pub(crate) done_recvs: Vec<RecvCompletion>,
    pub(crate) done_sends: Vec<SendCompletion>,
    /// Token counter for input operations (outputs use arena keys).
    pub(crate) next_token: u64,
    pub(crate) seq: DenseMap<u32>,
    /// Wire occupancy of each host's transmit link (indexed by
    /// sender), serializing transmissions so pipelined streams contend
    /// for the link. In a switched fabric this is the host-to-switch
    /// hop; the switch-to-host hop is serialized per output port.
    pub(crate) link_busy_until: Vec<SimTime>,
    /// Per-(sender, VC) transmit FIFO: a credit-stalled PDU blocks the
    /// head of its VC's line so delivery order is preserved.
    pub(crate) txq: VcQueues<u64>,
    /// Recycled PDU payload buffers: transmit gathers into one of
    /// these, arrival returns it, so steady-state traffic allocates no
    /// per-datagram payload Vec.
    pub(crate) spare_payloads: Vec<Vec<u8>>,
    /// Scratch cell storage for the slow path (fault damage and the
    /// forced cell path), reused across PDUs.
    pub(crate) scratch_cells: Vec<genie_net::Cell>,
    /// When set, every transmitted PDU is round-tripped through the
    /// materialized cell codec (segment + reassemble) before arrival.
    /// Pure byte shuffling — no charges — so it must be observationally
    /// identical to the fast path; equivalence tests flip this on.
    pub(crate) force_cells: bool,
    /// Fault-injection plan, counters, oracle and recovery state.
    pub(crate) fault: crate::faults::FaultState,
    /// World-level tracer for link occupancy (per-host work is traced
    /// by each host's own tracer).
    pub(crate) wire_tracer: genie_trace::Tracer,
    /// End-to-end delivery latency per VC (nanoseconds), recorded at
    /// input completion while tracing — the raw material for the
    /// per-VC rollups. BTreeMap so iteration (and the metrics JSON) is
    /// deterministic.
    pub(crate) vc_latency: std::collections::BTreeMap<u32, genie_trace::metrics::Histogram>,
    /// Completion-ring occupancy per host, sampled by `cq::harvest`
    /// while tracing — the raw material for the `cq_*.depth` series
    /// and `rollup.cq` aggregates.
    pub(crate) cq_depth: std::collections::BTreeMap<u16, genie_trace::metrics::Histogram>,
    /// Adaptive in-flight-window size per host, sampled alongside
    /// `cq_depth`.
    pub(crate) cq_window: std::collections::BTreeMap<u16, genie_trace::metrics::Histogram>,
    /// Whether a crash dump was already written for this world (one
    /// dump per run: the first violation is the interesting one).
    pub(crate) crash_dumped: bool,
    /// High-water mark of queued events, sampled at every pop.
    pub(crate) peak_resident: usize,
}

impl World {
    /// Builds a world from a configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        let mk = |m: MachineSpec| {
            Host::new(
                m,
                cfg.frames_per_host,
                cfg.rx_buffering,
                cfg.credit_limit,
                cfg.genie.overlay_pool_pages,
            )
        };
        let n = cfg.n_hosts();
        let mut hosts = Vec::with_capacity(n);
        hosts.push(mk(cfg.machine_a.clone()));
        hosts.push(mk(cfg.machine_b.clone()));
        for m in &cfg.extra_machines {
            hosts.push(mk(m.clone()));
        }
        let switch = match &cfg.fabric {
            Fabric::Passthrough => {
                assert_eq!(n, 2, "the passthrough fabric wires exactly two hosts");
                None
            }
            Fabric::Switched(sc) => {
                assert_eq!(
                    sc.ports as usize, n,
                    "switch must have one port per host ({n} hosts)"
                );
                // The retransmit machinery assumes one destination per
                // in-flight PDU; fan-out suites run fault-free.
                assert!(
                    !(sc.has_multicast() && cfg.fault.active()),
                    "multicast routes require a fault-free world"
                );
                Some(Switch::new(sc))
            }
        };
        World {
            hosts,
            switch,
            link: cfg.link.clone(),
            dma: DmaModel::pci32(),
            cfg: cfg.genie,
            rx_mode: cfg.rx_buffering,
            events: EventQueue::new(),
            ops: SlotMap::new(),
            recvs: (0..n).map(|_| DenseMap::new()).collect(),
            backlog: (0..n).map(|_| DenseMap::new()).collect(),
            done_recvs: Vec::new(),
            done_sends: Vec::new(),
            next_token: 1,
            seq: DenseMap::new(),
            link_busy_until: vec![SimTime::ZERO; n],
            txq: (0..n).map(|_| DenseMap::new()).collect(),
            spare_payloads: Vec::new(),
            scratch_cells: Vec::new(),
            force_cells: false,
            fault: crate::faults::FaultState::new(cfg.fault, n),
            wire_tracer: genie_trace::Tracer::new(),
            vc_latency: std::collections::BTreeMap::new(),
            cq_depth: std::collections::BTreeMap::new(),
            cq_window: std::collections::BTreeMap::new(),
            crash_dumped: false,
            peak_resident: 0,
        }
    }

    /// The intra-world shard count: always 0, the serial event loop.
    /// Sharding was removed (it ran slower than the serial loop); the
    /// constant remains so run stamps keep their `effective_shards`
    /// field.
    pub fn effective_shards(&self) -> usize {
        0
    }

    /// Number of hosts in this world.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Whether this world runs a switched fabric.
    pub fn is_switched(&self) -> bool {
        self.switch.is_some()
    }

    /// The switch's aggregate counters (`None` in passthrough worlds).
    pub fn switch_stats(&self) -> Option<genie_net::SwitchStats> {
        self.switch.as_ref().map(Switch::stats)
    }

    /// Shared access to the switch (`None` in passthrough worlds);
    /// property tests inspect queues and credit ledgers through this.
    pub fn switch(&self) -> Option<&Switch> {
        self.switch.as_ref()
    }

    /// The unicast destination of traffic from `from` on `vc`. In the
    /// passthrough fabric the route is the wire itself (`0 <-> 1`); in
    /// a switched fabric it is the first routing-table entry.
    pub fn route_dst(&self, from: HostId, vc: Vc) -> HostId {
        let Some(sw) = &self.switch else {
            return from.peer();
        };
        let dsts = sw.route(from.0, vc.0);
        assert!(!dsts.is_empty(), "no route from host {} on {vc:?}", from.0);
        HostId(dsts[0])
    }

    /// Takes a cleared payload buffer from the spare pool (or
    /// allocates one).
    pub(crate) fn take_payload_buf(&mut self) -> Vec<u8> {
        let mut buf = self.spare_payloads.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a payload buffer to the spare pool. The cap only
    /// matters to pipelined experiments with many PDUs in flight; the
    /// latency ping-pongs keep one or two buffers circulating.
    pub(crate) fn recycle_payload(&mut self, buf: Vec<u8>) {
        if self.spare_payloads.len() < 32 && buf.capacity() > 0 {
            self.spare_payloads.push(buf);
        }
    }

    /// Returns a consumed wire PDU's payload storage to the spare pool.
    pub(crate) fn recycle_pdu(&mut self, pdu: WirePdu) {
        self.recycle_payload(pdu.into_payload());
    }

    /// Forces every transmission through the materialized cell codec
    /// (the slow path) instead of the contiguous fast path. Charges are
    /// unaffected, so simulated behavior must be identical; equivalence
    /// tests use this to check the fast path against the cell codec.
    pub fn set_force_cell_path(&mut self, on: bool) {
        self.force_cells = on;
    }

    /// Slow-path round trip: segments `pdu` into real cells and
    /// reassembles them into a pooled buffer, returning the rebuilt
    /// PDU. Byte shuffling only — no simulated charges.
    pub(crate) fn roundtrip_through_cells(&mut self, pdu: WirePdu) -> WirePdu {
        let mut cells = std::mem::take(&mut self.scratch_cells);
        pdu.materialize_into(&mut cells);
        let mut bytes = self.take_payload_buf();
        genie_net::reassemble_into(&cells, &mut bytes).expect("materialized cells must reassemble");
        cells.clear();
        self.scratch_cells = cells;
        let rebuilt = WirePdu::new(pdu.vc(), bytes);
        debug_assert_eq!(rebuilt, pdu, "cell codec round trip changed the PDU");
        self.recycle_pdu(pdu);
        rebuilt
    }

    /// Shared access to a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.idx()]
    }

    /// Mutable access to a host.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.idx()]
    }

    /// The Genie configuration.
    pub fn config(&self) -> &GenieConfig {
        &self.cfg
    }

    /// The link specification.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// Creates a process on a host.
    pub fn create_process(&mut self, host: HostId) -> SpaceId {
        self.host_mut(host).create_process()
    }

    /// Allocates an application buffer (see [`Host::alloc_buffer`]).
    pub fn alloc_buffer(
        &mut self,
        host: HostId,
        space: SpaceId,
        len: usize,
        page_off: usize,
    ) -> Result<u64, GenieError> {
        self.host_mut(host).alloc_buffer(space, len, page_off)
    }

    /// Simulates an application write, charging fault-resolution costs
    /// (TCOW copies etc.) to the host.
    pub fn app_write(
        &mut self,
        host: HostId,
        space: SpaceId,
        vaddr: u64,
        data: &[u8],
    ) -> Result<Vec<genie_vm::FaultOutcome>, GenieError> {
        let page = self.host(host).page_size();
        let h = self.host_mut(host);
        let faults = h.vm.write_app(space, vaddr, data)?;
        for f in &faults {
            h.charge_latency(Op::Fault, 0, 0);
            if f.copied() {
                h.charge_latency(Op::PageCopy, page, 1);
            }
        }
        Ok(faults)
    }

    /// Simulates an application read.
    pub fn read_app(
        &mut self,
        host: HostId,
        space: SpaceId,
        vaddr: u64,
        len: usize,
    ) -> Result<Vec<u8>, GenieError> {
        let h = self.host_mut(host);
        let (data, faults) = h.vm.read_app(space, vaddr, len)?;
        for _ in &faults {
            h.charge_latency(Op::Fault, 0, 0);
        }
        Ok(data)
    }

    /// Compares `expected` against the application's view of `vaddr`
    /// in place — the integrity check of every measured exchange.
    /// Fault charges match [`World::read_app`] on the matching path;
    /// no copy of the buffer is materialized.
    pub fn app_matches(
        &mut self,
        host: HostId,
        space: SpaceId,
        vaddr: u64,
        expected: &[u8],
    ) -> Result<bool, GenieError> {
        let h = self.host_mut(host);
        let (ok, faults) = h.vm.app_matches(space, vaddr, expected)?;
        for _ in &faults {
            h.charge_latency(Op::Fault, 0, 0);
        }
        Ok(ok)
    }

    /// Next sequence number on a VC.
    pub(crate) fn next_seq(&mut self, vc: Vc) -> u32 {
        let s = self.seq.get_or_insert_with(u64::from(vc.0), || 0);
        let cur = *s;
        *s += 1;
        cur
    }

    /// Fresh correlation token for an input operation. Always below
    /// `1 << 32`, so it can never collide with an output token.
    pub(crate) fn take_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        debug_assert!(t < 1 << 32, "input token counter ran into arena keys");
        t
    }

    /// The pending send for an output token, if it has not yet been
    /// disposed (stale tokens resolve to `None`).
    pub(crate) fn send(&self, token: u64) -> Option<&PendingSend> {
        self.ops.get(token)?.send.as_ref()
    }

    /// Mutable access to the pending send for an output token.
    pub(crate) fn send_mut(&mut self, token: u64) -> Option<&mut PendingSend> {
        self.ops.get_mut(token)?.send.as_mut()
    }

    /// Removes the pending send at dispose time, freeing the slot
    /// unless a retransmit buffer is still holding it open.
    pub(crate) fn take_send(&mut self, token: u64) -> Option<PendingSend> {
        let slot = self.ops.get_mut(token)?;
        let send = slot.send.take();
        if slot.inflight.is_none() {
            self.ops.remove(token);
        }
        send
    }

    /// Whether an output token has a retransmit buffer attached.
    pub(crate) fn has_inflight(&self, token: u64) -> bool {
        self.ops.get(token).is_some_and(|s| s.inflight.is_some())
    }

    /// Mutable access to the retransmit buffer for an output token.
    pub(crate) fn inflight_mut(&mut self, token: u64) -> Option<&mut Inflight> {
        self.ops.get_mut(token)?.inflight.as_mut()
    }

    /// Attaches a retransmit buffer to a live output token.
    pub(crate) fn set_inflight(&mut self, token: u64, inf: Inflight) {
        let slot = self.ops.get_mut(token).expect("live output token");
        debug_assert!(slot.inflight.is_none());
        slot.inflight = Some(inf);
    }

    /// Takes the retransmit buffer out *keeping the slot alive*; the
    /// caller must put it back with [`World::restore_inflight`]. Used
    /// where the buffer's bytes are borrowed across `&mut self` calls.
    pub(crate) fn borrow_inflight(&mut self, token: u64) -> Option<Inflight> {
        self.ops.get_mut(token)?.inflight.take()
    }

    /// Puts back a buffer taken with [`World::borrow_inflight`].
    pub(crate) fn restore_inflight(&mut self, token: u64, inf: Inflight) {
        let slot = self.ops.get_mut(token).expect("borrowed slot stays live");
        slot.inflight = Some(inf);
    }

    /// Drops the retransmit buffer for good (delivery or abandonment),
    /// freeing the slot if the send half is already disposed. Returns
    /// the buffer so the caller can recycle its storage.
    pub(crate) fn clear_inflight(&mut self, token: u64) -> Option<Inflight> {
        let slot = self.ops.get_mut(token)?;
        let inf = slot.inflight.take();
        if inf.is_some() && slot.send.is_none() {
            self.ops.remove(token);
        }
        inf
    }

    /// Dispatches one popped event to its handler.
    fn dispatch_event(&mut self, time: SimTime, ev: Event) {
        match ev {
            Event::Transmit { token } => self.on_transmit(time, token),
            Event::TxDone { token } => self.on_tx_done(time, token),
            Event::Arrive {
                to,
                vc,
                pdu,
                cells,
                sent_at,
                token,
            } => match pdu {
                Some(pdu) => self.on_arrive(time, to, vc, pdu, sent_at, token),
                None => self.on_arrive_damaged(time, to, vc, token, cells),
            },
            Event::Retransmit { token } => self.on_retransmit(time, token),
            Event::RestoreCredits { host, vc, cells } => {
                self.on_restore_credits(time, host, vc, cells);
            }
            Event::ReleaseHoard { host } => self.on_release_hoard(host),
            Event::Redeliver { to, vc } => self.drain_in_order(time, to, vc),
            Event::SwitchIngress {
                from,
                vc,
                pdu,
                cells,
                total,
                sent_at,
                token,
                seq,
            } => self.on_switch_ingress(time, from, vc, pdu, cells, total, sent_at, token, seq),
            Event::PortDrain { port } => self.on_port_drain(time, port),
        }
    }

    /// Runs the event loop to quiescence: events pop in time order,
    /// same-instant ties in push order.
    pub fn run(&mut self) {
        while let Some((time, ev)) = self.events.pop() {
            self.peak_resident = self.peak_resident.max(self.events.len() + 1);
            self.dispatch_event(time, ev);
            if self.fault.plan.active() {
                self.inject_pressure(time);
            }
            if self.fault.oracle.is_some() {
                self.oracle_sweep();
                self.maybe_crash_dump(time);
            }
        }
        // Liveness: only credit-return wakes restart a blocked port.
        if let Some(sw) = &self.switch {
            debug_assert!(
                (0..sw.ports()).all(|port| sw.queue_len(port) == 0),
                "run quiesced with PDUs stranded in a switch output FIFO"
            );
        }
    }

    /// High-water mark of queued events (the one being handled
    /// included) over this world's runs so far.
    pub fn peak_resident_events(&self) -> usize {
        self.peak_resident
    }

    /// Releases process-level scratch memory accumulated by large
    /// runs: payload buffers beyond `keep`, the cell scratch vector,
    /// and this thread's recycled page storage beyond `keep` pages per
    /// size class. Simulated state (host overlay pools, frames,
    /// queues) is untouched — trimming only changes the process's
    /// resident footprint, never a simulated number. Returns how many
    /// allocations were released.
    pub fn trim_pools(&mut self, keep: usize) -> usize {
        let mut freed = 0;
        if self.spare_payloads.len() > keep {
            freed += self.spare_payloads.len() - keep;
            self.spare_payloads.truncate(keep);
            self.spare_payloads.shrink_to_fit();
        }
        if self.scratch_cells.capacity() > 0 {
            freed += 1;
            self.scratch_cells = Vec::new();
        }
        freed + genie_mem::trim_page_storage(keep)
    }

    /// Drains completed input operations.
    pub fn take_completed_inputs(&mut self) -> Vec<RecvCompletion> {
        std::mem::take(&mut self.done_recvs)
    }

    /// Drains completed output operations.
    pub fn take_completed_outputs(&mut self) -> Vec<SendCompletion> {
        std::mem::take(&mut self.done_sends)
    }

    /// The preferred alignment and length granularity for application
    /// input buffers on this connection — the paper's Section 5.2
    /// query interface. Allocating the buffer `offset` bytes into a
    /// page (and in multiples of `granularity`) lets the receiver pass
    /// data by page swapping instead of copying.
    ///
    /// The preferred offset is nonzero with pooled buffering because
    /// the PDU's unstripped header lands at the start of the first
    /// overlay page; with early demultiplexing the *system* aligns its
    /// buffers to the application's, so any alignment works.
    ///
    /// The answer is per connection: it depends on the *queried host's*
    /// adapter mode and page size (the two hosts may differ), and with
    /// early demultiplexing on whether the VC already has backlogged
    /// unsolicited data — that data sat in pooled overlay pages, so the
    /// next posted buffer only swap-delivers if pool-aligned.
    pub fn preferred_alignment(&self, host: HostId, vc: genie_net::Vc) -> (usize, usize) {
        let h = &self.hosts[host.idx()];
        let page = h.page_size();
        let pooled = (genie_net::HEADER_LEN % page, page);
        match h.adapter.mode() {
            InputBuffering::Outboard => (0, 1),
            InputBuffering::Pooled => pooled,
            InputBuffering::EarlyDemux => {
                let backlogged = self.backlog[host.idx()]
                    .get(u64::from(vc.0))
                    .is_some_and(|q| !q.is_empty());
                if backlogged {
                    pooled
                } else {
                    (0, 1)
                }
            }
        }
    }

    /// Lets every host go idle: advances all clocks to the latest.
    /// Experiments call this between measured exchanges so one
    /// datagram's dispose work never delays the next measurement (the
    /// paper measures isolated runs).
    pub fn quiesce(&mut self) {
        let t = self
            .hosts
            .iter()
            .map(|h| h.clock)
            .max()
            .unwrap_or(SimTime::ZERO);
        for h in &mut self.hosts {
            h.clock = t;
        }
    }

    /// Global simulated time (max of host clocks and pending events).
    pub fn now(&self) -> SimTime {
        let h = self
            .hosts
            .iter()
            .map(|h| h.clock)
            .max()
            .unwrap_or(SimTime::ZERO);
        match self.events.peek_time() {
            Some(t) => h.max(t),
            None => h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ids() {
        assert_eq!(HostId::A.peer(), HostId::B);
        assert_eq!(HostId::B.peer(), HostId::A);
        assert_eq!(HostId::A.idx(), 0);
        assert_eq!(HostId::B.idx(), 1);
        assert_eq!(HostId(7).idx(), 7);
    }

    #[test]
    fn passthrough_routes_between_the_two_hosts() {
        let w = World::new(WorldConfig::default());
        assert_eq!(w.n_hosts(), 2);
        assert!(!w.is_switched());
        assert_eq!(w.route_dst(HostId::A, Vc(1)), HostId::B);
        assert_eq!(w.route_dst(HostId::B, Vc(9)), HostId::A);
    }

    #[test]
    fn switched_world_builds_n_hosts_and_routes() {
        let sw = genie_net::SwitchConfig::new(4, 256)
            .route(0, 1, &[3])
            .route(3, 2, &[0]);
        let w = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 4, sw));
        assert_eq!(w.n_hosts(), 4);
        assert!(w.is_switched());
        assert_eq!(w.route_dst(HostId(0), Vc(1)), HostId(3));
        assert_eq!(w.route_dst(HostId(3), Vc(2)), HostId(0));
        assert_eq!(w.switch_stats().unwrap().pdus_ingress, 0);
    }

    #[test]
    #[should_panic(expected = "exactly two hosts")]
    fn passthrough_rejects_extra_hosts() {
        let _ = World::new(WorldConfig {
            extra_machines: vec![MachineSpec::micron_p166()],
            ..WorldConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "fault-free")]
    fn multicast_routes_reject_fault_plans() {
        let sw = genie_net::SwitchConfig::new(3, 256).route(0, 1, &[1, 2]);
        let mut cfg = WorldConfig::switched(MachineSpec::micron_p166(), 3, sw);
        cfg.fault = genie_fault::FaultConfig::swarm(1);
        let _ = World::new(cfg);
    }

    #[test]
    fn events_stay_small() {
        // Every queued event pays for the largest variant. A damaged
        // PDU rides in the niche of `Option<WirePdu>`, so it costs no
        // variant of its own.
        let size = std::mem::size_of::<Event>();
        assert!(size <= 96, "Event grew to {size} bytes");
    }

    #[test]
    fn world_builds_with_defaults() {
        let w = World::new(WorldConfig::default());
        assert_eq!(w.host(HostId::A).page_size(), 4096);
        assert_eq!(w.now(), SimTime::ZERO);
    }

    #[test]
    fn app_write_charges_fault_costs() {
        let mut w = World::new(WorldConfig::default());
        let s = w.create_process(HostId::A);
        let va = w.alloc_buffer(HostId::A, s, 4096, 0).unwrap();
        let before = w.host(HostId::A).clock;
        w.app_write(HostId::A, s, va, b"x").unwrap();
        assert!(w.host(HostId::A).clock > before);
    }

    #[test]
    fn sequence_numbers_are_per_vc() {
        let mut w = World::new(WorldConfig::default());
        assert_eq!(w.next_seq(Vc(1)), 0);
        assert_eq!(w.next_seq(Vc(1)), 1);
        assert_eq!(w.next_seq(Vc(2)), 0);
    }

    #[test]
    fn preferred_alignment_pins_each_buffering_mode() {
        for (mode, want) in [
            (InputBuffering::EarlyDemux, (0, 1)),
            (InputBuffering::Pooled, (genie_net::HEADER_LEN, 4096)),
            (InputBuffering::Outboard, (0, 1)),
        ] {
            let w = World::new(WorldConfig {
                rx_buffering: mode,
                ..WorldConfig::default()
            });
            assert_eq!(w.preferred_alignment(HostId::A, Vc(1)), want, "{mode:?}");
            assert_eq!(w.preferred_alignment(HostId::B, Vc(1)), want, "{mode:?}");
        }
    }

    #[test]
    fn preferred_alignment_uses_the_queried_hosts_page_size() {
        // Heterogeneous hosts: the answer must reflect the queried
        // host's page size, not always host A's.
        let w = World::new(WorldConfig {
            machine_a: MachineSpec::micron_p166(),
            machine_b: MachineSpec::alphastation_255(),
            rx_buffering: InputBuffering::Pooled,
            ..WorldConfig::default()
        });
        let hdr = genie_net::HEADER_LEN;
        assert_eq!(w.preferred_alignment(HostId::A, Vc(1)), (hdr, 4096));
        assert_eq!(w.preferred_alignment(HostId::B, Vc(1)), (hdr, 8192));
    }

    #[test]
    fn preferred_alignment_sees_backlogged_vcs_under_early_demux() {
        let mut w = World::new(WorldConfig::default()); // early demux
        assert_eq!(w.preferred_alignment(HostId::B, Vc(7)), (0, 1));
        // Unsolicited data on this VC sits in pooled overlay pages, so
        // a buffer posted now only swap-delivers if pool-aligned.
        w.backlog[HostId::B.idx()]
            .get_or_insert_with(7, VecDeque::new)
            .push_back(BackloggedPdu {
                placed: crate::input::PlacedPayload::Outboard(0),
                sent_at: SimTime::ZERO,
            });
        let hdr = genie_net::HEADER_LEN;
        assert_eq!(w.preferred_alignment(HostId::B, Vc(7)), (hdr, 4096));
        assert_eq!(
            w.preferred_alignment(HostId::B, Vc(8)),
            (0, 1),
            "other VCs unaffected"
        );
        assert_eq!(
            w.preferred_alignment(HostId::A, Vc(7)),
            (0, 1),
            "other host unaffected"
        );
    }
}
