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

use genie_machine::{LinkSpec, MachineSpec, SimTime};
use genie_mem::{DenseMap, PageSlice, SlotMap};
use genie_net::{
    DmaModel, EventQueue, InflightPdu, InputBuffering, Switch, SwitchConfig, Vc, WirePdu,
};
use genie_vm::SpaceId;

use crate::config::GenieConfig;
use crate::error::{ConfigError, GenieError};
use crate::faults::RetransmitCopy;
use crate::host::Host;
use crate::input::{InputRequest, PendingRecv, RecvCompletion};
use crate::output::{PendingSend, SendCompletion};
use crate::semantics::{Allocation, Semantics};

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
    /// Machine spec of each host: host `i` runs `machines[i]` (the
    /// paper's two are hosts A and B).
    pub machines: Vec<MachineSpec>,
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
        WorldConfig {
            machines: vec![MachineSpec::micron_p166(); 2],
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
    /// `n` identical hosts behind a switch with one port per host.
    /// [`WorldConfig::validate`] checks the switch against the hosts;
    /// an `n` below two builds two hosts, which a switch of fewer than
    /// two ports then fails.
    pub fn switched(machine: MachineSpec, n: usize, switch: SwitchConfig) -> Self {
        WorldConfig {
            machines: vec![machine; n.max(2)],
            fabric: Fabric::Switched(switch),
            ..WorldConfig::default()
        }
    }

    /// Number of hosts this configuration builds.
    pub fn n_hosts(&self) -> usize {
        self.machines.len()
    }

    /// Checks that [`World::new`] can build this configuration: the
    /// fabric must fit the hosts, every route must name existing ports,
    /// carry a VC that fits the 16-bit datagram header and be the only
    /// one for its (source port, VC), and multicast routes need a
    /// fault-free world.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let hosts = self.n_hosts();
        let sc = match &self.fabric {
            Fabric::Passthrough if hosts != 2 => {
                return Err(ConfigError::PassthroughHosts { hosts })
            }
            Fabric::Passthrough => return Ok(()),
            Fabric::Switched(sc) => sc,
        };
        let ports = sc.ports;
        if ports < 2 {
            return Err(ConfigError::TooFewHosts { ports });
        }
        if usize::from(ports) != hosts {
            return Err(ConfigError::PortCount { ports, hosts });
        }
        let mut seen = std::collections::HashSet::new();
        for r in &sc.routes {
            let (src, vc) = (r.src, r.vc);
            if let Some(&port) = std::iter::once(&src).chain(&r.dsts).find(|&&p| p >= ports) {
                return Err(ConfigError::NoSuchPort {
                    src,
                    vc,
                    port,
                    ports,
                });
            }
            if vc > u32::from(u16::MAX) {
                return Err(ConfigError::VcOutOfRange { src, vc });
            }
            if !seen.insert((src, vc)) {
                return Err(ConfigError::DuplicateRoute { src, vc });
            }
        }
        if sc.has_multicast() && self.fault.active() {
            return Err(ConfigError::MulticastWithFaults);
        }
        Ok(())
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
    /// wire as one [`WirePdu`] of page shares — cell count and AAL5
    /// trailer are metadata; 48-byte cells are never materialized on
    /// this fast path. A damaged one (`wire: None`, only raised by an
    /// active fault plan) fails AAL5 reassembly at the adapter.
    Arrive { to: HostId, pdu: InflightPdu },
    /// Resend a PDU from the sender's retransmit copy.
    Retransmit { token: u64 },
    /// End of a credit-starvation episode: give the cells back.
    RestoreCredits { host: HostId, vc: Vc, cells: u32 },
    /// End of a memory-pressure episode: free the hoarded frames.
    ReleaseHoard { host: HostId },
    /// Retry delivering held in-order PDUs that ran out of buffering.
    Redeliver { to: HostId, vc: Vc },
    /// A PDU (or damaged-PDU marker) reached the switch on its ingress
    /// hop; only raised by switched fabrics.
    SwitchIngress { from: HostId, pdu: InflightPdu },
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

/// One output operation's arena slot: the output's identity, the
/// pending send (alive until the dispose stage) and, under an active
/// fault plan, the adapter's retransmit copy (alive until in-order
/// delivery at the peer). The output token is the slot's generational
/// key; the slot is freed only once both halves are gone, so a late
/// event naming the token (a backed-off retransmit timer, a stale
/// transmit wakeup) resolves to nothing instead of aliasing a reused
/// slot.
#[derive(Debug)]
pub(crate) struct OpSlot {
    pub from: HostId,
    pub vc: Vc,
    pub seq: u32,
    pub invoked_at: SimTime,
    /// The request's correlation tag, echoed in its completion.
    pub user_data: u64,
    pub send: Option<PendingSend>,
    pub copy: Option<RetransmitCopy>,
}

/// Per-host, per-VC queue tables, outer-indexed by host and
/// flat-indexed by VC number (each table spans only the VCs it holds).
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
    /// Recycled wire-image segment lists: transmit gathers page shares
    /// into one of these, delivery returns it, so steady-state traffic
    /// allocates no per-datagram list.
    pub(crate) spare_segs: Vec<Vec<PageSlice>>,
    /// Scratch cell storage for the slow path (fault damage and the
    /// forced cell path), reused across PDUs.
    pub(crate) scratch_cells: Vec<genie_net::Cell>,
    /// Scratch bytes for the slow paths that need a PDU or a buffer
    /// contiguous (cell reassembly, the checksum and oracle gather).
    pub(crate) scratch_bytes: Vec<u8>,
    /// Scratch copy of the route a switch-ingress PDU fans out to,
    /// reused across PDUs.
    pub(crate) scratch_dsts: Vec<u16>,
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
    /// `cq::harvest`'s host → queue-pair index table, rebuilt by every
    /// harvest and kept here only so its storage is reused.
    pub(crate) cq_pairs: Vec<usize>,
    /// Whether a crash dump was already written for this world (one
    /// dump per run: the first violation is the interesting one).
    pub(crate) crash_dumped: bool,
    /// High-water mark of queued events, sampled at every pop.
    pub(crate) peak_resident: usize,
}

impl World {
    /// Builds a world from a configuration.
    ///
    /// # Panics
    ///
    /// If [`WorldConfig::validate`] rejects the configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid world config: {e}");
        }
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
        let hosts: Vec<Host> = cfg.machines.iter().cloned().map(mk).collect();
        let switch = match &cfg.fabric {
            Fabric::Passthrough => None,
            Fabric::Switched(sc) => Some(Switch::new(sc)),
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
            spare_segs: Vec::new(),
            scratch_cells: Vec::new(),
            scratch_bytes: Vec::new(),
            scratch_dsts: Vec::new(),
            force_cells: false,
            fault: crate::faults::FaultState::new(cfg.fault, n),
            wire_tracer: genie_trace::Tracer::new(),
            vc_latency: std::collections::BTreeMap::new(),
            cq_depth: std::collections::BTreeMap::new(),
            cq_pairs: Vec::new(),
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

    /// Takes a cleared segment list from the spare pool (or allocates
    /// one).
    pub(crate) fn take_seg_list(&mut self) -> Vec<PageSlice> {
        self.spare_segs.pop().unwrap_or_default()
    }

    /// Returns a consumed wire PDU's segment list to the spare pool,
    /// dropping its page shares. Every list in circulation came from
    /// [`World::take_seg_list`], so the pool never holds more than the
    /// most PDUs (plus retransmit copies) ever in flight at once: one
    /// or two for a latency ping-pong, a whole wave for a fan-in, whose
    /// next wave then reuses them all.
    pub(crate) fn recycle_pdu(&mut self, pdu: WirePdu) {
        let mut segs = pdu.into_segments();
        if segs.capacity() > 0 {
            segs.clear();
            self.spare_segs.push(segs);
        }
    }

    /// Forces every transmission through the materialized cell codec
    /// (the slow path) instead of the cell-free fast path. Charges are
    /// unaffected, so simulated behavior must be identical; equivalence
    /// tests use this to check the fast path against the cell codec.
    pub fn set_force_cell_path(&mut self, on: bool) {
        self.force_cells = on;
    }

    /// Slow-path round trip: segments `pdu` into real cells and
    /// reassembles them, returning the PDU rebuilt from the reassembled
    /// bytes. Byte shuffling only — no simulated charges.
    pub(crate) fn roundtrip_through_cells(&mut self, pdu: WirePdu) -> WirePdu {
        let mut cells = std::mem::take(&mut self.scratch_cells);
        let mut bytes = std::mem::take(&mut self.scratch_bytes);
        pdu.materialize_into(&mut cells);
        genie_net::reassemble_into(&cells, &mut bytes).expect("materialized cells must reassemble");
        debug_assert!(pdu.matches(&bytes), "cell codec round trip changed the PDU");
        let rebuilt = WirePdu::from_bytes(pdu.vc(), &bytes, self.take_seg_list());
        cells.clear();
        self.scratch_cells = cells;
        self.scratch_bytes = bytes;
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
    /// (TCOW copies etc.) to the host. Returns how many faults the
    /// write took.
    pub fn app_write(
        &mut self,
        host: HostId,
        space: SpaceId,
        vaddr: u64,
        data: &[u8],
    ) -> Result<usize, GenieError> {
        let h = self.host_mut(host);
        h.vm.write_app(space, vaddr, data)?;
        Ok(h.charge_faults())
    }

    /// Allocates the send buffer `semantics` sends from and fills it
    /// with `data` through [`World::app_write`]: an application buffer
    /// at page offset 0 for application-allocated semantics, an I/O
    /// region for system-allocated ones.
    pub fn alloc_source(
        &mut self,
        host: HostId,
        space: SpaceId,
        semantics: Semantics,
        data: &[u8],
    ) -> Result<u64, GenieError> {
        let vaddr = match semantics.allocation() {
            Allocation::Application => self.alloc_buffer(host, space, data.len(), 0)?,
            Allocation::System => self.host_mut(host).alloc_io_buffer(space, data.len())?.1,
        };
        self.app_write(host, space, vaddr, data)?;
        Ok(vaddr)
    }

    /// Posts one input of `len` bytes on `vc` the way `semantics`
    /// receives and returns its token: into a fresh application buffer
    /// at `page_off` for application-allocated semantics, wherever the
    /// system chooses (ignoring `page_off`) for system-allocated ones.
    /// Pass `preferred_alignment(host, vc).0` for the circuit's
    /// preferred offset.
    pub fn post_receive(
        &mut self,
        host: HostId,
        space: SpaceId,
        semantics: Semantics,
        vc: Vc,
        len: usize,
        page_off: usize,
    ) -> Result<u64, GenieError> {
        let req = match self.receive_buffer(host, space, semantics, len, page_off)? {
            Some(dst) => InputRequest::app(semantics, vc, space, dst, len),
            None => InputRequest::system(semantics, vc, space, len),
        };
        self.input(host, req)
    }

    /// The buffer [`World::post_receive`] posts into: a fresh
    /// application buffer at `page_off` for application-allocated
    /// semantics, `None` (the system chooses at delivery) for
    /// system-allocated ones.
    pub(crate) fn receive_buffer(
        &mut self,
        host: HostId,
        space: SpaceId,
        semantics: Semantics,
        len: usize,
        page_off: usize,
    ) -> Result<Option<u64>, GenieError> {
        match semantics.allocation() {
            Allocation::Application => self.alloc_buffer(host, space, len, page_off).map(Some),
            Allocation::System => Ok(None),
        }
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
        let data = h.vm.read_app(space, vaddr, len)?;
        h.charge_faults();
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
        let ok = h.vm.app_matches(space, vaddr, expected)?;
        h.charge_faults();
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

    /// Mutable access to the pending send for an output token.
    pub(crate) fn send_mut(&mut self, token: u64) -> Option<&mut PendingSend> {
        self.ops.get_mut(token)?.send.as_mut()
    }

    /// Removes the pending send at dispose time, freeing the slot
    /// unless a retransmit copy is still holding it open.
    pub(crate) fn take_send(&mut self, token: u64) -> Option<PendingSend> {
        let slot = self.ops.get_mut(token)?;
        let send = slot.send.take();
        if slot.copy.is_none() {
            self.ops.remove(token);
        }
        send
    }

    /// Mutable access to the retransmit copy for an output token.
    pub(crate) fn copy_mut(&mut self, token: u64) -> Option<&mut RetransmitCopy> {
        self.ops.get_mut(token)?.copy.as_mut()
    }

    /// Drops the retransmit copy for good (delivery or abandonment),
    /// recycling its segment list and freeing the slot if the send half
    /// is already disposed.
    pub(crate) fn drop_copy(&mut self, token: u64) {
        let Some(slot) = self.ops.get_mut(token) else {
            return;
        };
        let Some(copy) = slot.copy.take() else {
            return;
        };
        if slot.send.is_none() {
            self.ops.remove(token);
        }
        self.recycle_pdu(copy.pdu);
    }

    /// Dispatches one popped event to its handler.
    fn dispatch_event(&mut self, time: SimTime, ev: Event) {
        match ev {
            Event::Transmit { token } => self.on_transmit(time, token),
            Event::TxDone { token } => self.on_tx_done(time, token),
            Event::Arrive { to, pdu } => match pdu.wire {
                Some(_) => self.on_arrive(time, to, pdu),
                None => self.on_arrive_damaged(time, to, pdu),
            },
            Event::Retransmit { token } => self.on_retransmit(time, token),
            Event::RestoreCredits { host, vc, cells } => {
                self.on_restore_credits(time, host, vc, cells);
            }
            Event::ReleaseHoard { host } => self.on_release_hoard(host),
            Event::Redeliver { to, vc } => self.drain_in_order(time, to, vc),
            Event::SwitchIngress { from, pdu } => self.on_switch_ingress(time, from, pdu),
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
        // Every output was disposed and every retransmit copy dropped
        // (delivered in order or abandoned): a live slot is a leak.
        debug_assert!(
            self.ops.is_empty(),
            "run quiesced with {} live output slots",
            self.ops.len()
        );
    }

    /// High-water mark of queued events (the one being handled
    /// included) over this world's runs so far.
    pub fn peak_resident_events(&self) -> usize {
        self.peak_resident
    }

    /// Drains completed input operations. The next batch starts with
    /// room for as many as this one, so a steady wave allocates its
    /// completion list once instead of growing it.
    pub fn take_completed_inputs(&mut self) -> Vec<RecvCompletion> {
        let room = Vec::with_capacity(self.done_recvs.len());
        std::mem::replace(&mut self.done_recvs, room)
    }

    /// Drains completed output operations (sized like
    /// [`World::take_completed_inputs`]).
    pub fn take_completed_outputs(&mut self) -> Vec<SendCompletion> {
        let room = Vec::with_capacity(self.done_sends.len());
        std::mem::replace(&mut self.done_sends, room)
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
            machines: vec![MachineSpec::micron_p166(); 3],
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

    fn star(n: u16) -> genie_net::SwitchConfig {
        genie_net::SwitchConfig::star(n, 0, 1, 256)
    }

    fn switched(n: usize, sw: genie_net::SwitchConfig) -> WorldConfig {
        WorldConfig::switched(MachineSpec::micron_p166(), n, sw)
    }

    #[test]
    fn validate_accepts_the_stock_fabrics() {
        assert_eq!(WorldConfig::default().validate(), Ok(()));
        assert_eq!(switched(8, star(8)).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_switch_with_fewer_than_two_ports() {
        let err = switched(1, star(1)).validate().unwrap_err();
        assert_eq!(err, ConfigError::TooFewHosts { ports: 1 });
        assert!(err.to_string().starts_with("fabric: "), "{err}");
    }

    #[test]
    fn validate_rejects_a_passthrough_with_extra_hosts() {
        let cfg = WorldConfig {
            machines: vec![MachineSpec::micron_p166(); 3],
            ..WorldConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ConfigError::PassthroughHosts { hosts: 3 });
        assert!(err.to_string().starts_with("machines: "), "{err}");
    }

    #[test]
    fn validate_rejects_a_port_count_that_differs_from_the_hosts() {
        let err = switched(4, star(3)).validate().unwrap_err();
        assert_eq!(err, ConfigError::PortCount { ports: 3, hosts: 4 });
        assert!(err.to_string().contains("one port per host"), "{err}");
    }

    #[test]
    fn validate_rejects_a_route_to_a_missing_port() {
        let sw = star(3).route(1, 900, &[0, 5]);
        let err = switched(3, sw).validate().unwrap_err();
        let want = ConfigError::NoSuchPort {
            src: 1,
            vc: 900,
            port: 5,
            ports: 3,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("names port 5 of 3"), "{err}");
    }

    #[test]
    fn validate_rejects_a_duplicate_route() {
        let sw = star(3).route(1, 2, &[0]);
        let err = switched(3, sw).validate().unwrap_err();
        assert_eq!(err, ConfigError::DuplicateRoute { src: 1, vc: 2 });
        assert!(err.to_string().contains("duplicate route"), "{err}");
    }

    #[test]
    fn validate_rejects_a_route_vc_past_16_bits() {
        let sw = star(3).route(1, 1 << 16, &[0]);
        let err = switched(3, sw).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::VcOutOfRange {
                src: 1,
                vc: 1 << 16
            }
        );
        assert!(err.to_string().starts_with("fabric: "), "{err}");
    }

    #[test]
    fn output_and_input_refuse_a_vc_past_16_bits_before_any_vc_table() {
        let mut w = World::new(WorldConfig::default());
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let src = w.alloc_buffer(HostId::A, tx, 64, 0).unwrap();
        let dst = w.alloc_buffer(HostId::B, rx, 64, 0).unwrap();
        let vc = Vc(1 << 16);
        let out = crate::OutputRequest::new(Semantics::Copy, vc, tx, src, 64);
        assert_eq!(
            w.output(HostId::A, out),
            Err(GenieError::VcOutOfRange(1 << 16))
        );
        let inp = InputRequest::app(Semantics::Copy, vc, rx, dst, 64);
        assert_eq!(
            w.input(HostId::B, inp),
            Err(GenieError::VcOutOfRange(1 << 16))
        );
        assert!(w.seq.is_empty() && w.txq.iter().all(DenseMap::is_empty));
        assert!(w.recvs.iter().all(DenseMap::is_empty));
        assert_eq!((w.next_token, w.ops.len()), (1, 0));
        assert!(GenieError::VcOutOfRange(1 << 16)
            .to_string()
            .contains("16-bit"));
    }

    #[test]
    fn validate_rejects_multicast_under_a_fault_plan() {
        let mut cfg = switched(3, star(3).route(0, 900, &[1, 2]));
        assert_eq!(cfg.validate(), Ok(()));
        cfg.fault = genie_fault::FaultConfig::swarm(1);
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ConfigError::MulticastWithFaults);
        assert!(err.to_string().starts_with("fault: "), "{err}");
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
    fn every_semantics_feeds_the_spare_pools() {
        use crate::OutputRequest;
        let mut w = World::new(WorldConfig::default());
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let data = [5u8; 5000];
        let exchange = |w: &mut World, sem: Semantics| {
            let vc = Vc(1);
            w.post_receive(HostId::B, rx, sem, vc, data.len(), 0)
                .unwrap();
            let src = w.alloc_source(HostId::A, tx, sem, &data).unwrap();
            w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, data.len()))
                .unwrap();
            w.run();
            let c = w.take_completed_inputs()[0];
            assert!(w.app_matches(HostId::B, rx, c.vaddr, &data).unwrap());
            w.host_mut(HostId::B).free_buffer(rx, c.vaddr).unwrap();
            // Move output removed its source region; free the rest.
            if sem != Semantics::Move {
                w.host_mut(HostId::A).free_buffer(tx, src).unwrap();
            }
        };
        for sem in Semantics::ALL {
            exchange(&mut w, sem);
        }
        // The world's and every host's recycled lists hold something,
        // and the next exchange runs from them.
        assert!(!w.spare_segs.is_empty());
        for id in [HostId::A, HostId::B] {
            assert!(!w.host(id).spare_frame_lists.is_empty(), "{id:?}");
        }
        exchange(&mut w, Semantics::Copy);
    }

    #[test]
    fn buffer_helpers_follow_each_semantics() {
        use crate::OutputRequest;
        use genie_vm::RegionMark;
        let hdr = genie_net::HEADER_LEN;
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        for sem in Semantics::ALL {
            // Spelled out rather than read from the taxonomy, so the
            // test does not share the rule it checks.
            let app = matches!(
                sem,
                Semantics::Copy
                    | Semantics::EmulatedCopy
                    | Semantics::Share
                    | Semantics::EmulatedShare
            );
            let mut w = World::new(WorldConfig::default());
            let tx = w.create_process(HostId::A);
            let rx = w.create_process(HostId::B);
            let src = w.alloc_source(HostId::A, tx, sem, &data).unwrap();
            let vm = &w.host(HostId::A).vm;
            let mark = vm.region(vm.region_at(tx, src).unwrap()).unwrap().mark;
            let want = if app {
                RegionMark::Unmovable
            } else {
                RegionMark::MovedIn
            };
            assert_eq!(mark, want, "{sem} source region");
            assert_eq!(src % 4096, 0, "{sem} source page offset");
            assert!(w.app_matches(HostId::A, tx, src, &data).unwrap(), "{sem}");

            let token = w
                .post_receive(HostId::B, rx, sem, Vc(1), data.len(), hdr)
                .unwrap();
            w.output(
                HostId::A,
                OutputRequest::new(sem, Vc(1), tx, src, data.len()),
            )
            .unwrap();
            w.run();
            let c = w.take_completed_inputs()[0];
            assert_eq!(c.token, token, "{sem}");
            assert!(
                w.app_matches(HostId::B, rx, c.vaddr, &data).unwrap(),
                "{sem}"
            );
            let vm = &w.host(HostId::B).vm;
            let mark = vm.region(vm.region_at(rx, c.vaddr).unwrap()).unwrap().mark;
            assert_eq!(mark, want, "{sem} receive region");
            let want_off = if app { hdr } else { 0 };
            assert_eq!(c.vaddr % 4096, want_off as u64, "{sem} receive page offset");
        }
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
            machines: vec![MachineSpec::micron_p166(), MachineSpec::alphastation_255()],
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
