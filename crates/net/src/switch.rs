//! An N-port ATM switch with per-hop, per-VC credit flow control.
//!
//! The paper measured a point-to-point configuration; production Credit
//! Net deployments hang every host off a switch, so contention appears
//! at the switch's *output ports*: fan-in traffic from many sources
//! queues in a per-port FIFO, and each egress link runs its own
//! credit loop toward the attached host (after Kosak et al., credits
//! are hop-by-hop, not end-to-end).
//!
//! The [`Switch`] here is passive state — routing tables, output-port
//! FIFOs, per-(port, VC) egress credit ledgers, and counters. The
//! simulation's event loop drives it: an ingress event routes a PDU to
//! one or more output ports (fan-out replicates at ingress), and a
//! port-drain event dispatches the head of a port's FIFO when the
//! egress link is free and the VC holds credit. A credit-stalled head
//! blocks its whole port (head-of-line), which trivially preserves
//! per-VC FIFO order across the hop.
//!
//! Routes are keyed by `(source port, VC)`. By convention each VC has
//! exactly one sender: sequence numbers are per VC end to end, so two
//! sources sharing a VC would interleave one sequence space across
//! distinct circuits. The route table and each port's credit table are
//! indexed by VC number (flat [`DenseMap`]s, as the world's per-VC
//! queues are), so the per-PDU lookups hash nothing; the world refuses
//! VCs above 16 bits, which bounds them.

use std::collections::VecDeque;

use genie_machine::SimTime;
use genie_mem::DenseMap;
use genie_trace::metrics::Histogram;

use crate::aal5::InflightPdu;
use crate::credit::CreditState;

/// One routing-table entry: traffic from `src` on `vc` goes to every
/// port in `dsts` (more than one destination = multicast, replicated
/// at ingress).
#[derive(Clone, Debug)]
pub struct Route {
    /// Ingress port (the sending host's port number).
    pub src: u16,
    /// Virtual circuit.
    pub vc: u32,
    /// Egress ports, in replication order.
    pub dsts: Vec<u16>,
}

/// Static configuration of a switch.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Number of ports (port `i` attaches host `i`).
    pub ports: u16,
    /// Per-(egress port, VC) credit limit in cells.
    pub port_credit: u32,
    /// The routing table.
    pub routes: Vec<Route>,
}

impl SwitchConfig {
    /// An empty routing table over `ports` ports.
    pub fn new(ports: u16, port_credit: u32) -> Self {
        SwitchConfig {
            ports,
            port_credit,
            routes: Vec::new(),
        }
    }

    /// Adds a route (builder style).
    pub fn route(mut self, src: u16, vc: u32, dsts: &[u16]) -> Self {
        self.routes.push(Route {
            src,
            vc,
            dsts: dsts.to_vec(),
        });
        self
    }

    /// Whether any route fans out to more than one destination.
    pub fn has_multicast(&self) -> bool {
        self.routes.iter().any(|r| r.dsts.len() > 1)
    }

    /// A star: every spoke port `i != hub` sends to `hub` on VC
    /// `vc_base + i`, and `hub` sends back to `i` on VC
    /// `vc_base + ports + i`. One sender per VC by construction.
    pub fn star(ports: u16, hub: u16, vc_base: u32, port_credit: u32) -> Self {
        let mut cfg = SwitchConfig::new(ports, port_credit);
        for i in 0..ports {
            if i == hub {
                continue;
            }
            cfg = cfg.route(i, vc_base + u32::from(i), &[hub]).route(
                hub,
                vc_base + u32::from(ports) + u32::from(i),
                &[i],
            );
        }
        cfg
    }

    /// A chain: port `i` sends to `i + 1` on VC `vc_base + i`.
    pub fn chain(ports: u16, vc_base: u32, port_credit: u32) -> Self {
        let mut cfg = SwitchConfig::new(ports, port_credit);
        for i in 0..ports.saturating_sub(1) {
            cfg = cfg.route(i, vc_base + u32::from(i), &[i + 1]);
        }
        cfg
    }
}

/// A PDU queued at an output port (a damaged one is a marker carrying
/// only its identity and cell metadata).
#[derive(Debug)]
pub struct SwitchedPdu {
    /// The PDU and its end-to-end identity.
    pub pdu: InflightPdu,
    /// When the PDU entered this switch's output FIFO — start of its
    /// switch-residency span.
    pub ingress_at: SimTime,
}

/// What a recorded [`PortPoint`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortSampleKind {
    /// Output-FIFO depth after an enqueue or dispatch.
    Depth,
    /// Egress credits available on the head VC after a reservation.
    CreditOccupancy,
    /// A drain (ingress kick or credit-return wake) that found the
    /// head VC out of credit (value = cells the head needed). The port
    /// is not re-polled, so each point is one wake, not one tick.
    HolStall,
}

/// One timestamped observation on an output port's time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortPoint {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// What was measured.
    pub kind: PortSampleKind,
    /// The measurement.
    pub value: u64,
}

/// Bound on retained [`PortPoint`]s per port: a fabric-scale run emits
/// hundreds of thousands of port events; the series keeps the most
/// recent window (flight-recorder style) and counts the rest.
pub const PORT_SERIES_CAP: usize = 256;

/// Per-port observation state: bounded recent time series plus
/// full-run depth and credit-occupancy histograms (fixed-size, so the
/// memory bound holds regardless of run length).
#[derive(Clone, Debug, Default)]
pub struct PortSeries {
    /// Most recent observations, oldest first, at most
    /// [`PORT_SERIES_CAP`].
    pub recent: VecDeque<PortPoint>,
    /// Observations evicted from `recent`.
    pub points_dropped: u64,
    /// Distribution of FIFO depth over every enqueue/dispatch.
    pub depth: Histogram,
    /// Distribution of available egress credits at reservation time.
    pub credit_occupancy: Histogram,
}

impl PortSeries {
    fn record(&mut self, at: SimTime, kind: PortSampleKind, value: u64) {
        match kind {
            PortSampleKind::Depth => self.depth.record(value),
            PortSampleKind::CreditOccupancy => self.credit_occupancy.record(value),
            PortSampleKind::HolStall => {}
        }
        if self.recent.len() >= PORT_SERIES_CAP {
            self.recent.pop_front();
            self.points_dropped += 1;
        }
        self.recent.push_back(PortPoint { at, kind, value });
    }
}

/// Per-output-port state and counters.
#[derive(Debug, Default)]
struct Port {
    /// FIFO of PDUs contending for this egress link.
    queue: VecDeque<SwitchedPdu>,
    /// When the egress link finishes its current transmission.
    busy_until: SimTime,
    /// Per-VC egress credit toward the attached host, indexed by VC.
    credits: DenseMap<CreditState>,
    /// PDUs dispatched onto the egress link.
    dispatched: u64,
    /// Drains that found the head VC out of credit. A blocked port
    /// sleeps until a credit-return wake, so this counts wakes (and
    /// ingress kicks) that found the head still blocked, never polls.
    credit_stalls: u64,
    /// Deepest FIFO occupancy observed.
    max_depth: u64,
    /// Observation series (populated only while observing).
    series: PortSeries,
}

/// Aggregate switch counters (sums over ports plus ingress counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// PDUs accepted at ingress (one per ingress event).
    pub pdus_ingress: u64,
    /// Extra copies made for multicast fan-out.
    pub pdus_replicated: u64,
    /// PDUs dispatched from output ports.
    pub pdus_dispatched: u64,
    /// Head-of-line credit stalls across all ports.
    pub credit_stalls: u64,
    /// Deepest output-port FIFO observed.
    pub max_port_depth: u64,
}

/// The switch: routing table, output-port FIFOs, egress credit.
#[derive(Debug)]
pub struct Switch {
    /// Indexed by VC: each of the VC's senders with its egress ports
    /// (one sender by convention).
    routes: DenseMap<Vec<(u16, Vec<u16>)>>,
    ports: Vec<Port>,
    port_credit: u32,
    pdus_ingress: u64,
    pdus_replicated: u64,
    /// When set, port events feed each port's [`PortSeries`].
    observe: bool,
}

impl Switch {
    /// Builds a switch from its configuration.
    pub fn new(cfg: &SwitchConfig) -> Self {
        let mut routes: DenseMap<Vec<(u16, Vec<u16>)>> = DenseMap::new();
        for r in &cfg.routes {
            for &d in &r.dsts {
                assert!(
                    d < cfg.ports,
                    "route ({}, {}) names port {d} of {}",
                    r.src,
                    r.vc,
                    cfg.ports
                );
            }
            let senders = routes.get_or_insert_with(u64::from(r.vc), Vec::new);
            assert!(
                senders.iter().all(|&(src, _)| src != r.src),
                "duplicate route for (src {}, vc {})",
                r.src,
                r.vc
            );
            senders.push((r.src, r.dsts.clone()));
        }
        Switch {
            routes,
            ports: (0..cfg.ports).map(|_| Port::default()).collect(),
            port_credit: cfg.port_credit,
            pdus_ingress: 0,
            pdus_replicated: 0,
            observe: false,
        }
    }

    /// Enables or disables port observation. Observation only records
    /// state the event loop already computes, so it cannot perturb
    /// timing or routing — traces with it on and off are comparable.
    pub fn set_observe(&mut self, on: bool) {
        self.observe = on;
    }

    /// Whether port observation is on.
    pub fn observing(&self) -> bool {
        self.observe
    }

    /// One port's observation series (empty unless observing).
    pub fn port_series(&self, port: u16) -> &PortSeries {
        &self.ports[port as usize].series
    }

    /// Number of ports.
    pub fn ports(&self) -> u16 {
        self.ports.len() as u16
    }

    /// The egress ports for traffic from `src` on `vc` (empty when the
    /// routing table has no entry — the PDU is dropped at ingress).
    pub fn route(&self, src: u16, vc: u32) -> &[u16] {
        let senders = self
            .routes
            .get(u64::from(vc))
            .map_or(&[][..], Vec::as_slice);
        senders
            .iter()
            .find(|(s, _)| *s == src)
            .map_or(&[], |(_, dsts)| dsts.as_slice())
    }

    /// Records an ingress PDU (`replicas` extra multicast copies).
    pub fn note_ingress(&mut self, replicas: usize) {
        self.pdus_ingress += 1;
        self.pdus_replicated += replicas as u64;
    }

    /// Appends a PDU to an output port's FIFO at simulated time `now`;
    /// returns the new depth.
    pub fn enqueue(&mut self, port: u16, pdu: SwitchedPdu, now: SimTime) -> usize {
        let observe = self.observe;
        let p = &mut self.ports[port as usize];
        p.queue.push_back(pdu);
        let depth = p.queue.len();
        p.max_depth = p.max_depth.max(depth as u64);
        if observe {
            p.series.record(now, PortSampleKind::Depth, depth as u64);
        }
        depth
    }

    /// The head of a port's FIFO.
    pub fn front(&self, port: u16) -> Option<&SwitchedPdu> {
        self.ports[port as usize].queue.front()
    }

    /// Pops the head of a port's FIFO at simulated time `now` (after a
    /// successful dispatch).
    pub fn pop(&mut self, port: u16, now: SimTime) -> Option<SwitchedPdu> {
        let observe = self.observe;
        let p = &mut self.ports[port as usize];
        let pdu = p.queue.pop_front();
        if pdu.is_some() {
            p.dispatched += 1;
            if observe {
                p.series
                    .record(now, PortSampleKind::Depth, p.queue.len() as u64);
            }
        }
        pdu
    }

    /// Output-port FIFO depth.
    pub fn queue_len(&self, port: u16) -> usize {
        self.ports[port as usize].queue.len()
    }

    /// When the port's egress link frees up.
    pub fn busy_until(&self, port: u16) -> SimTime {
        self.ports[port as usize].busy_until
    }

    /// Marks the port's egress link busy until `t`.
    pub fn set_busy_until(&mut self, port: u16, t: SimTime) {
        self.ports[port as usize].busy_until = t;
    }

    /// Attempts to reserve egress credits for `cells` cells on
    /// `(port, vc)` at simulated time `now`; bumps the port's stall
    /// counter on failure.
    pub fn try_consume_credits(&mut self, port: u16, vc: u32, cells: u32, now: SimTime) -> bool {
        let limit = self.port_credit;
        let observe = self.observe;
        let p = &mut self.ports[port as usize];
        let credits = p
            .credits
            .get_or_insert_with(u64::from(vc), || CreditState::new(limit));
        let ok = credits.try_consume(cells);
        if observe {
            if ok {
                let left = credits.available() as u64;
                p.series.record(now, PortSampleKind::CreditOccupancy, left);
            } else {
                p.series.record(now, PortSampleKind::HolStall, cells as u64);
            }
        }
        if !ok {
            p.credit_stalls += 1;
        }
        ok
    }

    /// Returns egress credits for `(port, vc)` (the attached host
    /// drained its buffers). Saturates at the limit.
    pub fn return_credits(&mut self, port: u16, vc: u32, cells: u32) {
        let limit = self.port_credit;
        self.ports[port as usize]
            .credits
            .get_or_insert_with(u64::from(vc), || CreditState::new(limit))
            .replenish(cells);
    }

    /// Egress credits currently available on `(port, vc)` (the full
    /// limit when the VC has never been used).
    pub fn credits_available(&self, port: u16, vc: u32) -> u32 {
        self.ports[port as usize]
            .credits
            .get(u64::from(vc))
            .map_or(self.port_credit, CreditState::available)
    }

    /// The per-(port, VC) egress credit limit.
    pub fn port_credit(&self) -> u32 {
        self.port_credit
    }

    /// PDUs dispatched from one port.
    pub fn port_dispatched(&self, port: u16) -> u64 {
        self.ports[port as usize].dispatched
    }

    /// Head-of-line credit stalls on one port.
    pub fn port_credit_stalls(&self, port: u16) -> u64 {
        self.ports[port as usize].credit_stalls
    }

    /// Deepest FIFO occupancy one port ever reached.
    pub fn port_max_depth(&self, port: u16) -> u64 {
        self.ports[port as usize].max_depth
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SwitchStats {
        let mut s = SwitchStats {
            pdus_ingress: self.pdus_ingress,
            pdus_replicated: self.pdus_replicated,
            ..SwitchStats::default()
        };
        for p in &self.ports {
            s.pdus_dispatched += p.dispatched;
            s.credit_stalls += p.credit_stalls;
            s.max_port_depth = s.max_port_depth.max(p.max_depth);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdu(vc: u32, token: u64) -> SwitchedPdu {
        SwitchedPdu {
            pdu: InflightPdu {
                vc,
                token,
                sent_at: SimTime::ZERO,
                seq: token as u32,
                cells: 2,
                bytes: 96,
                wire: None,
            },
            ingress_at: SimTime::ZERO,
        }
    }

    #[test]
    fn routes_resolve_and_missing_routes_are_empty() {
        let sw = Switch::new(
            &SwitchConfig::new(4, 64)
                .route(0, 1, &[3])
                .route(1, 2, &[2, 3]),
        );
        assert_eq!(sw.route(0, 1), &[3]);
        assert_eq!(sw.route(1, 2), &[2, 3]);
        assert!(sw.route(2, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate route")]
    fn duplicate_routes_are_rejected() {
        Switch::new(&SwitchConfig::new(2, 64).route(0, 1, &[1]).route(0, 1, &[1]));
    }

    #[test]
    fn port_fifo_preserves_order_and_tracks_depth() {
        let mut sw = Switch::new(&SwitchConfig::new(2, 64).route(0, 1, &[1]));
        sw.enqueue(1, pdu(1, 10), SimTime::ZERO);
        sw.enqueue(1, pdu(1, 11), SimTime::ZERO);
        assert_eq!(sw.queue_len(1), 2);
        assert_eq!(sw.pop(1, SimTime::ZERO).unwrap().pdu.token, 10);
        assert_eq!(sw.pop(1, SimTime::ZERO).unwrap().pdu.token, 11);
        assert_eq!(sw.port_max_depth(1), 2);
        assert_eq!(sw.port_dispatched(1), 2);
    }

    #[test]
    fn egress_credits_consume_stall_and_replenish() {
        let mut sw = Switch::new(&SwitchConfig::new(2, 3).route(0, 1, &[1]));
        assert_eq!(sw.credits_available(1, 1), 3);
        assert!(sw.try_consume_credits(1, 1, 3, SimTime::ZERO));
        assert!(!sw.try_consume_credits(1, 1, 1, SimTime::ZERO));
        assert_eq!(sw.port_credit_stalls(1), 1);
        sw.return_credits(1, 1, 100);
        assert_eq!(sw.credits_available(1, 1), 3, "saturates at the limit");
    }

    #[test]
    fn star_and_chain_builders_route_one_sender_per_vc() {
        let star = SwitchConfig::star(4, 0, 100, 64);
        let sw = Switch::new(&star);
        assert_eq!(sw.route(1, 101), &[0]);
        assert_eq!(sw.route(0, 105), &[1]);
        assert!(!star.has_multicast());
        let chain = SwitchConfig::chain(4, 200, 64);
        let sw = Switch::new(&chain);
        assert_eq!(sw.route(0, 200), &[1]);
        assert_eq!(sw.route(2, 202), &[3]);
        assert!(sw.route(3, 203).is_empty());
    }

    #[test]
    fn stats_aggregate_across_ports() {
        let mut sw = Switch::new(&SwitchConfig::new(3, 1).route(0, 1, &[1, 2]));
        sw.note_ingress(1);
        sw.enqueue(1, pdu(1, 10), SimTime::ZERO);
        sw.enqueue(2, pdu(1, 10), SimTime::ZERO);
        assert!(sw.try_consume_credits(1, 1, 1, SimTime::ZERO));
        assert!(!sw.try_consume_credits(1, 1, 2, SimTime::ZERO));
        sw.pop(1, SimTime::ZERO);
        let s = sw.stats();
        assert_eq!(s.pdus_ingress, 1);
        assert_eq!(s.pdus_replicated, 1);
        assert_eq!(s.pdus_dispatched, 1);
        assert_eq!(s.credit_stalls, 1);
        assert_eq!(s.max_port_depth, 1);
    }

    #[test]
    fn observation_records_port_series_without_touching_counters() {
        let mk = |observe: bool| {
            let mut sw = Switch::new(&SwitchConfig::new(2, 2).route(0, 1, &[1]));
            sw.set_observe(observe);
            sw.enqueue(1, pdu(1, 10), SimTime::from_us(1.0));
            sw.enqueue(1, pdu(1, 11), SimTime::from_us(2.0));
            assert!(sw.try_consume_credits(1, 1, 2, SimTime::from_us(3.0)));
            assert!(!sw.try_consume_credits(1, 1, 2, SimTime::from_us(4.0)));
            sw.pop(1, SimTime::from_us(5.0));
            sw
        };
        let on = mk(true);
        let off = mk(false);
        // Counters are identical with observation on or off.
        assert_eq!(on.stats(), off.stats());
        assert!(off.port_series(1).recent.is_empty());
        let series = on.port_series(1);
        // Two enqueues + one pop = 3 depth points; 1 occupancy; 1 stall.
        assert_eq!(series.depth.count(), 3);
        assert_eq!(series.depth.max(), 2);
        assert_eq!(series.credit_occupancy.count(), 1);
        assert_eq!(series.credit_occupancy.max(), 0, "all credits consumed");
        let stalls: Vec<&PortPoint> = series
            .recent
            .iter()
            .filter(|p| p.kind == PortSampleKind::HolStall)
            .collect();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].at, SimTime::from_us(4.0));
        assert_eq!(stalls[0].value, 2);
        assert_eq!(series.points_dropped, 0);
    }

    #[test]
    fn port_series_ring_is_bounded() {
        let mut sw = Switch::new(&SwitchConfig::new(2, 64).route(0, 1, &[1]));
        sw.set_observe(true);
        for i in 0..(PORT_SERIES_CAP as u64 + 50) {
            sw.enqueue(1, pdu(1, i), SimTime::from_ps(i));
            sw.pop(1, SimTime::from_ps(i));
        }
        let series = sw.port_series(1);
        assert_eq!(series.recent.len(), PORT_SERIES_CAP);
        assert_eq!(
            series.points_dropped,
            2 * (PORT_SERIES_CAP as u64 + 50) - PORT_SERIES_CAP as u64
        );
        // Histograms still cover the full run.
        assert_eq!(series.depth.count(), 2 * (PORT_SERIES_CAP as u64 + 50));
    }
}
