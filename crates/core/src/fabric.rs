//! The fabric: every wire hop, next-hop event and credit return.
//!
//! Without a switch the world wires two hosts back to back (the
//! paper's configuration) and every PDU crosses one hop, from the
//! sender to its peer. A switched world puts a store-and-forward switch
//! in between, so every PDU crosses two hops, each with its own credit
//! loop (hop-by-hop flow control, after Kosak et al.):
//!
//! 1. **Host → switch.** `try_transmit_one` spends the sender
//!    adapter's per-VC credits and `uplink_hop` puts the PDU on the
//!    uplink wire; [`Event::SwitchIngress`] fires at the end of it.
//!    The ingress handler buffers the PDU in the routed output port(s)
//!    and returns the hop-1 credits to the sender.
//! 2. **Switch → host.** [`Event::PortDrain`] dispatches the head of
//!    an output port's FIFO when the egress link is free and the
//!    `(port, VC)` credit ledger covers the PDU's cells; the final
//!    arrival at the destination host returns those credits (see
//!    `return_hop_credits`) and wakes the port. A credit-stalled head
//!    blocks its whole port, which preserves per-VC FIFO order across
//!    the hop.
//!
//! Both worlds share the helpers below; DESIGN.md §9 describes them.
//!
//! Contention is visible in two places: fan-in queueing in the
//! output-port FIFOs (depth counters) and credit stalls on the egress
//! hop (stall counters), both rolled up in [`genie_net::SwitchStats`].

use std::collections::VecDeque;

use genie_machine::{LinkSpec, Op, SimTime};
use genie_net::{SwitchedPdu, Vc, WirePdu};
use genie_trace::Track;

use crate::world::{Event, HostId, World};

/// Retry interval of a credit-stalled uplink send or retransmission
/// (50 µs). Both host-side paths still poll. A credit return wakes
/// only the front of the VC's transmit queue (`wake_txq`), never a
/// pending `Retransmit`, so a stalled retransmission has no other
/// wake; the transmit queue keeps the same poll beside its wake, and
/// each retry that still finds the VC dry counts as one more stall.
/// Switch egress never polls: ingress kicks and credit returns are its
/// only wakes.
pub(crate) const UPLINK_STALL_RETRY: SimTime = SimTime::from_ps(50_000_000);

/// One wire hop's timing. The PDU starts serializing at `ready` or
/// when the link frees up (`busy`), whichever is later, and holds the
/// link for its wire time; it reaches the far adapter one fixed link
/// latency plus that device's fixed receive cost (`dev_rx`) after its
/// last cell leaves. Returns `(wire_start, wire_done, arrival)`.
fn wire_hop(
    link: &LinkSpec,
    busy: &mut SimTime,
    ready: SimTime,
    total: usize,
    dev_rx: SimTime,
) -> (SimTime, SimTime, SimTime) {
    let start = ready.max(*busy);
    let done = start + link.wire_time(total);
    *busy = done;
    (start, done, done + link.fixed_latency + dev_rx)
}

impl World {
    /// Puts a PDU of `total` bytes (`cells` cells) from `from` on its
    /// uplink at `ready`: the wire to the peer, or to the switch. The
    /// receiving device's fixed cost belongs to whoever faces the
    /// destination host, so the peer pays it here only when there is no
    /// switch; the switch's egress hop charges it otherwise. Returns
    /// `(wire_start, arrival)`.
    pub(crate) fn uplink_hop(
        &mut self,
        from: HostId,
        vc: Vc,
        seq: u32,
        ready: SimTime,
        total: usize,
        cells: usize,
    ) -> (SimTime, SimTime) {
        let dev_rx = match self.switch {
            Some(_) => SimTime::ZERO,
            None => self.hosts[from.peer().idx()].charge_overlapped(Op::DeviceFixedRecv, 0, 0),
        };
        let busy = &mut self.link_busy_until[from.idx()];
        let (start, done, arrival) = wire_hop(&self.link, busy, ready, total, dev_rx);
        if self.wire_tracer.enabled() {
            let name = if self.switch.is_some() {
                "wire host\u{2192}switch"
            } else if from == HostId::A {
                "wire A\u{2192}B"
            } else {
                "wire B\u{2192}A"
            };
            self.wire_tracer.set_flow(vc.0, seq);
            self.wire_tracer.span(
                Track::Wire,
                name,
                start,
                done.saturating_sub(start),
                total,
                cells,
            );
            self.wire_tracer.clear_flow();
        }
        (start, arrival)
    }

    /// The event that ends an uplink hop: ingress at the switch, or
    /// arrival at the peer when there is no switch. `pdu` is `None` for
    /// a PDU the wire damaged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn uplink_event(
        &self,
        from: HostId,
        vc: Vc,
        pdu: Option<WirePdu>,
        cells: usize,
        total: usize,
        sent_at: SimTime,
        token: u64,
        seq: u32,
    ) -> Event {
        match self.switch {
            Some(_) => Event::SwitchIngress {
                from,
                vc,
                pdu,
                cells,
                total,
                sent_at,
                token,
                seq,
            },
            None => Event::Arrive {
                to: from.peer(),
                vc,
                pdu,
                cells,
                sent_at,
                token,
            },
        }
    }

    /// Wakes the front of `host`'s transmit queue on `vc` at `at`, if a
    /// PDU is waiting there (a credit-stalled head retries).
    pub(crate) fn wake_txq(&mut self, host: HostId, vc: Vc, at: SimTime) {
        if let Some(&front) = self.txq[host.idx()]
            .get(u64::from(vc.0))
            .and_then(VecDeque::front)
        {
            self.events.push(at, Event::Transmit { token: front });
        }
    }

    /// `to` finished receiving `cells` cells on `vc` (intact or not,
    /// they drained its buffers): the last hop's credits return now
    /// and, one wire latency on (the credit message crossing back),
    /// wake whoever stalled on them. That is the peer's transmit queue
    /// without a switch, else the switch port facing `to`, whose only
    /// wake this is.
    pub(crate) fn return_hop_credits(&mut self, time: SimTime, to: HostId, vc: Vc, cells: usize) {
        let wake = time + self.link.fixed_latency;
        match &mut self.switch {
            None => {
                let sender = to.peer();
                self.hosts[sender.idx()]
                    .adapter
                    .return_credits(vc, cells as u32);
                self.wake_txq(sender, vc, wake);
            }
            Some(sw) => {
                sw.return_credits(to.0, vc.0, cells as u32);
                if sw.queue_len(to.0) > 0 {
                    self.events.push(wake, Event::PortDrain { port: to.0 });
                }
            }
        }
    }

    /// A PDU (or damaged-PDU marker) reached the switch: return hop-1
    /// credits to the sender, route, and buffer at the output port(s).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_switch_ingress(
        &mut self,
        time: SimTime,
        from: HostId,
        vc: Vc,
        mut pdu: Option<WirePdu>,
        cells: usize,
        total: usize,
        sent_at: SimTime,
        token: u64,
        seq: u32,
    ) {
        // The switch has buffered the cells, so the uplink credits go
        // back to the sender; the credit-return message crosses the
        // wire back before it can wake a stalled transmit queue.
        self.hosts[from.idx()]
            .adapter
            .return_credits(vc, cells as u32);
        self.wake_txq(from, vc, time + self.link.fixed_latency);

        let sw = self
            .switch
            .as_mut()
            .expect("switch ingress event in a switched world");
        let mut dsts = std::mem::take(&mut self.scratch_dsts);
        dsts.clear();
        dsts.extend_from_slice(sw.route(from.0, vc.0));
        assert!(
            !dsts.is_empty(),
            "no route from host {} on vc {}",
            from.0,
            vc.0
        );
        sw.note_ingress(dsts.len() - 1);
        // Fan-out replicates the wire image at ingress (into pooled
        // buffers); the original moves into the last copy.
        for (i, &dst) in dsts.iter().enumerate() {
            let payload = if i + 1 == dsts.len() {
                pdu.take()
            } else {
                pdu.as_ref().map(|p| {
                    let mut copy = self.take_payload_buf();
                    copy.extend_from_slice(p.payload());
                    WirePdu::new(vc.0, copy)
                })
            };
            let sw = self.switch.as_mut().expect("switched world");
            let depth = sw.enqueue(
                dst,
                SwitchedPdu {
                    vc: vc.0,
                    payload,
                    cells,
                    total,
                    sent_at,
                    token,
                    seq,
                    ingress_at: time,
                },
                time,
            );
            if depth == 1 {
                // The port was idle: start draining. A non-empty port
                // is either draining already or blocked with a
                // credit-return wake on the way, so one kick per busy
                // spell is enough.
                self.events.push(time, Event::PortDrain { port: dst });
            }
        }
        self.scratch_dsts = dsts;
    }

    /// Dispatch PDUs from an output port's FIFO onto its egress link
    /// until the queue empties or the head stalls on credit. The link
    /// serializes via `busy_until`, so draining greedily at one instant
    /// still spaces the wire times correctly.
    pub(crate) fn on_port_drain(&mut self, time: SimTime, port: u16) {
        let sw = self
            .switch
            .as_mut()
            .expect("port drain event in a switched world");
        while let Some(head) = sw.front(port) {
            let (vc, cells) = (head.vc, head.cells);
            let credit = sw.port_credit();
            // `World::output` rejects such PDUs up front.
            assert!(
                cells as u32 <= credit,
                "PDU of {cells} cells can never clear port {port}'s credit \
                 allotment of {credit} — the port would be stranded"
            );
            if !sw.try_consume_credits(port, vc, cells as u32, time) {
                // Head-of-line stall (which keeps per-VC order intact
                // across the hop). The head fits the allotment, so a
                // dispatched PDU holds some of its VC's credits; that
                // PDU's arrival returns them and wakes this port.
                return;
            }
            let pdu = sw.pop(port, time).expect("head just inspected");
            let to = HostId(port);
            let dev_rx = self.hosts[to.idx()].charge_overlapped(Op::DeviceFixedRecv, 0, 0);
            let mut busy = sw.busy_until(port);
            let (wire_start, wire_done, arrival) =
                wire_hop(&self.link, &mut busy, time, pdu.total, dev_rx);
            sw.set_busy_until(port, busy);

            let tracer = &mut self.hosts[to.idx()].tracer;
            if tracer.enabled() {
                tracer.set_flow(vc, pdu.seq);
                // Switch residency: queueing plus credit-stall time in
                // the output-port FIFO, from ingress to the moment the
                // egress wire starts serializing this PDU.
                tracer.span(
                    Track::Events,
                    "switch.residency",
                    pdu.ingress_at,
                    wire_start.saturating_sub(pdu.ingress_at),
                    pdu.total,
                    cells,
                );
                tracer.span(
                    Track::Wire,
                    "wire switch\u{2192}host",
                    wire_start,
                    wire_done.saturating_sub(wire_start),
                    pdu.total,
                    cells,
                );
                tracer.clear_flow();
            }
            self.events.push(
                arrival,
                Event::Arrive {
                    to,
                    vc: Vc(vc),
                    pdu: pdu.payload,
                    cells,
                    sent_at: pdu.sent_at,
                    token: pdu.token,
                },
            );
        }
    }
}
