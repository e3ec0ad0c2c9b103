//! Switched-fabric event handlers: the switch's two hops.
//!
//! In a switched world every PDU crosses two hops, each with its own
//! credit loop (hop-by-hop flow control, after Kosak et al.):
//!
//! 1. **Host → switch.** `try_transmit_one` spends the sender
//!    adapter's per-VC credits and schedules [`Event::SwitchIngress`]
//!    at the end of the uplink wire time. The ingress handler buffers
//!    the PDU in the routed output port(s) and returns the hop-1
//!    credits to the sender.
//! 2. **Switch → host.** [`Event::PortDrain`] dispatches the head of
//!    an output port's FIFO when the egress link is free and the
//!    `(port, VC)` credit ledger covers the PDU's cells; the final
//!    arrival at the destination host returns those credits (see
//!    `on_arrive`) and wake the port. A credit-stalled head blocks its
//!    whole port, which preserves per-VC FIFO order across the hop.
//!
//! Contention is therefore visible in two places: fan-in queueing in
//! the output-port FIFOs (depth counters) and credit stalls on the
//! egress hop (stall counters), both rolled up in
//! [`genie_net::SwitchStats`].

use std::collections::VecDeque;

use genie_machine::{Op, SimTime};
use genie_net::{SwitchedPdu, Vc, WirePdu};

use crate::world::{Event, FabricState, HostId, World};

impl World {
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
        if let Some(&front) = self.txq[from.idx()]
            .get(u64::from(vc.0))
            .and_then(VecDeque::front)
        {
            let wake = time + self.link.fixed_latency;
            self.events.push(wake, Event::Transmit { token: front });
        }

        let FabricState::Switched(sw) = &mut self.fabric else {
            unreachable!("switch ingress event in a passthrough world");
        };
        let dsts = sw.route(from.0, vc.0).to_vec();
        assert!(
            !dsts.is_empty(),
            "no route from host {} on vc {}",
            from.0,
            vc.0
        );
        sw.note_ingress(dsts.len() - 1);
        // Fan-out replicates the wire image at ingress; the original
        // moves into the last copy.
        for (i, &dst) in dsts.iter().enumerate() {
            let payload = if i + 1 == dsts.len() {
                pdu.take()
            } else {
                pdu.as_ref()
                    .map(|p| WirePdu::new(vc.0, p.payload().to_vec()))
            };
            let FabricState::Switched(sw) = &mut self.fabric else {
                unreachable!();
            };
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
    }

    /// Dispatch PDUs from an output port's FIFO onto its egress link
    /// until the queue empties or the head stalls on credit. The link
    /// serializes via `busy_until`, so draining greedily at one instant
    /// still spaces the wire times correctly.
    pub(crate) fn on_port_drain(&mut self, time: SimTime, port: u16) {
        loop {
            let FabricState::Switched(sw) = &mut self.fabric else {
                unreachable!("port drain event in a passthrough world");
            };
            let Some(head) = sw.front(port) else {
                return;
            };
            let (vc, cells, total) = (head.vc, head.cells, head.total);
            let credit = sw.port_credit();
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
            let wire_start = time.max(sw.busy_until(port));
            let wire_done = wire_start + self.link.wire_time(total);
            sw.set_busy_until(port, wire_done);

            let to = HostId(port);
            let seq = pdu.seq;
            let ingress_at = pdu.ingress_at;
            let dev_rx = self.hosts[to.idx()].charge_overlapped(Op::DeviceFixedRecv, 0, 0);
            let tracer = &mut self.hosts[to.idx()].tracer;
            if tracer.enabled() {
                tracer.set_flow(vc, seq);
                // Switch residency: queueing plus credit-stall time in
                // the output-port FIFO, from ingress to the moment the
                // egress wire starts serializing this PDU.
                tracer.span(
                    genie_trace::Track::Events,
                    "switch.residency",
                    ingress_at,
                    wire_start.saturating_sub(ingress_at),
                    total,
                    cells,
                );
                tracer.span(
                    genie_trace::Track::Wire,
                    "wire switch\u{2192}host",
                    wire_start,
                    wire_done.saturating_sub(wire_start),
                    total,
                    cells,
                );
                tracer.clear_flow();
            }
            let arrival = wire_done + self.link.fixed_latency + dev_rx;
            match pdu.payload {
                Some(wire) => self.events.push(
                    arrival,
                    Event::Arrive {
                        to,
                        vc: Vc(vc),
                        pdu: wire,
                        sent_at: pdu.sent_at,
                        token: pdu.token,
                    },
                ),
                None => self.events.push(
                    arrival,
                    Event::ArriveDamaged {
                        to,
                        vc: Vc(vc),
                        token: pdu.token,
                        cells,
                    },
                ),
            }
        }
    }
}
