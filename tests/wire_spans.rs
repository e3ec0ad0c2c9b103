//! Wire-track span names per hop. Every wire hop records one span on
//! the wire track, named after the hop: `wire A→B` / `wire B→A` on a
//! back-to-back link, `wire host→switch` on a switched uplink (on the
//! link owner) and `wire switch→host` on the switch's egress (on the
//! destination host). A retransmission crosses the same uplink hop as
//! the first send, so it records the same span.

use std::collections::BTreeMap;

use genie::{HostId, InputRequest, OutputRequest, Semantics, Track, World, WorldConfig};
use genie_fault::FaultConfig;
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};

const BYTES: usize = 2048;

/// Sends `n` copy-semantics datagrams from `from` to `to` on `vc` and
/// runs the world until every one is delivered.
fn exchange(w: &mut World, from: HostId, to: HostId, vc: Vc, n: usize) {
    let tx = w.create_process(from);
    let rx = w.create_process(to);
    for i in 0..n {
        let dst = w.alloc_buffer(to, rx, BYTES, 0).expect("rx buffer");
        w.input(to, InputRequest::app(Semantics::Copy, vc, rx, dst, BYTES))
            .expect("input");
        let src = w.alloc_buffer(from, tx, BYTES, 0).expect("tx buffer");
        w.app_write(from, tx, src, &[i as u8; BYTES])
            .expect("write");
        w.output(
            from,
            OutputRequest::new(Semantics::Copy, vc, tx, src, BYTES),
        )
        .expect("output");
    }
    w.run();
    assert_eq!(w.take_completed_inputs().len(), n, "every datagram arrives");
}

/// Wire-track spans recorded so far, counted per `(owner, name)`.
fn wire_spans(w: &mut World) -> BTreeMap<(String, &'static str), usize> {
    let mut spans = BTreeMap::new();
    for (owner, events) in w.take_trace().owners {
        for e in events.iter().filter(|e| e.track == Track::Wire) {
            *spans.entry((owner.clone(), e.name)).or_default() += 1;
        }
    }
    spans
}

fn expect(rows: &[(&str, &'static str, usize)]) -> BTreeMap<(String, &'static str), usize> {
    rows.iter()
        .map(|&(owner, name, n)| ((owner.to_string(), name), n))
        .collect()
}

#[test]
fn passthrough_exchange_records_one_span_per_direction() {
    let mut w = World::new(WorldConfig::default());
    w.enable_tracing(true);
    exchange(&mut w, HostId::A, HostId::B, Vc(1), 2);
    exchange(&mut w, HostId::B, HostId::A, Vc(2), 1);
    assert_eq!(
        wire_spans(&mut w),
        expect(&[("link", "wire A→B", 2), ("link", "wire B→A", 1)])
    );
}

#[test]
fn switched_exchange_records_both_hops() {
    let sw = SwitchConfig::new(2, 256)
        .route(0, 1, &[1])
        .route(1, 2, &[0]);
    let mut w = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 2, sw));
    w.enable_tracing(true);
    exchange(&mut w, HostId::A, HostId::B, Vc(1), 2);
    exchange(&mut w, HostId::B, HostId::A, Vc(2), 1);
    assert_eq!(
        wire_spans(&mut w),
        expect(&[
            ("host A", "wire switch→host", 1),
            ("host B", "wire switch→host", 2),
            ("link", "wire host→switch", 3),
        ])
    );
}

#[test]
fn retransmissions_appear_on_the_wire_track() {
    const N: usize = 3;
    let mut w = World::new(WorldConfig {
        fault: FaultConfig {
            seed: 5,
            cell_corrupt_per_mille: 1_000,
            max_faults: 2,
            ..FaultConfig::none()
        },
        ..WorldConfig::default()
    });
    w.enable_tracing(true);
    exchange(&mut w, HostId::A, HostId::B, Vc(1), N);
    let retransmits = w.fault_stats().retransmits as usize;
    assert!(retransmits > 0, "the corrupted PDUs must be resent");
    assert_eq!(
        wire_spans(&mut w),
        expect(&[("link", "wire A→B", N + retransmits)])
    );
}
