//! Network-layer edge cases through the full stack: unsolicited
//! arrivals, buffer exhaustion and drops, credit-based flow control,
//! and maximum-size datagrams.

use genie::{GenieError, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_machine::link::cells_for_payload;
use genie_machine::MachineSpec;
use genie_net::{InputBuffering, SwitchConfig, Vc, HEADER_LEN};

#[test]
fn unsolicited_datagram_is_backlogged_then_delivered() {
    // The sender transmits before the receiver posts any input: the
    // PDU lands in overlay pages (pooled fallback of early demux) and
    // completes the input that arrives later.
    let mut world = World::new(WorldConfig::default());
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let data = vec![0x3cu8; 10_000];
    let src = world
        .alloc_buffer(HostId::A, tx, data.len(), 0)
        .expect("src");
    world.app_write(HostId::A, tx, src, &data).expect("fill");
    world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::EmulatedCopy, Vc(1), tx, src, data.len()),
        )
        .expect("output");
    world.run();
    assert!(
        world.take_completed_inputs().is_empty(),
        "nothing posted yet"
    );
    // Now the application asks for input: completes immediately from
    // the backlog.
    let dst = world
        .alloc_buffer(HostId::B, rx, data.len(), 0)
        .expect("dst");
    world
        .input(
            HostId::B,
            InputRequest::app(Semantics::EmulatedCopy, Vc(1), rx, dst, data.len()),
        )
        .expect("late input");
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 1);
    let got = world
        .read_app(HostId::B, rx, done[0].vaddr, done[0].len)
        .expect("read");
    assert_eq!(got, data);
}

#[test]
fn early_demux_output_before_input_falls_back_to_the_pool_once() {
    // Early demux DMAs into the buffer of the pending input; with none
    // pending the PDU goes through the overlay pool instead, and the
    // adapter counts that fallback exactly once.
    let mut world = World::new(WorldConfig::default());
    assert_eq!(
        world.host(HostId::B).adapter.mode(),
        InputBuffering::EarlyDemux
    );
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let data: Vec<u8> = (0..6000u32).map(|i| (i * 13) as u8).collect();
    let src = world
        .alloc_source(HostId::A, tx, Semantics::Copy, &data)
        .expect("src");
    world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, src, data.len()),
        )
        .expect("output");
    world.run();
    assert!(world.take_completed_inputs().is_empty(), "no input yet");
    let stats = world.host(HostId::B).adapter.stats();
    assert_eq!(stats.pooled_fallbacks, 1);
    // Header plus 6000 bytes span two overlay pages.
    assert_eq!(stats.pool_takes, 2);
    assert_eq!(
        world.metrics().counter("host_b.adapter.pooled_fallbacks"),
        1
    );

    let token = world
        .post_receive(HostId::B, rx, Semantics::Copy, Vc(1), data.len(), 0)
        .expect("late input");
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].token, token);
    assert!(world
        .app_matches(HostId::B, rx, done[0].vaddr, &data)
        .expect("read"));
    // Completing from the backlog takes nothing from the pool again.
    assert_eq!(world.host(HostId::B).adapter.stats().pooled_fallbacks, 1);
}

#[test]
fn unsolicited_datagrams_complete_in_arrival_order() {
    let mut world = World::new(WorldConfig::default());
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    for i in 0..3u8 {
        let src = world.alloc_buffer(HostId::A, tx, 256, 0).expect("src");
        world
            .app_write(HostId::A, tx, src, &[i + 1; 256])
            .expect("fill");
        world
            .output(
                HostId::A,
                OutputRequest::new(Semantics::Copy, Vc(1), tx, src, 256),
            )
            .expect("output");
    }
    world.run();
    for i in 0..3u8 {
        let dst = world.alloc_buffer(HostId::B, rx, 256, 0).expect("dst");
        world
            .input(
                HostId::B,
                InputRequest::app(Semantics::Copy, Vc(1), rx, dst, 256),
            )
            .expect("input");
        let done = world.take_completed_inputs();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, u32::from(i));
        let got = world
            .read_app(HostId::B, rx, done[0].vaddr, done[0].len)
            .expect("read");
        assert!(got.iter().all(|&b| b == i + 1));
    }
}

#[test]
fn pool_exhaustion_drops_and_input_survives_for_the_next_pdu() {
    // Tiny overlay pool: an 8 KB PDU at most.
    let genie_cfg = genie::GenieConfig {
        overlay_pool_pages: 2,
        ..genie::GenieConfig::default()
    };
    let cfg = WorldConfig {
        rx_buffering: InputBuffering::Pooled,
        genie: genie_cfg,
        ..WorldConfig::default()
    };
    let mut world = World::new(cfg);
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let dst = world.alloc_buffer(HostId::B, rx, 20_000, 0).expect("dst");
    world
        .input(
            HostId::B,
            InputRequest::app(Semantics::Copy, Vc(1), rx, dst, 20_000),
        )
        .expect("prepost");
    // A 20 KB PDU cannot fit a 2-page pool: dropped.
    let src = world.alloc_buffer(HostId::A, tx, 20_000, 0).expect("src");
    world
        .app_write(HostId::A, tx, src, &vec![1u8; 20_000])
        .expect("fill");
    world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, src, 20_000),
        )
        .expect("output");
    world.run();
    assert!(world.take_completed_inputs().is_empty(), "PDU must drop");
    assert_eq!(
        world.host(HostId::B).adapter.stats().pool_exhausted_drops,
        1
    );
    // A small PDU still gets through to the SAME pending input.
    let src2 = world.alloc_buffer(HostId::A, tx, 4000, 0).expect("src2");
    world
        .app_write(HostId::A, tx, src2, &vec![2u8; 4000])
        .expect("fill");
    world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, src2, 4000),
        )
        .expect("output");
    world.run();
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].len, 4000);
}

#[test]
fn credit_exhaustion_stalls_then_recovers() {
    // One 60 KB PDU is 1281 cells; give credit for barely two PDUs.
    let cfg = WorldConfig {
        credit_limit: 2600,
        ..WorldConfig::default()
    };
    let mut world = World::new(cfg);
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let n = 4usize;
    for _ in 0..n {
        world
            .input(
                HostId::B,
                InputRequest::system(Semantics::EmulatedWeakMove, Vc(1), rx, 61_440),
            )
            .expect("prepost");
    }
    for i in 0..n {
        let (_r, src) = world
            .host_mut(HostId::A)
            .alloc_io_buffer(tx, 61_440)
            .expect("io buffer");
        world
            .app_write(HostId::A, tx, src, &vec![i as u8 + 1; 61_440])
            .expect("fill");
        world
            .output(
                HostId::A,
                OutputRequest::new(Semantics::EmulatedWeakMove, Vc(1), tx, src, 61_440),
            )
            .expect("output");
    }
    world.run();
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), n, "all datagrams eventually delivered");
    let sends = world.take_completed_outputs();
    let stalls: u32 = sends.iter().map(|s| s.credit_stalls).sum();
    assert!(stalls > 0, "the third/fourth sends must have stalled");
    // In-order delivery held despite the stalls.
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.seq as usize, i);
    }
}

/// Sends `len` bytes from `from` to `to` on `vc` with copy semantics
/// and returns the output's result; on success, runs the world and
/// checks the bytes arrived.
fn copy_send(
    world: &mut World,
    from: HostId,
    to: HostId,
    vc: Vc,
    len: usize,
) -> Result<(), GenieError> {
    let tx = world.create_process(from);
    let rx = world.create_process(to);
    let data = vec![0x5au8; len];
    let src = world
        .alloc_source(from, tx, Semantics::Copy, &data)
        .expect("src");
    world.output(from, OutputRequest::new(Semantics::Copy, vc, tx, src, len))?;
    world
        .post_receive(to, rx, Semantics::Copy, vc, len, 0)
        .expect("input");
    world.run();
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 1);
    assert!(world
        .app_matches(to, rx, done[0].vaddr, &data)
        .expect("read"));
    Ok(())
}

#[test]
fn a_pdu_larger_than_the_vc_credit_limit_is_rejected() {
    // Without the check the sender re-polls for credit forever and
    // `run` never returns.
    let mut world = World::new(WorldConfig {
        credit_limit: 8,
        ..WorldConfig::default()
    });
    let cells = cells_for_payload(1000 + HEADER_LEN) as u32;
    assert!(cells > 8);
    let err = copy_send(&mut world, HostId::A, HostId::B, Vc(1), 1000).unwrap_err();
    assert_eq!(
        err,
        GenieError::ExceedsCredit {
            cells,
            allotment: 8
        }
    );
    world.run();
    // A PDU within the limit still goes through.
    copy_send(&mut world, HostId::A, HostId::B, Vc(1), 200).expect("fits");
}

#[test]
fn a_pdu_larger_than_a_switch_port_credit_is_rejected() {
    // Without the check the PDU would strand the hub's egress port.
    let sw = SwitchConfig::star(3, 0, 1, 16);
    let mut world = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 3, sw));
    let cells = cells_for_payload(2000 + HEADER_LEN) as u32;
    assert!(cells > 16);
    let err = copy_send(&mut world, HostId(1), HostId(0), Vc(2), 2000).unwrap_err();
    assert_eq!(
        err,
        GenieError::ExceedsCredit {
            cells,
            allotment: 16
        }
    );
    world.run();
    copy_send(&mut world, HostId(1), HostId(0), Vc(2), 500).expect("fits");
}

#[test]
fn max_and_min_datagram_sizes() {
    let mut world = World::new(WorldConfig::default());
    let tx = world.create_process(HostId::A);
    let src = world.alloc_buffer(HostId::A, tx, 70_000, 0).expect("src");
    // Too long for AAL5 (with header).
    let err = world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, src, 65_536),
        )
        .unwrap_err();
    assert!(matches!(err, GenieError::TooLong(_)));
    // Zero length is rejected.
    let err = world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, src, 0),
        )
        .unwrap_err();
    assert_eq!(err, GenieError::Empty);
    // The largest legal payload goes through.
    let rx = world.create_process(HostId::B);
    let max = 65_535 - HEADER_LEN;
    let dst = world.alloc_buffer(HostId::B, rx, max, 0).expect("dst");
    world
        .input(
            HostId::B,
            InputRequest::app(Semantics::Copy, Vc(1), rx, dst, max),
        )
        .expect("prepost");
    let big = world.alloc_buffer(HostId::A, tx, max, 0).expect("big");
    world
        .app_write(HostId::A, tx, big, &vec![0xabu8; max])
        .expect("fill");
    world
        .output(
            HostId::A,
            OutputRequest::new(Semantics::Copy, Vc(1), tx, big, max),
        )
        .expect("output");
    world.run();
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].len, max);
}

#[test]
fn buffer_kind_mismatches_are_rejected() {
    let mut world = World::new(WorldConfig::default());
    let rx = world.create_process(HostId::B);
    // App-allocated semantics without a buffer.
    let err = world
        .input(
            HostId::B,
            InputRequest::system(Semantics::Copy, Vc(1), rx, 100),
        )
        .unwrap_err();
    assert!(matches!(err, GenieError::BufferMismatch(_)));
    // System-allocated semantics with a buffer.
    let dst = world.alloc_buffer(HostId::B, rx, 100, 0).expect("dst");
    let err = world
        .input(
            HostId::B,
            InputRequest::app(Semantics::Move, Vc(1), rx, dst, 100),
        )
        .unwrap_err();
    assert!(matches!(err, GenieError::BufferMismatch(_)));
}

#[test]
fn distinct_vcs_do_not_interfere() {
    let mut world = World::new(WorldConfig::default());
    let tx = world.create_process(HostId::A);
    let rx = world.create_process(HostId::B);
    let d1 = world.alloc_buffer(HostId::B, rx, 1000, 0).expect("d1");
    let d2 = world.alloc_buffer(HostId::B, rx, 1000, 0).expect("d2");
    world
        .input(
            HostId::B,
            InputRequest::app(Semantics::Copy, Vc(7), rx, d1, 1000),
        )
        .expect("prepost vc7");
    world
        .input(
            HostId::B,
            InputRequest::app(Semantics::Copy, Vc(9), rx, d2, 1000),
        )
        .expect("prepost vc9");
    for (vc, tag) in [(Vc(9), 9u8), (Vc(7), 7u8)] {
        let src = world.alloc_buffer(HostId::A, tx, 1000, 0).expect("src");
        world
            .app_write(HostId::A, tx, src, &[tag; 1000])
            .expect("fill");
        world
            .output(
                HostId::A,
                OutputRequest::new(Semantics::Copy, vc, tx, src, 1000),
            )
            .expect("output");
    }
    world.run();
    let done = world.take_completed_inputs();
    assert_eq!(done.len(), 2);
    let read = |w: &mut World, va| w.read_app(HostId::B, rx, va, 1000).expect("read");
    assert!(read(&mut world, d1).iter().all(|&b| b == 7));
    assert!(read(&mut world, d2).iter().all(|&b| b == 9));
}
