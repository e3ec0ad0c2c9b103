//! Property tests of the switched fabric, independent of the
//! model-differential harness (a harness bug must not be able to mask
//! a fabric bug — this file drives `World` directly).
//!
//! Three invariants, each over randomized topologies and 100+ seeds
//! (`GENIE_SWITCH_PROP_SEEDS` overrides the count), plus a bound on
//! the event loop's resident queue on a fixed star:
//!
//! - **Conservation.** Every PDU injected at switch ingress is
//!   dispatched to exactly its fan-out's worth of destinations and
//!   delivered to a posted receive; at quiesce no output-port FIFO
//!   holds a stranded PDU. (With faults in play, damaged PDUs forward
//!   through the switch as markers and are re-sent — the fault-swarm
//!   suite covers that half; here the ledgers must balance exactly.)
//! - **Per-VC FIFO across hops.** Deliveries on one VC complete in
//!   send order, end to end — sender adapter, ingress queue, port
//!   FIFO, egress wire — even while other VCs contend for the same
//!   output port.
//! - **Credit bounds.** `(port, VC)` egress credits never exceed the
//!   configured allotment, and every consumed credit is returned by
//!   quiesce. A blocked port waits for credit-return wakes instead of
//!   polling, so its stall count is bounded by enqueues plus dispatches.

use genie::{Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::XorShift64;
use genie_machine::MachineSpec;
use genie_mem::Fnv64;
use genie_net::{SwitchConfig, SwitchStats, Vc};

fn seed_count() -> u64 {
    std::env::var("GENIE_SWITCH_PROP_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(120)
}

/// A randomized topology: `(config, routes)` where every route owns a
/// unique VC (one sender per VC).
fn random_topology(hosts: u16, rng: &mut XorShift64) -> (SwitchConfig, Vec<(u16, u32, Vec<u16>)>) {
    let port_credit = 128 + 128 * rng.below(3) as u32;
    let mut cfg = SwitchConfig::new(hosts, port_credit);
    let n_routes = usize::from(hosts) + rng.below(u64::from(hosts)) as usize;
    let mut routes = Vec::new();
    for r in 0..n_routes {
        let src = rng.below(u64::from(hosts)) as u16;
        let fan = if rng.below(5) == 0 {
            (2 + rng.below(2)).min(u64::from(hosts) - 1)
        } else {
            1
        };
        let mut dsts = Vec::new();
        let mut cand = rng.below(u64::from(hosts)) as u16;
        while dsts.len() < fan as usize {
            if cand != src && !dsts.contains(&cand) {
                dsts.push(cand);
            }
            cand = (cand + 1) % hosts;
        }
        let vc = 700 + r as u32;
        cfg = cfg.route(src, vc, &dsts);
        routes.push((src, vc, dsts));
    }
    (cfg, routes)
}

/// A stall is one `PortDrain` that found the head blocked, and drains
/// come only from ingress kicks (at most one per PDU or multicast
/// replica enqueued) and credit-return wakes (at most one per
/// dispatched PDU's arrival). A blocked port is never polled, so the
/// stall count cannot exceed them.
fn assert_stalls_bounded_by_wakes(stats: &SwitchStats, ctx: &str) {
    let kicks = stats.pdus_ingress + stats.pdus_replicated;
    assert!(
        stats.credit_stalls <= kicks + stats.pdus_dispatched,
        "{ctx}: {} credit stalls exceed {kicks} ingress kicks + {} credit-return wakes",
        stats.credit_stalls,
        stats.pdus_dispatched
    );
}

struct RunOutcome {
    sends: usize,
    deliveries: usize,
    fanout_total: usize,
}

/// Drives one seeded run: a burst of sends spread over the routes,
/// receives posted up front, one `run()` to quiesce — then checks all
/// three invariants. Returns counts so sweeps can assert
/// non-vacuousness.
fn run_one(seed: u64) -> RunOutcome {
    let mut rng = XorShift64::new(seed.wrapping_mul(0xd6e8_feb8_6659_fd93).wrapping_add(1));
    let hosts = 2 + rng.below(7) as u16; // 2..=8 hosts
    let (cfg, routes) = random_topology(hosts, &mut rng);
    let port_credit = cfg.port_credit;
    let semantics = Semantics::ALL[rng.below(Semantics::ALL.len() as u64) as usize];
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(hosts),
        cfg,
    ));
    let spaces: Vec<_> = (0..hosts).map(|h| w.create_process(HostId(h))).collect();

    // Plan sends: up to 3 per route (bounded so unposted backlog never
    // outruns the adapter overlay pool — receives are posted first).
    let mut plan: Vec<(usize, usize)> = Vec::new(); // (route index, len)
    for (r, _) in routes.iter().enumerate() {
        for _ in 0..=rng.below(3) {
            plan.push((r, 1 + rng.below(2800) as usize));
        }
    }

    // Post every receive up front, remembering token -> (host, vc) and
    // the expected arrival index per (host, vc).
    let mut tokens = std::collections::BTreeMap::new();
    for &(r, len) in &plan {
        let (_src, vc, dsts) = &routes[r];
        for &d in dsts {
            let space = spaces[usize::from(d)];
            let req = match semantics.allocation() {
                Allocation::Application => {
                    let dst = w.alloc_buffer(HostId(d), space, len, 0).expect("dst");
                    InputRequest::app(semantics, Vc(*vc), space, dst, len)
                }
                Allocation::System => InputRequest::system(semantics, Vc(*vc), space, len),
            };
            let tok = w.input(HostId(d), req).expect("input");
            tokens.insert(tok, (d, *vc));
        }
    }

    // Issue every send, tagging payload byte 0 with the per-VC send
    // index so FIFO violations are visible in the data itself.
    let mut per_vc_sends: std::collections::BTreeMap<u32, u8> = std::collections::BTreeMap::new();
    let mut fanout_total = 0usize;
    for &(r, len) in &plan {
        let (src, vc, dsts) = &routes[r];
        let idx = per_vc_sends.entry(*vc).or_insert(0);
        let tag = *idx;
        *idx += 1;
        let space = spaces[usize::from(*src)];
        let vaddr = match semantics.allocation() {
            Allocation::Application => w.alloc_buffer(HostId(*src), space, len, 0).expect("src"),
            Allocation::System => {
                w.host_mut(HostId(*src))
                    .alloc_io_buffer(space, len)
                    .expect("src io")
                    .1
            }
        };
        let mut data = vec![tag; len.min(1)];
        data.resize(len, tag ^ 0x5a);
        w.app_write(HostId(*src), space, vaddr, &data)
            .expect("fill");
        w.output(
            HostId(*src),
            OutputRequest::new(semantics, Vc(*vc), space, vaddr, len),
        )
        .expect("output");
        fanout_total += dsts.len();
    }

    w.run();

    // Per-VC FIFO: at each destination, tags and wire sequence numbers
    // must both arrive in increasing order per VC.
    let done = w.take_completed_inputs();
    assert_eq!(
        done.len(),
        fanout_total,
        "seed {seed}: conservation — {} deliveries for {} routed copies",
        done.len(),
        fanout_total
    );
    let mut last_seen: std::collections::BTreeMap<(u16, u32), (u8, u32)> =
        std::collections::BTreeMap::new();
    for c in &done {
        let &(host, vc) = tokens.get(&c.token).expect("known token");
        let first = w
            .read_app(HostId(host), spaces[usize::from(host)], c.vaddr, 1)
            .expect("delivery readable")[0];
        if let Some(&(prev_tag, prev_seq)) = last_seen.get(&(host, vc)) {
            assert!(
                first == prev_tag + 1 && c.seq > prev_seq,
                "seed {seed}: per-VC FIFO violated at host {host} vc {vc}: \
                 tag {prev_tag} then {first} (seq {prev_seq} then {})",
                c.seq
            );
        } else {
            assert_eq!(
                first, 0,
                "seed {seed}: first delivery on host {host} vc {vc} is not send #0"
            );
        }
        last_seen.insert((host, vc), (first, c.seq));
    }

    // Conservation inside the switch, and credits fully returned.
    let sw = w.switch().expect("switched world");
    let stats = sw.stats();
    assert_eq!(
        stats.pdus_ingress + stats.pdus_replicated,
        stats.pdus_dispatched,
        "seed {seed}: switch ledger does not balance"
    );
    assert_eq!(stats.pdus_ingress as usize, plan.len(), "seed {seed}");
    assert_eq!(stats.pdus_dispatched as usize, fanout_total, "seed {seed}");
    assert_stalls_bounded_by_wakes(&stats, &format!("seed {seed}"));
    for port in 0..hosts {
        assert_eq!(
            sw.queue_len(port),
            0,
            "seed {seed}: PDUs stranded in port {port} at quiesce"
        );
    }
    for (_src, vc, dsts) in &routes {
        for &d in dsts {
            let avail = sw.credits_available(d, *vc);
            assert!(
                avail <= port_credit,
                "seed {seed}: port {d} vc {vc} holds {avail} credits, limit {port_credit}"
            );
            assert_eq!(
                avail, port_credit,
                "seed {seed}: port {d} vc {vc} leaked credits at quiesce"
            );
        }
    }
    RunOutcome {
        sends: plan.len(),
        deliveries: done.len(),
        fanout_total,
    }
}

#[test]
fn conservation_fifo_and_credits_over_randomized_topologies() {
    let seeds: Vec<u64> = (0..seed_count()).collect();
    let outcomes = genie_runner::map(&seeds, |&seed| run_one(seed));
    // The sweep is not vacuous: data flowed on every seed, and
    // multicast fan-out occurred somewhere.
    let sends: usize = outcomes.iter().map(|o| o.sends).sum();
    let deliveries: usize = outcomes.iter().map(|o| o.deliveries).sum();
    let fanout: usize = outcomes.iter().map(|o| o.fanout_total).sum();
    assert!(outcomes.iter().all(|o| o.sends > 0));
    assert!(sends >= seeds.len());
    assert!(
        fanout > sends,
        "no multicast fan-out across the whole sweep ({fanout} copies, {sends} sends)"
    );
    assert_eq!(deliveries, fanout);
}

#[test]
fn head_of_line_stall_preserves_port_order() {
    // A deliberately tight credit budget on a 3-host fan-in: two VCs
    // share host 0's port; VC a's pipeline exceeds its credit
    // allotment, so the port stalls head-of-line. Deliveries must
    // still be per-VC FIFO, and the stall counter must show the
    // backpressure actually happened.
    const LEN: usize = 2048; // ~44 cells
    let cfg = SwitchConfig::new(3, 64)
        .route(1, 900, &[0])
        .route(2, 901, &[0]);
    let mut w = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 3, cfg));
    let s0 = w.create_process(HostId(0));
    let s1 = w.create_process(HostId(1));
    let s2 = w.create_process(HostId(2));
    let mut order = std::collections::BTreeMap::new();
    for k in 0..4u64 {
        for (vc, _src) in [(900u32, 1u16), (901, 2)] {
            let tok = w
                .input(
                    HostId(0),
                    InputRequest::system(Semantics::Move, Vc(vc), s0, LEN),
                )
                .expect("input");
            order.insert(tok, (vc, k));
        }
    }
    for k in 0..4u64 {
        for (vc, src, space) in [(900u32, HostId(1), s1), (901, HostId(2), s2)] {
            let (_r, vaddr) = w.host_mut(src).alloc_io_buffer(space, LEN).expect("io");
            let data = vec![(k as u8) | 0x10; LEN];
            w.app_write(src, space, vaddr, &data).expect("fill");
            w.output(
                src,
                OutputRequest::new(Semantics::Move, Vc(vc), space, vaddr, LEN),
            )
            .expect("output");
        }
    }
    w.run();
    let done = w.take_completed_inputs();
    assert_eq!(done.len(), 8);
    let mut next = std::collections::BTreeMap::from([(900u32, 0u64), (901, 0)]);
    for c in &done {
        let &(vc, k) = order.get(&c.token).expect("token");
        let want = next.get_mut(&vc).unwrap();
        assert_eq!(k, *want, "vc {vc} delivered out of order");
        *want += 1;
    }
    let stats = w.switch_stats().expect("switched");
    assert!(
        stats.credit_stalls > 0,
        "4 x ~44 cells against 64 credits must stall at least once"
    );
    assert_eq!(stats.pdus_dispatched, 8);
    assert_stalls_bounded_by_wakes(&stats, "head-of-line fan-in");
    // Egress timing under heavy stalling is pinned: the credit-return
    // wakes alone must reproduce the latencies the port had when it
    // was also polled every 50 us while blocked.
    let mut fp = Fnv64::new();
    for c in &done {
        fp.write_u64(c.latency.0);
    }
    assert_eq!(
        fp.finish(),
        0x2ebe_925e_772b_ff7d,
        "head-of-line completion latencies moved"
    );
}

#[test]
fn starved_single_vc_port_dispatches_on_the_credit_return_wake() {
    // Six 2 KB datagrams (~44 cells each) down one VC of a 2-host
    // chain with 64 cells of egress credit: every PDU after the first
    // waits for its predecessor's credits. The ledger is credited at
    // arrival, but the port acts only when the credit-return message
    // has crossed the wire, one fixed latency later. The sixth PDU
    // used to leave up to that latency early, at 916.729 us, because a
    // 50 us stall poll could land between the credit return and its
    // wake; it now waits for the wake.
    const LEN: usize = 2048;
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        2,
        SwitchConfig::chain(2, 300, 64),
    ));
    let s0 = w.create_process(HostId(0));
    let s1 = w.create_process(HostId(1));
    for _ in 0..6 {
        w.input(
            HostId(1),
            InputRequest::system(Semantics::Move, Vc(300), s1, LEN),
        )
        .expect("input");
    }
    for k in 0..6u8 {
        let (_r, vaddr) = w.host_mut(HostId(0)).alloc_io_buffer(s0, LEN).expect("io");
        w.app_write(HostId(0), s0, vaddr, &[k; LEN]).expect("fill");
        w.output(
            HostId(0),
            OutputRequest::new(Semantics::Move, Vc(300), s0, vaddr, LEN),
        )
        .expect("output");
    }
    w.run();
    let latencies: Vec<u64> = w
        .take_completed_inputs()
        .iter()
        .map(|c| c.latency.0)
        .collect();
    assert_eq!(
        latencies,
        [
            516_975_481,
            598_253_340,
            679_531_199,
            760_809_058,
            842_086_917,
            923_364_776
        ],
        "single-VC egress latencies (ps) moved"
    );
    let stats = w.switch_stats().expect("switched");
    assert!(stats.credit_stalls > 0, "the port never blocked");
    assert_stalls_bounded_by_wakes(&stats, "single-VC chain");
}

#[test]
fn star_and_chain_builders_route_every_host() {
    // The canned topology builders wire what they claim: on a star,
    // every spoke reaches the hub and back; on a chain, each hop
    // reaches its successor.
    let star = SwitchConfig::star(5, 0, 100, 256);
    let mut w = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 5, star));
    for spoke in 1..5u16 {
        assert_eq!(
            w.route_dst(HostId(spoke), Vc(100 + u32::from(spoke))),
            HostId(0)
        );
    }
    let chain = SwitchConfig::chain(4, 200, 256);
    let mut wc = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 4, chain));
    for i in 0..3u16 {
        assert_eq!(
            wc.route_dst(HostId(i), Vc(200 + u32::from(i))),
            HostId(i + 1)
        );
    }
    // Unrelated worlds stay quiet: no events pending before any I/O.
    w.run();
    wc.run();
}

/// Resident event memory stays bounded: the event loop's high-water
/// mark of queued events is pinned against the traffic volume, so a
/// leak in event scheduling shows up as a blown bound rather than
/// silent RSS growth.
#[test]
fn resident_event_memory_is_bounded() {
    const HOSTS: u16 = 8;
    const VC_BASE: u32 = 700;
    let mut rng = XorShift64::new(0xDE7E_2215u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    // Spokes fan into the hub; the hub answers every spoke.
    let mut traffic = Vec::new();
    for spoke in 1..HOSTS {
        for _ in 0..4 {
            let len = 1 + rng.below(2600) as usize;
            traffic.push((spoke, 0, VC_BASE + u32::from(spoke), len));
        }
        for _ in 0..3 {
            let len = 1 + rng.below(2600) as usize;
            traffic.push((0, spoke, VC_BASE + u32::from(HOSTS + spoke), len));
        }
    }
    let sw = SwitchConfig::star(HOSTS, 0, VC_BASE, 256);
    let mut w = World::new(WorldConfig {
        frames_per_host: 1024,
        ..WorldConfig::switched(MachineSpec::micron_p166(), usize::from(HOSTS), sw)
    });
    let sem = Semantics::Copy;
    let spaces: Vec<_> = (0..HOSTS).map(|h| w.create_process(HostId(h))).collect();
    for &(_src, dst, vc, len) in &traffic {
        let space = spaces[usize::from(dst)];
        let buf = w.alloc_buffer(HostId(dst), space, len, 0).expect("dst buf");
        w.input(HostId(dst), InputRequest::app(sem, Vc(vc), space, buf, len))
            .expect("post input");
    }
    for (i, &(src, _dst, vc, len)) in traffic.iter().enumerate() {
        let space = spaces[usize::from(src)];
        let src_buf = w.alloc_buffer(HostId(src), space, len, 0).expect("src buf");
        w.app_write(HostId(src), space, src_buf, &vec![i as u8; len])
            .expect("fill");
        w.output(
            HostId(src),
            OutputRequest::new(sem, Vc(vc), space, src_buf, len),
        )
        .expect("output");
    }
    w.run();
    assert_eq!(w.take_completed_inputs().len(), traffic.len());
    let peak = w.peak_resident_events();
    assert!(peak > 0, "the event loop must track residency");
    // Each datagram contributes a handful of events (transmit,
    // ingress, drain, arrival, completion); a factor of 8 over the
    // datagram count is already generous.
    assert!(
        peak <= traffic.len() * 8,
        "peak resident {peak} for {} datagrams",
        traffic.len()
    );
}
