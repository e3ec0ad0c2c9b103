//! Host-side microbenchmarks for the wire datapath.
//!
//! Times the host primitives the simulator spends its wall clock in —
//! CRC-32 and the 16-bit datagram checksum over a 60 KB PDU, the cell
//! codec (segment/reassemble into reused buffers), event-queue churn,
//! region churn, a warm TCOW write fault, a full 60 KB simulated
//! exchange, a warm context re-measuring a whole emulated-move sweep
//! and a warm 252-datagram star fan-in wave — and records the
//! results as a
//! `datapath_ns` section in `BENCH_report.json` so the perf trajectory
//! is tracked across PRs. These are *host wall-clock* numbers; the
//! simulated latencies the paper cares about are unaffected by them.
//!
//! Usage: `datapath [--quick] [--out PATH]`. `--quick` runs few
//! iterations (CI smoke); the default iteration counts give stable
//! means on an idle machine.

use std::collections::VecDeque;

use genie::{
    measure_latency, ExperimentSetup, HostId, OutputRequest, Semantics, SeriesContext, World,
    WorldConfig, ALL_SEMANTICS,
};
use genie_bench::timing::{time_named, Timing};
use genie_machine::{MachineSpec, SimTime};
use genie_mem::{IoDir, PhysMem};
use genie_net::aal5;
use genie_net::event::EventQueue;
use genie_net::{checksum16, SwitchConfig, Vc};
use genie_trace::json::{self, Json, Layout, Writer};
use genie_vm::{Access, RegionHandle, RegionMark, Vm};

const PDU_60K: usize = 61_440;

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_report.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let iters = |full: u32| if quick { 5 } else { full };
    let payload: Vec<u8> = (0..PDU_60K).map(|i| (i * 31 + 7) as u8).collect();
    let mut results: Vec<Timing> = Vec::new();

    results.push(time_named("datapath/crc32_60k", iters(300), || {
        std::hint::black_box(aal5::crc32(std::hint::black_box(&payload)));
    }));

    results.push(time_named("datapath/checksum16_60k", iters(300), || {
        std::hint::black_box(checksum16(std::hint::black_box(&payload)));
    }));

    let mut cells = Vec::new();
    results.push(time_named("datapath/segment_60k", iters(200), || {
        aal5::segment_into(1, std::hint::black_box(&payload), &mut cells);
        std::hint::black_box(&cells);
    }));

    aal5::segment_into(1, &payload, &mut cells);
    let mut pdu = Vec::new();
    results.push(time_named("datapath/reassemble_60k", iters(200), || {
        aal5::reassemble_into(std::hint::black_box(&cells), &mut pdu).expect("reassemble");
        std::hint::black_box(&pdu);
    }));

    // Event-queue microbenchmarks: steady-state hold-model churn (pop
    // the earliest event, reschedule it a pseudo-random delta later)
    // at two pending-set sizes, and a same-instant burst where FIFO
    // tie-breaking does the work. One timed call covers many queue
    // operations so the per-call cost is well above timer resolution.
    for (name, pending, full) in [
        ("datapath/event_churn_1k", 1_000u64, 200),
        ("datapath/event_churn_100k", 100_000u64, 40),
    ] {
        let mut q = EventQueue::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..pending {
            q.push(SimTime(xorshift64(&mut rng) % 1_000_000_000), i);
        }
        results.push(time_named(name, iters(full), || {
            // 1000 pop+push pairs per timed call.
            for _ in 0..1000 {
                let (t, e) = q.pop().expect("queue never drains");
                let delta = xorshift64(&mut rng) % 1_000_000 + 1;
                q.push(SimTime(t.0 + delta), e);
            }
        }));
    }
    {
        let mut q = EventQueue::new();
        results.push(time_named(
            "datapath/event_burst_same_instant",
            iters(200),
            || {
                // 512 events scheduled for one instant, drained FIFO.
                let t = SimTime(123_456_789);
                for i in 0..512u64 {
                    q.push(t, i);
                }
                for i in 0..512u64 {
                    let (_, e) = q.pop().expect("burst entry");
                    assert_eq!(e, i, "FIFO violated among same-instant events");
                }
            },
        ));
    }

    {
        // The schedule shape a loaded switch generates: bursts of
        // same-instant PortDrain arbitrations across several output
        // ports, each pop immediately rescheduling a short busy_until
        // serialization hop that lands between the other ports'
        // pending decisions. Exercises same-instant FIFO grouping and
        // near-future inserts together, where plain churn exercises
        // neither.
        let mut q = EventQueue::new();
        results.push(time_named(
            "datapath/event_switch_arbitration",
            iters(200),
            || {
                let mut now = 5_000_000u64;
                for round in 0..8u64 {
                    for port in 0..8u64 {
                        let t = SimTime(now + port * 40);
                        for i in 0..16u64 {
                            q.push(t, round * 1000 + port * 16 + i);
                        }
                    }
                    // Drain pass: every decision spawns a wire-slot
                    // hop 7 ticks out, interleaving with the ports
                    // still waiting their turn.
                    for _ in 0..128u64 {
                        let (t, e) = q.pop().expect("arbitration entry");
                        q.push(SimTime(t.0 + 7), e + 100_000);
                    }
                    for _ in 0..128u64 {
                        std::hint::black_box(q.pop().expect("serialized entry"));
                    }
                    now += 10_000;
                }
                assert!(q.pop().is_none(), "arbitration rounds must drain");
            },
        ));
    }

    {
        // Region-table churn: one address space holding ~1k live
        // one-page regions. Each operation allocates a region,
        // write-faults its page in (a covering-region lookup plus a
        // zero fill), resolves it by address, and frees the oldest
        // region — the create/fault/remove cycle every datagram's
        // buffer bookkeeping runs.
        const LIVE: usize = 1_000;
        let mut vm = Vm::new(PhysMem::new(4096, 2 * LIVE));
        let space = vm.create_space();
        let mut live = VecDeque::with_capacity(LIVE + 1);
        let cycle = |vm: &mut Vm, live: &mut VecDeque<RegionHandle>| {
            let h = vm
                .alloc_region(space, 1, RegionMark::Unmovable)
                .expect("alloc region");
            vm.handle_fault(space, h.start_vpn, Access::Write)
                .expect("first-touch fault");
            std::hint::black_box(vm.region_at(space, h.start_vpn * 4096).expect("lookup"));
            live.push_back(h);
        };
        for _ in 0..LIVE {
            cycle(&mut vm, &mut live);
        }
        results.push(time_named("datapath/region_churn", iters(200), || {
            // 1000 alloc/fault/lookup/free cycles per timed call.
            for _ in 0..1000 {
                cycle(&mut vm, &mut live);
                let oldest = live.pop_front().expect("live region");
                vm.remove_region(oldest).expect("free region");
            }
        }));
    }

    {
        // Warm TCOW cycle on one resident page: reference it for
        // output, write-protect it (arming TCOW), then overwrite it
        // while the output is in flight, which copies the page up;
        // completing the output frees the displaced frame. The VM is
        // built once, so every cycle reuses its descriptor list and
        // the frame the previous cycle freed.
        let mut vm = Vm::new(PhysMem::new(4096, 8));
        let space = vm.create_space();
        let va = vm.alloc_app_buffer(space, 4096).expect("buffer");
        vm.write_app(space, va, &[1]).expect("touch");
        let before = vm.stats().tcow_copies;
        let mut cycles = 0u64;
        results.push(time_named("datapath/tcow_write_fault", iters(200), || {
            // 1000 arm/overwrite/complete cycles per timed call.
            for _ in 0..1000 {
                let desc = vm
                    .reference_pages(space, va, 4096, IoDir::Output)
                    .expect("reference");
                vm.write_protect(space, va, 4096);
                vm.write_app(space, va, &[2]).expect("overwrite");
                vm.unreference(desc).expect("complete output");
            }
            cycles += 1000;
        }));
        assert_eq!(
            vm.stats().tcow_copies - before,
            cycles,
            "every overwrite must copy the page up"
        );
    }

    // One full simulated 60 KB exchange, host wall-clock, world built
    // once and reused as the sweeps do. A `SeriesContext` keeps at
    // most one measurement's buffers live at a time (each measurement
    // frees them on completion), so the frame budget stays small; the
    // iteration count is high because a loaded host needs a few
    // hundred calls for the mean to converge on the steady state.
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let calls = iters(500) + 1; // timed iterations plus the warm-up pass
    let mut ctx = SeriesContext::new(&setup, &vec![PDU_60K; calls as usize]);
    results.push(time_named("datapath/exchange_60k_copy", calls - 1, || {
        ctx.measure_latency(Semantics::Copy, PDU_60K)
            .expect("exchange");
    }));

    // The same exchange including world construction and teardown,
    // which one-shot measurements pay every time.
    results.push(time_named(
        "datapath/exchange_60k_fresh_world",
        iters(40),
        || {
            measure_latency(&setup, Semantics::Copy, PDU_60K).expect("exchange");
        },
    ));

    // One warm context measures a whole sweep (`pair_sweep`'s 25
    // sizes, 64 B to 60 KB) twice per call under emulated move, whose
    // moved-out regions enter the region caches. The context's frame
    // budget covers one point, so it can only go on measuring because
    // each cache keeps no more regions than its space asks back for.
    const SWEEP: [usize; 25] = [
        64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 6144, 8192, 12288, 16384, 20480,
        24576, 28672, 32768, 36864, 40960, 45056, 49152, 53248, 57344, 61440,
    ];
    let mut ctx = SeriesContext::new(&setup, &SWEEP);
    results.push(time_named(
        "datapath/series_reuse_emulated_move",
        iters(40),
        || {
            for _ in 0..2 {
                for &bytes in &SWEEP {
                    ctx.measure_latency(Semantics::EmulatedMove, bytes)
                        .expect("exchange");
                }
            }
        },
    ));

    // World build and teardown at fabric scale: a default 64-host
    // star (6144 frames and a 64-frame overlay pool per host), one
    // process per host, then drop. Guards the cost a world pays for
    // simulated memory it never touches.
    results.push(time_named(
        "datapath/world_build_star64",
        iters(100),
        || {
            let sw = SwitchConfig::star(64, 0, 1, 256);
            let mut w = World::new(WorldConfig::switched(MachineSpec::micron_p166(), 64, sw));
            for h in 0..64 {
                std::hint::black_box(w.create_process(HostId(h)));
            }
            drop(std::hint::black_box(w));
        },
    ));

    // One warm fan-in wave on a 64-host star: every spoke sends 4 x
    // 2 KB datagrams into the hub, spoke `i` under semantics `i mod 8`,
    // then the hub verifies and frees each delivery and the spokes free
    // their sources. The world is built once, so the timed waves run
    // the recycled per-datagram path: wire buffers, fault lists,
    // descriptor and frame lists and object page tables all come from
    // the previous wave.
    {
        const HOSTS: u16 = 64;
        const BYTES: usize = 2048;
        const VC_BASE: u32 = 500;
        const HUB: HostId = HostId(0);
        let sw = SwitchConfig::star(HOSTS, 0, VC_BASE, 256);
        let mut w = World::new(WorldConfig::switched(
            MachineSpec::micron_p166(),
            HOSTS.into(),
            sw,
        ));
        let hub = w.create_process(HUB);
        let spokes: Vec<_> = (1..HOSTS).map(|i| w.create_process(HostId(i))).collect();
        let mut srcs = Vec::new();
        let data = &payload[..BYTES];
        results.push(time_named("datapath/star_wave_64", iters(200), || {
            for _ in 0..4 {
                for i in 1..HOSTS {
                    let sem = ALL_SEMANTICS[usize::from(i) % ALL_SEMANTICS.len()];
                    let vc = Vc(VC_BASE + u32::from(i));
                    let off = w.preferred_alignment(HUB, vc).0;
                    w.post_receive(HUB, hub, sem, vc, BYTES, off)
                        .expect("input");
                }
            }
            for _ in 0..4 {
                for i in 1..HOSTS {
                    let sem = ALL_SEMANTICS[usize::from(i) % ALL_SEMANTICS.len()];
                    let (host, space) = (HostId(i), spokes[usize::from(i) - 1]);
                    let src = w
                        .alloc_source(host, space, sem, data)
                        .expect("source buffer");
                    let vc = Vc(VC_BASE + u32::from(i));
                    w.output(host, OutputRequest::new(sem, vc, space, src, BYTES))
                        .expect("output");
                    // Move output removes its region; the spoke unmaps
                    // every other source after the wave.
                    if sem != Semantics::Move {
                        srcs.push((i, src));
                    }
                }
            }
            w.run();
            let done = w.take_completed_inputs();
            assert_eq!(w.take_completed_outputs().len(), done.len());
            assert_eq!(done.len(), 252, "every datagram delivered");
            for c in &done {
                assert!(w.app_matches(HUB, hub, c.vaddr, data).expect("readable"));
                w.host_mut(HUB).free_buffer(hub, c.vaddr).expect("free");
            }
            for (i, src) in srcs.drain(..) {
                w.host_mut(HostId(i))
                    .free_buffer(spokes[usize::from(i) - 1], src)
                    .expect("free source");
            }
        }));
    }

    // Flight-recorder overhead: one 8-host star fan-in with the full
    // observation stack on (tracing, switch port series, per-VC
    // latency, rollups), keeping every flow. Gated against the
    // baseline so the instrumentation path can't quietly get
    // expensive.
    let keep_all = genie::SampleConfig::default();
    results.push(time_named("datapath/trace_overhead", iters(40), || {
        std::hint::black_box(genie::suites::rpc_fanin_observed(
            Semantics::EmulatedCopy,
            7,
            4,
            2048,
            &keep_all,
        ));
    }));

    for t in &results {
        println!("{}", t.line());
    }

    // Rewrite the report at `out_path` with a fresh `datapath_ns`
    // section in place of any older one, or start a new document if
    // there is no file or it does not hold a JSON object. Each
    // benchmark reports its mean and its min: the min is what the
    // perf-regression gate compares, because on a shared machine the
    // mean absorbs unrelated load spikes while the min tracks the code.
    let existing = std::fs::read_to_string(&out_path).ok();
    let members = match existing.as_deref().map(json::parse) {
        Some(Ok(Json::Obj(members))) => members,
        _ => Vec::new(),
    };
    let mut w = Writer::new(2);
    w.object(Layout::Pretty);
    for (k, v) in members.iter().filter(|(k, _)| k != "datapath_ns") {
        w.key(k).value(v, Layout::Pretty);
    }
    w.key("datapath_ns").object(Layout::Pretty);
    for t in &results {
        w.key(t.name.trim_start_matches("datapath/"));
        w.object(Layout::Line);
        w.key("mean").num(format_args!("{:.1}", t.mean_ms * 1e6));
        w.key("min").num(format_args!("{:.1}", t.min_ms * 1e6));
        w.end();
    }
    w.end().end();
    std::fs::write(&out_path, w.finish()).expect("write BENCH_report.json");
    println!("datapath_ns section written to {out_path}");
}
