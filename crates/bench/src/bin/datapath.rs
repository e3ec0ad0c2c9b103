//! Host-side microbenchmarks for the wire datapath.
//!
//! Times the pieces the zero-copy PR optimizes — CRC-32 over a 60 KB
//! PDU, the cell codec (segment/reassemble into reused buffers), and a
//! full 60 KB simulated exchange — and records the results as a
//! `datapath_ns` section in `BENCH_report.json` so the perf trajectory
//! is tracked across PRs. These are *host wall-clock* numbers; the
//! simulated latencies the paper cares about are unaffected by them.
//!
//! Usage: `datapath [--quick] [--out PATH]`. `--quick` runs few
//! iterations (CI smoke); the default iteration counts give stable
//! means on an idle machine.

use std::collections::VecDeque;

use genie::{
    measure_latency, ExperimentSetup, HostId, Semantics, SeriesContext, World, WorldConfig,
};
use genie_bench::timing::{time_named, Timing};
use genie_machine::{MachineSpec, SimTime};
use genie_mem::PhysMem;
use genie_net::aal5;
use genie_net::event::EventQueue;
use genie_net::SwitchConfig;
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

    // Flight-recorder overhead: one 8-host star fan-in with the full
    // observation stack on (tracing, switch port series, per-VC
    // latency, rollups — sampled per GENIE_TRACE_SAMPLE when set,
    // keep-everything otherwise). Gated against the baseline so the
    // instrumentation path can't quietly get expensive.
    results.push(time_named("datapath/trace_overhead", iters(40), || {
        std::hint::black_box(genie::suites::rpc_fanin_observed(
            Semantics::EmulatedCopy,
            7,
            4,
            2048,
        ));
    }));

    for t in &results {
        println!("{}", t.line());
    }

    let section = render_section(&results);
    let merged = match std::fs::read_to_string(&out_path) {
        Ok(existing) => splice_section(&existing, &section),
        Err(_) => format!("{{\n{section}\n}}\n"),
    };
    std::fs::write(&out_path, merged).expect("write BENCH_report.json");
    println!("datapath_ns section written to {out_path}");
}

/// Renders the `datapath_ns` JSON section (no trailing comma/newline).
/// Each benchmark reports its mean and its min: the min is what the
/// perf-regression gate compares, because on a shared machine the mean
/// absorbs unrelated load spikes while the min tracks the code.
fn render_section(results: &[Timing]) -> String {
    let mut s = String::from("  \"datapath_ns\": {\n");
    for (i, t) in results.iter().enumerate() {
        let name = t.name.trim_start_matches("datapath/");
        let comma = if i + 1 < results.len() { "," } else { "" };
        s.push_str(&format!(
            "    \"{}\": {{\"mean\": {:.1}, \"min\": {:.1}}}{}\n",
            name,
            t.mean_ms * 1e6,
            t.min_ms * 1e6,
            comma
        ));
    }
    s.push_str("  }");
    s
}

/// Splices `section` into an existing top-level JSON object, replacing
/// any previous `datapath_ns` section. Text-based on purpose: the
/// report's JSON writer is hand-rolled (no JSON dependency) and emits a
/// known shape.
fn splice_section(existing: &str, section: &str) -> String {
    let body = strip_section(existing, "\"datapath_ns\"");
    let trimmed = body.trim_end();
    let Some(stripped) = trimmed.strip_suffix('}') else {
        // Not a JSON object we recognize; start fresh rather than
        // corrupting the file further.
        return format!("{{\n{section}\n}}\n");
    };
    let inner = stripped.trim_end();
    if inner.ends_with('{') {
        // Empty object.
        format!("{{\n{section}\n}}\n")
    } else {
        format!("{inner},\n{section}\n}}\n")
    }
}

/// Removes a `"key": { ... }` member (and the comma that precedes or
/// follows it) from a JSON object rendered one member per line.
fn strip_section(json: &str, key: &str) -> String {
    let Some(start) = json.find(key) else {
        return json.to_string();
    };
    let open = match json[start..].find('{') {
        Some(off) => start + off,
        None => return json.to_string(),
    };
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(mut end) = close else {
        return json.to_string();
    };
    end += 1;
    // Drop the member's leading whitespace and the separator comma
    // (before it, or after it if it was the first member).
    let mut begin = start;
    while begin > 0 && json.as_bytes()[begin - 1].is_ascii_whitespace() {
        begin -= 1;
    }
    if begin > 0 && json.as_bytes()[begin - 1] == b',' {
        begin -= 1;
    } else {
        let bytes = json.as_bytes();
        while end < bytes.len() && bytes[end].is_ascii_whitespace() {
            end += 1;
        }
        if end < bytes.len() && bytes[end] == b',' {
            end += 1;
        }
    }
    format!("{}{}", &json[..begin], &json[end..])
}
