//! Regenerates every table and figure of the paper from the simulator.
//!
//! Usage:
//!   report                    # everything
//!   report fig3 table7 ...    # selected exhibits
//!   report --threads 4 all    # explicit worker-thread count
//!   report --json all         # also write BENCH_report.json
//!   report --metrics          # dump the canonical runs' metrics JSON
//!   report --trace out.json   # write a Perfetto-loadable trace
//!   report --profile all      # per-exhibit wall-clock summary
//!   report --compare A.json B.json  # diff two --json snapshots
//!
//! `GENIE_TRACE=<path>` is equivalent to `--trace <path>`. With only
//! `--metrics`/`--trace` and no exhibit names, no exhibits render.
//!
//! Exhibits: table1 fig1 fig2 table2 table3 table4 table5 fig3 fig4
//! fig5 fig6 fig7 table6 table7 table8 oc12 outboard ablations
//! waterfall
//!
//! `report fabric` renders the N-host switched-fabric distribution
//! suites. It is explicit-only — never included in `all` or a bare
//! `report` — so the paper exhibits' golden output is unaffected.
//! `report fabric --scale` runs the scale tier instead: a 64-host
//! star pushing `GENIE_SCALE_DATAGRAMS` (default 125 000) datagrams
//! per semantics — one million total. `report fabric --cq` runs the
//! CQ saturation sweep.
//!
//! Any other argument (an unknown flag or exhibit name) is an error:
//! `report` names it on stderr and exits 2.
//!
//! Selected exhibits are computed in parallel on the genie-runner
//! worker pool (thread count from `--threads`, else `GENIE_THREADS`,
//! else the machine's parallelism) and printed in their canonical
//! order, so the output is byte-identical to a serial run.

use std::time::Instant;

use genie_bench as gen;
use genie_machine::MachineSpec;

fn figure2_walkthrough() -> String {
    use genie::{plan_aligned_input, PageAction};
    let mut out = String::from(
        "# Figure 2: input alignment — worked example\n\
         buffer at page offset 16 (unstripped header), 3 pages of data,\n\
         reverse-copyout threshold 2178:\n",
    );
    for p in plan_aligned_input(4096, 16, 3 * 4096, 2178) {
        let action = match p.action {
            PageAction::CopyOut => "copy out".to_string(),
            PageAction::SwapWhole => "swap pages".to_string(),
            PageAction::FillAndSwap {
                fill_prefix,
                fill_suffix,
            } => format!("complete ({fill_prefix}+{fill_suffix} B from app page), then swap"),
        };
        out.push_str(&format!(
            "  page {}: data [{}, {}) -> {}\n",
            p.page,
            p.data_start,
            p.data_start + p.data_len,
            action
        ));
    }
    out
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The 60 KB early-demux latencies per semantics: the headline
/// simulated numbers recorded alongside the wall-clock timings.
fn simulated_summary() -> Vec<(String, f64)> {
    let setup = genie::ExperimentSetup::early_demux(MachineSpec::micron_p166());
    genie_runner::map(&genie::Semantics::ALL, |&sem| {
        let lat = genie::measure_latency(&setup, sem, 61_440).expect("measure");
        (sem.label().to_string(), lat.as_us())
    })
}

/// Fault-injection seed for the `--json` fault-stats section:
/// `GENIE_FAULT_SEED` if set, else a fixed default so the section is
/// deterministic out of the box.
fn fault_seed() -> u64 {
    std::env::var("GENIE_FAULT_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(42)
}

/// Runs one seeded faulted exchange set per semantics (early demux,
/// three datagrams each) and returns the summed fault counters.
fn faulted_stats(seed: u64) -> Vec<(&'static str, u64)> {
    use genie::{Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
    use genie_net::Vc;

    const SIZES: [usize; 3] = [1_500, 3_000, 4_000];
    let mut sums: Vec<(&'static str, u64)> = Vec::new();
    for sem in Semantics::ALL {
        let cfg = WorldConfig {
            frames_per_host: 320,
            credit_limit: 256,
            fault: genie_fault::FaultConfig::swarm(seed),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        for &bytes in &SIZES {
            if sem.allocation() == Allocation::Application {
                let dst = w
                    .host_mut(HostId::B)
                    .alloc_buffer(rx, bytes, 0)
                    .expect("alloc");
                w.input(HostId::B, InputRequest::app(sem, Vc(1), rx, dst, bytes))
                    .expect("input");
            } else {
                w.input(HostId::B, InputRequest::system(sem, Vc(1), rx, bytes))
                    .expect("input");
            }
        }
        for (i, &bytes) in SIZES.iter().enumerate() {
            let data: Vec<u8> = (0..bytes)
                .map(|b| (b as u64).wrapping_mul(31).wrapping_add(i as u64) as u8)
                .collect();
            let src = match sem.allocation() {
                Allocation::Application => {
                    let s = w
                        .host_mut(HostId::A)
                        .alloc_buffer(tx, bytes, 0)
                        .expect("alloc");
                    w.app_write(HostId::A, tx, s, &data).expect("write");
                    s
                }
                Allocation::System => {
                    let (_r, s) = w
                        .host_mut(HostId::A)
                        .alloc_io_buffer(tx, bytes)
                        .expect("alloc io");
                    w.app_write(HostId::A, tx, s, &data).expect("write");
                    s
                }
            };
            w.output(HostId::A, OutputRequest::new(sem, Vc(1), tx, src, bytes))
                .expect("output");
        }
        w.run();
        let _ = w.take_completed_inputs();
        let _ = w.take_completed_outputs();
        for (name, v) in w.fault_stats().fields() {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += v,
                None => sums.push((name, v)),
            }
        }
    }
    sums
}

/// Prints the `--profile` per-exhibit wall-clock table.
fn print_profile(names: &[&str], samples: &[genie_runner::CellSample]) {
    println!("# Profile: per-exhibit wall clock");
    println!("  {:<12} {:>6} {:>10}", "exhibit", "worker", "wall_ms");
    for s in samples {
        let name = names.get(s.cell).copied().unwrap_or("?");
        println!(
            "  {:<12} {:>6} {:>10.3}",
            name,
            s.worker,
            s.wall.as_secs_f64() * 1e3
        );
    }
    let total: f64 = samples.iter().map(|s| s.wall.as_secs_f64() * 1e3).sum();
    println!(
        "  {} cells, {:.3} ms total cell time, {} worker threads",
        samples.len(),
        total,
        genie_runner::configured_threads()
    );
    println!();
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        if args.len() < i + 3 {
            eprintln!("--compare requires two BENCH_report.json paths");
            std::process::exit(2);
        }
        let (pa, pb) = (args[i + 1].clone(), args[i + 2].clone());
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("--compare: cannot read {p}: {e}");
                std::process::exit(2);
            })
        };
        let a = gen::compare::parse_summary(&read(&pa));
        let b = gen::compare::parse_summary(&read(&pb));
        print!("{}", gen::compare::render_comparison(&pa, &a, &pb, &b));
        return;
    }
    let mut json = false;
    if let Some(i) = args.iter().position(|a| a == "--json") {
        args.remove(i);
        json = true;
    }
    let mut want_metrics = false;
    if let Some(i) = args.iter().position(|a| a == "--metrics") {
        args.remove(i);
        want_metrics = true;
    }
    let mut profile = false;
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        args.remove(i);
        profile = true;
    }
    let mut trace_path: Option<String> =
        std::env::var("GENIE_TRACE").ok().filter(|p| !p.is_empty());
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        if i + 1 >= args.len() {
            eprintln!("--trace requires an output path");
            std::process::exit(2);
        }
        trace_path = Some(args[i + 1].clone());
        args.drain(i..=i + 1);
    }
    let mut want_scale = false;
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        args.remove(i);
        want_scale = true;
    }
    let mut want_cq = false;
    if let Some(i) = args.iter().position(|a| a == "--cq") {
        args.remove(i);
        want_cq = true;
    }
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        if i + 1 >= args.len() {
            eprintln!("--threads requires a count");
            std::process::exit(2);
        }
        let n: usize = args[i + 1].parse().unwrap_or_else(|_| {
            eprintln!("--threads: invalid count {:?}", args[i + 1]);
            std::process::exit(2);
        });
        genie_runner::set_threads(n);
        args.drain(i..=i + 1);
    }
    // `fabric` is an explicit exhibit: `report fabric` only. It is
    // never part of `all` or a bare `report`, so the paper exhibits'
    // golden output stays byte-identical.
    let mut want_fabric = false;
    while let Some(i) = args.iter().position(|a| a == "fabric") {
        args.remove(i);
        want_fabric = true;
    }
    // `--scale` implies `fabric`: it selects the scale tier (the
    // million-datagram 64-host star sweep) instead of the standard
    // fabric distribution exhibit. `--cq` likewise selects the CQ
    // saturation sweep.
    want_fabric |= want_scale;
    want_fabric |= want_cq;
    // `--metrics`/`--trace` with no exhibit names means "just inspect":
    // no exhibits render. Same for a pure `report fabric`.
    let inspect_only = args.is_empty() && (want_metrics || trace_path.is_some() || want_fabric);
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    let m = MachineSpec::micron_p166;

    type Exhibit = (&'static str, Box<dyn Fn() -> String + Sync>);
    let exhibits: Vec<Exhibit> = vec![
        ("table1", Box::new(gen::table1)),
        ("fig1", Box::new(gen::figure1)),
        ("fig2", Box::new(figure2_walkthrough)),
        ("table2", Box::new(gen::table2)),
        ("table3", Box::new(gen::table3)),
        ("table4", Box::new(gen::table4)),
        ("table5", Box::new(gen::table5)),
        ("fig3", Box::new(move || gen::figure3(m()))),
        ("fig4", Box::new(move || gen::figure4(m()))),
        ("fig5", Box::new(move || gen::figure5(m()))),
        ("fig6", Box::new(move || gen::figure6(m()))),
        ("fig7", Box::new(move || gen::figure7(m()))),
        ("table6", Box::new(move || gen::table6(m()))),
        ("table7", Box::new(move || gen::table7(m()))),
        ("table8", Box::new(gen::table8)),
        ("oc12", Box::new(gen::oc12)),
        ("outboard", Box::new(move || gen::outboard(m()))),
        ("ablations", Box::new(move || gen::ablation_thresholds(m()))),
        ("waterfall", Box::new(move || gen::breakdown_waterfall(m()))),
    ];

    // Every flag was consumed above; what is left must name exhibits.
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !exhibits.iter().any(|(n, _)| n == a))
    {
        eprintln!(
            "unknown argument {bad:?}; exhibits: {}",
            exhibits
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<&Exhibit> = if inspect_only {
        Vec::new()
    } else {
        exhibits.iter().filter(|(name, _)| want(name)).collect()
    };

    // Compute in parallel, print in canonical order.
    if profile {
        genie_runner::set_profiling(true);
        let _ = genie_runner::take_profile();
    }
    let t0 = Instant::now();
    let rendered = genie_runner::map(&selected, |(name, f)| {
        let t = Instant::now();
        let text = f();
        (*name, text, t.elapsed().as_secs_f64() * 1e3)
    });
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    if profile {
        genie_runner::set_profiling(false);
    }
    for (_name, text, _ms) in &rendered {
        println!("{text}\n");
    }
    // `report fabric --metrics` is the flight-recorder view: rollup
    // tables instead of the distribution exhibit. Plain `report
    // --metrics` (the canonical two-host inspection) is untouched.
    let scale_report = want_scale.then(gen::fabric_scale_run);
    let cq_report = want_cq.then(gen::fabric_cq_run);
    if want_fabric {
        if let Some(r) = &scale_report {
            println!("{}", gen::fabric_scale_exhibit(r));
        } else if let Some(points) = &cq_report {
            println!("{}", gen::fabric_cq_exhibit(points));
        } else if want_metrics {
            println!("{}", gen::fabric_metrics_report());
        } else {
            println!("{}\n", gen::fabric_exhibit());
        }
    }
    if profile {
        let names: Vec<&str> = selected.iter().map(|(n, _)| *n).collect();
        print_profile(&names, &genie_runner::take_profile());
    }
    if want_metrics && !want_fabric {
        print!("{}", gen::inspect::metrics_json());
    }
    if let Some(path) = &trace_path {
        let trace = gen::inspect::trace_json();
        std::fs::write(path, &trace).expect("write trace JSON");
        eprintln!("wrote {} ({} bytes of trace JSON)", path, trace.len());
    }

    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"threads\": {},\n  \"total_wall_ms\": {:.3},\n",
            genie_runner::configured_threads(),
            total_ms
        ));
        out.push_str("  \"exhibits\": [\n");
        for (i, (name, _text, ms)) in rendered.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}}}{}\n",
                json_escape(name),
                ms,
                if i + 1 < rendered.len() { "," } else { "" }
            ));
        }
        let seed = fault_seed();
        out.push_str(&format!(
            "  ],\n  \"fault_stats\": {{\n    \"seed\": {seed},\n"
        ));
        let stats = faulted_stats(seed);
        for (i, (name, v)) in stats.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(name),
                v,
                if i + 1 < stats.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"simulated_latency_60kb_us\": {\n");
        let sims = simulated_summary();
        for (i, (label, us)) in sims.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {:.3}{}\n",
                json_escape(label),
                us,
                if i + 1 < sims.len() { "," } else { "" }
            ));
        }
        if want_fabric {
            // `report --json fabric` appends the fabric fan-in and
            // host-rollup sections `--compare` diffs.
            let (fabric, host) = gen::fabric_json_sections();
            let flat = |out: &mut String, name: &str, rows: &[(String, f64)]| {
                out.push_str(&format!("  }},\n  \"{name}\": {{\n"));
                for (i, (label, v)) in rows.iter().enumerate() {
                    out.push_str(&format!(
                        "    \"{}\": {:.3}{}\n",
                        json_escape(label),
                        v,
                        if i + 1 < rows.len() { "," } else { "" }
                    ));
                }
            };
            flat(&mut out, "fabric", &fabric);
            flat(&mut out, "host_rollup", &host);
            if let Some(r) = &scale_report {
                // `report --json fabric --scale`: the scale tier's
                // wall clocks, gated by perf_gate.py.
                flat(&mut out, "scale", &gen::fabric_scale_json_section(r));
            }
            if let Some(points) = &cq_report {
                // `report --json fabric --cq`: knee depth and knee
                // stats per semantics, reported informationally by
                // perf_gate.py.
                flat(
                    &mut out,
                    "cq_saturation",
                    &gen::fabric_cq_json_section(points),
                );
            }
        }
        out.push_str("  }\n}\n");
        std::fs::write("BENCH_report.json", &out).expect("write BENCH_report.json");
        eprintln!("wrote BENCH_report.json ({} exhibits)", rendered.len());
    }
}
