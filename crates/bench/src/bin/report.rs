//! Regenerates every table and figure of the paper from the simulator.
//!
//! Usage:
//!   report                    # everything
//!   report fig3 table7 ...    # selected exhibits
//!   report --threads 4 all    # explicit worker-thread count
//!   report --json all         # also write BENCH_report.json
//!   report --metrics          # dump the canonical runs' metrics JSON
//!   report --trace out.json   # write a Perfetto-loadable trace
//!   report --profile all      # per-exhibit host wall clock
//!   report --compare A.json B.json  # diff two --json snapshots
//!
//! `GENIE_TRACE=<path>` is equivalent to `--trace <path>`. With only
//! `--metrics`/`--trace` and no exhibit names, no exhibits render.
//! `GENIE_TRACE_SAMPLE=<n>` keeps one traced flow in n and
//! `GENIE_TRACE_BUDGET=<events>` bounds each tracer's ring, for
//! `--trace`, `--metrics` and `report fabric --metrics`; the paper
//! exhibits always trace every charge. This binary is the only reader
//! of the library's environment knobs.
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
//! CQ saturation sweep, under the masked fault plan seeded by
//! `GENIE_CQ_FAULT_SEED` when that is set.
//!
//! Any other argument (an unknown flag or exhibit name) is an error:
//! `report` names it on stderr and exits 2.
//!
//! `report` first measures one plan: every simulation the selected
//! exhibits read, each sweep, instrumented fit cell and ping-pong run
//! once as a pool cell (`genie_bench::plan`). Each exhibit then only
//! renders from it. The plan's cells and the exhibits run on the
//! genie-runner worker pool (thread count from `--threads`, else the
//! machine's parallelism) and print in their canonical order, so the
//! output is byte-identical to a serial run.
//!
//! `--profile` prints one row per plan input (`plan:grid ...`,
//! `plan:pingpongs ...` and so on: the wall clock of its cells and
//! fit), then one per exhibit (timed once around its render, which
//! simulates nothing), and `--json` records the same rows as
//! `exhibits[].wall_ms`. `datapath` times the datapath primitives.

use std::time::Instant;

use genie::SampleConfig;
use genie_analysis::BufferingScheme;
use genie_bench::{self as gen, Input, Sizes};
use genie_fault::FaultConfig;
use genie_trace::json::{Layout, Writer};

/// The 60 KB early-demux latencies per semantics: the headline
/// simulated numbers recorded alongside the wall-clock timings, read
/// from the plan's early-demux Figure 3 grid.
fn simulated_summary(m: &gen::Measured) -> Vec<(String, f64)> {
    let grid = m.sweeps(&Input::Grid(BufferingScheme::EarlyDemux, Sizes::Figure));
    genie::Semantics::ALL
        .iter()
        .zip(grid)
        .map(|(sem, pts)| {
            let p = pts.iter().find(|p| p.bytes == 61_440).expect("60 KB point");
            (sem.label().to_string(), p.latency.as_us())
        })
        .collect()
}

/// Environment variable `name` parsed as a `T`; `None` when it is
/// unset or does not parse.
fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Fault-injection seed for the `--json` fault-stats section:
/// `GENIE_FAULT_SEED` if set, else a fixed default so the section is
/// deterministic out of the box.
fn fault_seed() -> u64 {
    env_knob("GENIE_FAULT_SEED").unwrap_or(42)
}

/// The flight recorder's sampling policy: keep one flow in
/// `GENIE_TRACE_SAMPLE`, bound each ring at `GENIE_TRACE_BUDGET`
/// events. Unset or unparsable values keep every flow at the default
/// capacity.
fn sample_config_from_env() -> SampleConfig {
    let mut cfg = SampleConfig::default();
    if let Some(n) = env_knob::<u32>("GENIE_TRACE_SAMPLE") {
        cfg.rate = n.max(1);
    }
    if let Some(n) = env_knob("GENIE_TRACE_BUDGET") {
        cfg.budget = n;
    }
    cfg
}

/// Runs one seeded faulted exchange set per semantics (early demux,
/// three datagrams each) and returns the summed fault counters.
fn faulted_stats(seed: u64) -> Vec<(&'static str, u64)> {
    use genie::{HostId, OutputRequest, Semantics, World, WorldConfig};
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
            w.post_receive(HostId::B, rx, sem, Vc(1), bytes, 0)
                .expect("input");
        }
        for (i, &bytes) in SIZES.iter().enumerate() {
            let data: Vec<u8> = (0..bytes)
                .map(|b| (b as u64).wrapping_mul(31).wrapping_add(i as u64) as u8)
                .collect();
            let src = w.alloc_source(HostId::A, tx, sem, &data).expect("source");
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

/// Prints the `--profile` table: one row per plan input, then one per
/// rendered exhibit, then the summed time beside the wall clock of the
/// whole measure-and-render.
fn print_profile(rows: &[(String, f64)], exhibits: usize, total_ms: f64) {
    println!("# Profile: per-exhibit wall clock");
    println!("  {:<32} {:>10}", "exhibit", "wall_ms");
    for (name, ms) in rows {
        println!("  {name:<32} {ms:>10.3}");
    }
    let summed: f64 = rows.iter().map(|(_, ms)| ms).sum();
    println!(
        "  {exhibits} exhibits, {} plan inputs, {summed:.3} ms summed, {total_ms:.3} ms wall, {} worker threads",
        rows.len() - exhibits,
        genie_runner::configured_threads()
    );
    println!();
}

/// Removes the first `flag` from `args`; true if there was one.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let i = args.iter().position(|a| a == flag);
    i.map(|i| args.remove(i)).is_some()
}

/// Removes `flag` and the value after it from `args` and returns the
/// value; names the missing `what` and exits 2 when no value follows.
fn take_value(args: &mut Vec<String>, flag: &str, what: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires {what}");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        if args.len() < i + 3 {
            eprintln!("--compare requires two BENCH_report.json paths");
            std::process::exit(2);
        }
        let (pa, pb) = (args[i + 1].clone(), args[i + 2].clone());
        let load = |p: &str| {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("--compare: cannot read {p}: {e}");
                std::process::exit(2);
            });
            gen::compare::parse_summary(&text).unwrap_or_else(|e| {
                eprintln!("--compare: cannot parse {p}: {e}");
                std::process::exit(2);
            })
        };
        let (a, b) = (load(&pa), load(&pb));
        print!("{}", gen::compare::render_comparison(&pa, &a, &pb, &b));
        return;
    }
    let json = take_flag(&mut args, "--json");
    let want_metrics = take_flag(&mut args, "--metrics");
    let profile = take_flag(&mut args, "--profile");
    let trace_path = take_value(&mut args, "--trace", "an output path")
        .or_else(|| std::env::var("GENIE_TRACE").ok().filter(|p| !p.is_empty()));
    let want_scale = take_flag(&mut args, "--scale");
    let want_cq = take_flag(&mut args, "--cq");
    if let Some(n) = take_value(&mut args, "--threads", "a count") {
        let n: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("--threads: invalid count {n:?}");
            std::process::exit(2);
        });
        genie_runner::set_threads(n);
    }
    // `fabric` is an explicit exhibit: `report fabric` only. It is
    // never part of `all` or a bare `report`, so the paper exhibits'
    // golden output stays byte-identical.
    let mut want_fabric = false;
    while take_flag(&mut args, "fabric") {
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

    let exhibits = gen::exhibits();

    // Every flag was consumed above; what is left must name exhibits.
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !exhibits.iter().any(|e| e.name == a.as_str()))
    {
        eprintln!(
            "unknown argument {bad:?}; exhibits: {}",
            exhibits
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<&gen::Exhibit> = if inspect_only {
        Vec::new()
    } else {
        exhibits.iter().filter(|e| want(e.name)).collect()
    };

    // Measure the plan, render in parallel, print in canonical order.
    // `--json`'s simulated summary reads the early-demux Figure 3 grid.
    let grid = json.then_some(Input::Grid(BufferingScheme::EarlyDemux, Sizes::Figure));
    let t0 = Instant::now();
    let (measured, rendered) = gen::render(&selected, grid.as_slice());
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (_name, text, _ms) in &rendered {
        println!("{text}\n");
    }
    // One wall-clock row per plan input, then one per exhibit.
    let rows: Vec<(String, f64)> = measured
        .rows
        .iter()
        .cloned()
        .chain(rendered.iter().map(|(name, _, ms)| (name.to_string(), *ms)))
        .collect();
    // `report fabric --metrics` is the flight-recorder view: rollup
    // tables instead of the distribution exhibit. Plain `report
    // --metrics` (the canonical two-host inspection) is untouched.
    let sample = sample_config_from_env();
    let scale_report = want_scale.then(|| {
        let per = env_knob("GENIE_SCALE_DATAGRAMS")
            .filter(|&n: &usize| n > 0)
            .unwrap_or(125_000);
        gen::fabric_scale_run(per)
    });
    let cq_report = want_cq.then(|| {
        let seed = env_knob("GENIE_CQ_FAULT_SEED");
        gen::fabric_cq_run(seed.map_or(FaultConfig::NONE, FaultConfig::masked))
    });
    if want_fabric {
        if let Some(r) = &scale_report {
            println!("{}", gen::fabric_scale_exhibit(r));
        } else if let Some(points) = &cq_report {
            println!("{}", gen::fabric_cq_exhibit(points));
        } else if want_metrics {
            println!("{}", gen::fabric_metrics_report(&sample));
        } else {
            println!("{}\n", gen::fabric_exhibit());
        }
    }
    if profile {
        print_profile(&rows, rendered.len(), total_ms);
    }
    if want_metrics && !want_fabric {
        print!("{}", gen::inspect::metrics_json(&sample));
    }
    if let Some(path) = &trace_path {
        let trace = gen::inspect::trace_json(&sample);
        std::fs::write(path, &trace).expect("write trace JSON");
        eprintln!("wrote {} ({} bytes of trace JSON)", path, trace.len());
    }

    if json {
        let mut w = Writer::new(2);
        w.object(Layout::Pretty);
        w.key("revision").str(&gen::revision::revision());
        w.key("threads").num(genie_runner::configured_threads());
        w.key("total_wall_ms").num(format_args!("{total_ms:.3}"));
        w.key("exhibits").array(Layout::Pretty);
        for (name, ms) in &rows {
            w.object(Layout::Line).key("name").str(name);
            w.key("wall_ms").num(format_args!("{ms:.3}")).end();
        }
        w.end();
        let seed = fault_seed();
        w.key("fault_stats").object(Layout::Pretty);
        w.key("seed").num(seed);
        for (name, v) in faulted_stats(seed) {
            w.key(name).num(v);
        }
        w.end();
        let mut flat = |name: &str, rows: &[(String, f64)]| {
            w.key(name).object(Layout::Pretty);
            for (label, v) in rows {
                w.key(label).num(format_args!("{v:.3}"));
            }
            w.end();
        };
        flat("simulated_latency_60kb_us", &simulated_summary(&measured));
        if want_fabric {
            // `report --json fabric` appends the fabric fan-in and
            // host-rollup sections `--compare` diffs.
            let (fabric, host) = gen::fabric_json_sections(&sample);
            flat("fabric", &fabric);
            flat("host_rollup", &host);
            if let Some(r) = &scale_report {
                // `report --json fabric --scale`: the scale tier's
                // wall clocks, gated by perf_gate.py.
                flat("scale", &gen::fabric_scale_json_section(r));
            }
            if let Some(points) = &cq_report {
                // `report --json fabric --cq`: knee depth and knee
                // stats per semantics, reported informationally by
                // perf_gate.py.
                flat("cq_saturation", &gen::fabric_cq_json_section(points));
            }
        }
        w.end();
        std::fs::write("BENCH_report.json", w.finish()).expect("write BENCH_report.json");
        eprintln!("wrote BENCH_report.json ({} exhibits)", rendered.len());
    }
}
