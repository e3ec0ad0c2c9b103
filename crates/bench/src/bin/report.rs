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
//! With only `--metrics`/`--trace` and no exhibit names, no paper
//! exhibits render. `GENIE_TRACE_SAMPLE=<n>` keeps one traced flow in
//! n and `GENIE_TRACE_BUDGET=<events>` bounds each tracer's ring, for
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
//! `report fabric --scale` renders the scale tier instead: a 64-host
//! star pushing `GENIE_SCALE_DATAGRAMS` (default 125 000) datagrams
//! per semantics — one million total. `report fabric --cq` renders the
//! CQ saturation sweep, under the masked fault plan seeded by
//! `GENIE_CQ_FAULT_SEED` when that is set, and `report fabric
//! --metrics` the flight recorder's rollups of an observed fan-in.
//!
//! Any other argument (an unknown flag or exhibit name) is an error:
//! `report` names it on stderr and exits 2.
//!
//! `report` only chooses what a command line shows: the exhibits (the
//! paper's, a fabric view, the `--metrics` and `--trace` exports) and
//! the inputs `--json`'s sections read. One measurement plan
//! (`genie_bench::plan`) runs every simulation they need once, on the
//! worker pool (`--threads`, else the machine's parallelism); each
//! exhibit only renders from it, in canonical order, so the output is
//! byte-identical to a serial run. `--profile` prints one row per plan
//! input (its cells' wall clock), then one per exhibit render; `--json`
//! records them as `exhibits[].wall_ms` and the whole
//! measure-and-render as `total_wall_ms`.

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
    let trace_path = take_value(&mut args, "--trace", "an output path");
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
    // no paper exhibits render. Same for a pure `report fabric`.
    let inspect_only = args.is_empty() && (want_metrics || trace_path.is_some() || want_fabric);
    let want = |name: &str| {
        !inspect_only && (args.is_empty() || args.iter().any(|a| a == name || a == "all"))
    };

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

    // What the command line selects: the paper exhibits, then one
    // fabric view, all printed; then the exports `--metrics` prints
    // and `--trace` writes. `report fabric --metrics` is the flight
    // recorder's view and replaces plain `--metrics`.
    let sample = sample_config_from_env();
    let per = env_knob("GENIE_SCALE_DATAGRAMS")
        .filter(|&n: &usize| n > 0)
        .unwrap_or(125_000);
    let cq_seed = env_knob("GENIE_CQ_FAULT_SEED");
    let cq_fault = cq_seed.map_or(FaultConfig::NONE, FaultConfig::masked);
    let fabric = want_fabric.then(|| {
        let (scale, cq) = (want_scale.then_some(per), want_cq.then_some(cq_fault));
        gen::fabric::view(scale, cq, want_metrics.then_some(sample))
    });
    let metrics = (want_metrics && !want_fabric).then(|| gen::inspect::metrics_view(sample));
    let trace = trace_path
        .as_ref()
        .map(|_| gen::inspect::trace_view(sample));
    let mut selected: Vec<&gen::Exhibit> = exhibits.iter().filter(|e| want(e.name)).collect();
    selected.extend(&fabric);
    let printed = selected.len();
    selected.extend(metrics.iter().chain(&trace));
    // `--json`'s sections read the early-demux Figure 3 grid and the
    // fault counters of seed `GENIE_FAULT_SEED` (42 if unset, so the
    // section is deterministic out of the box), and with `fabric` the
    // observed fan-in and the scale tier or CQ sweep the flags name.
    let seed = env_knob("GENIE_FAULT_SEED").unwrap_or(42);
    let extra = [
        Some(Input::Grid(BufferingScheme::EarlyDemux, Sizes::Figure)),
        Some(Input::FaultStats(seed)),
        want_fabric.then_some(Input::ObservedFanin(sample)),
        want_scale.then_some(Input::Scale(per)),
        want_cq.then_some(Input::Cq(cq_fault)),
    ];
    let extra: Vec<Input> = extra.into_iter().flatten().filter(|_| json).collect();

    // Measure the plan, render in parallel, print in canonical order.
    let t0 = Instant::now();
    let (measured, rendered) = gen::render(&selected, &extra);
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (shown, exports) = rendered.split_at(printed);
    for (_name, text, _ms) in shown {
        println!("{text}\n");
    }
    // One wall-clock row per plan input, then one per exhibit.
    let rows: Vec<(String, f64)> = measured
        .rows
        .iter()
        .cloned()
        .chain(rendered.iter().map(|(name, _, ms)| (name.to_string(), *ms)))
        .collect();
    if profile {
        print_profile(&rows, rendered.len(), total_ms);
    }
    let mut exports = exports.iter().map(|(_, text, _)| text);
    if metrics.is_some() {
        print!("{}", exports.next().expect("the metrics export"));
    }
    if let Some(path) = &trace_path {
        let trace = exports.next().expect("the trace export");
        std::fs::write(path, trace).expect("write trace JSON");
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
        w.key("fault_stats").object(Layout::Pretty);
        w.key("seed").num(seed);
        for (name, v) in measured.fault_stats(seed) {
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
            let (fabric, host) = gen::fabric::json_sections(&measured, &sample);
            flat("fabric", &fabric);
            flat("host_rollup", &host);
            if want_scale {
                // `report --json fabric --scale`: the scale tier's
                // wall clocks, gated by perf_gate.py.
                flat("scale", &gen::fabric::scale_json_section(&measured, per));
            }
            if want_cq {
                // `report --json fabric --cq`: knee depth and knee
                // stats per semantics, reported informationally by
                // perf_gate.py.
                let cq = gen::fabric::cq_json_section(&measured, &cq_fault);
                flat("cq_saturation", &cq);
            }
        }
        w.end();
        std::fs::write("BENCH_report.json", w.finish()).expect("write BENCH_report.json");
        eprintln!("wrote BENCH_report.json ({} exhibits)", rendered.len());
    }
}
