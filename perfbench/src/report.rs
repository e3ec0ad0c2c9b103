//! Turning a run's [`Outcome`] into metrics, a readable summary, and
//! the final JSON line.

use std::process::ExitCode;

use genie::{World, WorldConfig};
use genie_machine::MachineSpec;
use genie_net::SwitchConfig;

use crate::cx::{HOST_COUNTERS, WORLD_COUNTERS};
use crate::probe::Layer;
use crate::run::Outcome;
use crate::Args;

/// What produced a result.
pub struct Provenance {
    nproc: usize,
    runner_threads: usize,
    effective_shards: usize,
    seed: u64,
    revision: String,
}

impl Provenance {
    /// Collects the provenance stamp.
    pub fn collect(args: &Args) -> Self {
        // The engine a default switched world runs: 0 is the serial
        // loop, n > 0 the keyed loop on n shards.
        let probe = World::new(WorldConfig::switched(
            MachineSpec::micron_p166(),
            2,
            SwitchConfig::star(2, 0, 1, 256),
        ));
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            runner_threads: genie_runner::configured_threads(),
            effective_shards: probe.effective_shards(),
            seed: args.seed,
            revision: args.revision.clone(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"driver_threads\": 1, \"runner_threads\": {}, \
             \"effective_shards\": {}, \"seed\": {}, \"revision\": \"{}\"}}",
            self.nproc,
            self.runner_threads,
            self.effective_shards,
            self.seed,
            self.revision.escape_default()
        )
    }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Host time of `run::reference_ns` that the reported figures are
/// scaled to.
const REFERENCE_NS: f64 = 1e6;

/// Per-episode values rescaled to a host that runs the reference work
/// in exactly [`REFERENCE_NS`]: times multiplied by
/// `REFERENCE_NS / reference`, rates divided by it. The hosts this was
/// built on are shared, and their speed for memory-heavy code flips
/// between levels 30–50% apart, per process and for minutes at a time,
/// while the process is on its CPU 99.9% of the time; the reference,
/// measured just before each episode, slows down with them.
fn at_reference(v: &[f64], reference_ns: &[u64], time: bool) -> Vec<f64> {
    v.iter()
        .zip(reference_ns)
        .map(|(&x, &r)| {
            let scale = REFERENCE_NS / r as f64;
            if time {
                x * scale
            } else {
                x / scale
            }
        })
        .collect()
}

/// The end-to-end metrics of an untraced run: the median episode, at
/// reference speed. With `raw`, the same figures as measured.
fn end_to_end(out: &Outcome, raw: bool) -> Vec<Metric> {
    let r = &out.reference_ns;
    let at = |v: &[f64], time: bool| {
        if raw {
            median(v)
        } else {
            median(&at_reference(v, r, time))
        }
    };
    let us = |v: &[u64]| v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>();
    let pre = if raw { "raw." } else { "" };
    vec![
        metric(
            format!("{pre}ops_per_s"),
            at(&out.ops_per_s, false),
            "ops/s",
        ),
        metric(
            format!("{pre}step_p50_us"),
            at(&us(&out.step_p50_ns), true),
            "us",
        ),
        metric(
            format!("{pre}step_p90_us"),
            at(&us(&out.step_p90_ns), true),
            "us",
        ),
        metric(format!("{pre}wall_s"), at(&out.wall_s, true), "s"),
        metric(format!("{pre}setup_s"), at(&out.setup_s, true), "s"),
        metric(format!("{pre}peak_rss_mb"), peak_rss_mb(), "MB"),
    ]
}

/// Ratio with a zero base reported as 0.
fn per(n: f64, base: f64) -> f64 {
    if base > 0.0 {
        n / base
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, plus the span sum check
/// (parts over whole, from the kept spans).
fn per_layer(out: &Outcome) -> (Vec<Metric>, f64) {
    let probe = out.probe.as_ref().expect("drive returns its probe");
    let ops = out.traced_ops as f64;
    let mut m = Vec::new();
    let mut in_steps = 0u64;
    for l in Layer::ALL {
        let (ns, calls) = (probe.layer_ns[l as usize], probe.layer_calls[l as usize]);
        if l != Layer::WorldNew {
            in_steps += ns;
        }
        m.push(metric(
            format!("{}.us_per_op", l.name()),
            per(ns as f64 / 1e3, ops),
            "us/op",
        ));
        m.push(metric(
            format!("{}.calls_per_op", l.name()),
            per(calls as f64, ops),
            "calls/op",
        ));
    }
    let driver_ns = out.traced_step_ns.saturating_sub(in_steps);
    m.push(metric(
        "bench.driver.us_per_op",
        per(driver_ns as f64 / 1e3, ops),
        "us/op",
    ));
    let first = median(
        &out.run_first_ns
            .iter()
            .map(|&v| v as f64)
            .collect::<Vec<_>>(),
    );
    let last = median(
        &out.run_last_ns
            .iter()
            .map(|&v| v as f64)
            .collect::<Vec<_>>(),
    );
    m.push(metric("world.run.late_early", per(last, first), "ratio"));
    let overhead = 1.0 - per(median(&out.traced_ops_per_s), median(&out.ops_per_s));
    m.push(metric("trace.overhead_frac", overhead, "frac"));
    m.push(metric("step.max_us", out.step_max_ns as f64 / 1e3, "us"));
    m.push(metric("step.samples", out.steps as f64, "count"));

    let c = &out.counts;
    let sum = |name: &str| c.sums.get(name).copied().unwrap_or(0) as f64;
    let peak = |name: &str| c.peaks.get(name).copied().unwrap_or(0) as f64;
    let cops = c.ops as f64;
    for (name, _) in HOST_COUNTERS {
        if name != "adapter.posted_hits" {
            m.push(metric(name, per(sum(name), cops), "count/op"));
        }
    }
    m.push(metric(
        "adapter.posted_hit_rate",
        per(sum("adapter.posted_hits"), sum("adapter.pdus_received")),
        "ratio",
    ));
    m.push(metric(
        "mem.peak_frames_in_use",
        peak("mem.peak_frames_in_use"),
        "frames",
    ));
    m.push(metric(
        "net.datagrams_per_op",
        per(c.datagrams as f64, cops),
        "count/op",
    ));
    let dgrams = c.datagrams as f64;
    for name in WORLD_COUNTERS {
        m.push(metric(name, per(sum(name), dgrams), "count/datagram"));
    }
    m.push(metric(
        "switch.max_port_depth",
        peak("switch.max_port_depth"),
        "count",
    ));
    for name in ["cq.sq_rejects", "cq.ring_overflows"] {
        m.push(metric(name, per(sum(name), cops), "count/op"));
    }

    let (layer_self, step_self, step_wall) = probe.self_times();
    let parts = layer_self.iter().sum::<u64>() + step_self;
    (m, per(parts as f64, step_wall as f64))
}

/// Prints the summary and the JSON line; the process exit code.
pub fn print(args: &Args, prov: &Provenance, out: &Outcome) -> ExitCode {
    let mut correct = out.failed == 0;
    println!(
        "genie-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {}", prov.json());
    println!(
        "episodes={} attempted={} failed={} failed_frac={} step_samples={}",
        out.episodes,
        out.attempted,
        out.failed,
        per(out.failed as f64, out.attempted as f64),
        out.steps
    );
    for f in &out.failures {
        println!("first failure: {f}");
    }
    let metrics = if args.trace {
        let (m, sum_check) = per_layer(out);
        println!("span sum check: layer self times + driver = {sum_check:.4} of step wall");
        if !(0.95..=1.05).contains(&sum_check) {
            println!("span sum check FAILED: parts and whole differ by more than 5%");
            correct = false;
        }
        let probe = out.probe.as_ref().expect("drive returns its probe");
        if let Some(dir) = &args.spans {
            let path = dir.join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
            let written = std::fs::create_dir_all(dir).and_then(|()| probe.write_spans(&path));
            match written {
                Ok(()) => println!(
                    "spans: {} kept, {} over the cap, written to {}",
                    probe.spans.len(),
                    probe.spans_dropped,
                    path.display()
                ),
                Err(e) => println!("spans: could not write {}: {e}", path.display()),
            }
        }
        m
    } else {
        for m in end_to_end(out, true) {
            println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "reference work: median {:.1} us over {} episodes",
            median(
                &out.reference_ns
                    .iter()
                    .map(|&v| v as f64 / 1e3)
                    .collect::<Vec<_>>()
            ),
            out.reference_ns.len()
        );
        end_to_end(out, false)
    };
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
