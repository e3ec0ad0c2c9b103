//! The switched-fabric exhibit: latency distributions per semantics
//! under contention on N-host topologies.
//!
//! This is an *explicit* exhibit — `report fabric` — and deliberately
//! not part of `report all` or a bare `report`: the paper's exhibits
//! are two-host point measurements and their golden output must stay
//! byte-identical. The fabric suites extend the paper's question
//! (which buffering semantics wins?) to the contended regime, where
//! the answer is a distribution, not a point.

use genie::suites::FabricObservation;
use genie::{SampleConfig, SuitePoint, ALL_SEMANTICS};
use genie_fault::FaultConfig;
use genie_trace::metrics::Metric;

fn header(out: &mut String, title: &str) {
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}\n",
        "semantics", "p50_us", "p99_us", "max_us", "mean_us", "stalls", "max_depth"
    ));
}

fn rows(out: &mut String, points: &[SuitePoint]) {
    for p in points {
        out.push_str(&format!(
            "{:<16} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>10}\n",
            p.semantics.label(),
            p.dist.p50.as_us(),
            p.dist.p99.as_us(),
            p.dist.max.as_us(),
            p.dist.mean.as_us(),
            p.switch.credit_stalls,
            p.switch.max_port_depth,
        ));
    }
}

/// Renders the three fabric suites across all eight semantics.
pub fn fabric_exhibit() -> String {
    let mut out = String::from(
        "# Switched fabric: latency distributions under contention\n\
         star / multicast topologies, per-hop credit flow control;\n\
         every delivered byte integrity-checked, fabric conservation\n\
         asserted at quiesce. Explicit exhibit: `report fabric`.\n\n",
    );

    header(
        &mut out,
        "RPC fan-in: 192 clients x 4 pipelined 2 KB requests -> 1 server port",
    );
    let fanin = genie::suites::sweep(ALL_SEMANTICS, |s| genie::rpc_fanin(s, 192, 4, 2048));
    rows(&mut out, &fanin);
    out.push('\n');

    header(
        &mut out,
        "Cluster reduce: 64 nodes, 32 KB vectors, 2 phases",
    );
    let reduce = genie::suites::sweep(ALL_SEMANTICS, |s| genie::cluster_reduce(s, 64, 4096, 2));
    rows(&mut out, &reduce);
    out.push('\n');

    header(
        &mut out,
        "Multicast stream: 96 subscribers x 16 frames of 8 KB",
    );
    let mcast = genie::suites::sweep(ALL_SEMANTICS, |s| genie::multicast_stream(s, 96, 16, 8192));
    rows(&mut out, &mcast);
    out
}

/// The observed fan-in every flight-recorder view is built from: an
/// 8-host star (7 clients x 8 pipelined 2 KB requests into one server
/// port) per semantics, with tracing, switch observation and per-VC
/// latency capture on, sampled and bounded per `sample`. All numbers
/// are simulated, so the output is byte-identical at any thread count.
fn observed_fanin(sample: &SampleConfig) -> Vec<FabricObservation> {
    genie_runner::map(ALL_SEMANTICS, |&s| {
        genie::suites::rpc_fanin_observed(s, 7, 8, 2048, sample)
    })
}

/// Renders `report fabric --metrics`: per-semantics per-VC delivery
/// p50/p99 (from the rollup layer's top-K circuits), the per-port
/// stall/depth table, and the sampling ledger.
pub fn fabric_metrics_report(sample: &SampleConfig) -> String {
    let obs = observed_fanin(sample);
    let mut out = String::from(
        "# Fabric flight recorder: 8-host star fan-in, per-semantics rollups\n\
         7 clients x 8 pipelined 2 KB requests -> 1 server port. Per-VC\n\
         delivery latency from the rollup layer (top-K circuits); per-port\n\
         queue depth and HOL credit stalls from switch observation.\n\n",
    );
    for o in &obs {
        out.push_str(&format!("## {}\n", o.point.semantics.label()));
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>10}\n",
            "vc", "count", "p50_us", "p99_us"
        ));
        for (name, m) in o.metrics.iter() {
            let Some(rest) = name.strip_prefix("vc.") else {
                continue;
            };
            let Some(vc) = rest.strip_suffix(".latency_ns") else {
                continue;
            };
            if let Metric::Histogram(h) = m {
                out.push_str(&format!(
                    "{:<10} {:>8} {:>10.1} {:>10.1}\n",
                    vc,
                    h.count(),
                    h.quantile(0.5) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3,
                ));
            }
        }
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>10} {:>12}\n",
            "port", "sent", "stalls", "depth_p50", "depth_max"
        ));
        let port_counter = |p: usize, field: &str| -> u64 {
            o.metrics.counter(&format!("switch.port_{p}.{field}"))
        };
        for p in 0.. {
            let key = format!("switch.port_{p}.dispatched");
            if o.metrics.get(&key).is_none() {
                break;
            }
            let (depth_p50, depth_max) = match o.metrics.get(&format!("switch.port_{p}.depth")) {
                Some(Metric::Histogram(h)) => (h.quantile(0.5), h.max()),
                _ => (0, 0),
            };
            out.push_str(&format!(
                "{:<10} {:>8} {:>10} {:>10} {:>12}\n",
                p,
                port_counter(p, "dispatched"),
                port_counter(p, "credit_stalls"),
                depth_p50,
                depth_max,
            ));
        }
        let kept: usize = o.trace.owners.iter().map(|(_, evs)| evs.len()).sum();
        out.push_str(&format!(
            "trace: {} events kept, {} spans sampled out\n\n",
            kept,
            o.trace.dropped_spans_total(),
        ));
    }
    out
}

/// One scale-tier sweep: every semantics pushed through the 64-host
/// star.
pub struct ScaleReport {
    /// One point per semantics, in `ALL_SEMANTICS` order.
    pub points: Vec<genie::suites::ScalePoint>,
    /// Cores visible to this process (recorded with the wall clocks).
    pub cores: usize,
    /// Datagrams per semantics.
    pub per_semantics: usize,
    /// The process's peak resident memory after the sweep, in MiB
    /// (`None` where the OS does not report it).
    pub peak_rss_mb: Option<f64>,
}

/// Scale-tier hosts and payload: a 64-host star of 2 KB datagrams,
/// the contended fan-in regime the paper's two-host exhibits cannot
/// reach.
const SCALE_HOSTS: u16 = 64;
const SCALE_BYTES: usize = 2048;

/// Runs the scale tier, `per` datagrams per semantics. Sequential
/// over semantics on purpose: each run owns the machine so `wall_s`
/// measures the event loop, not scheduler contention between
/// exhibits.
pub fn fabric_scale_run(per: usize) -> ScaleReport {
    let points: Vec<_> = ALL_SEMANTICS
        .iter()
        .map(|&s| genie::suites::fabric_scale(s, SCALE_HOSTS, per, SCALE_BYTES))
        .collect();
    ScaleReport {
        points,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        per_semantics: per,
        peak_rss_mb: crate::timing::peak_rss_mb(),
    }
}

/// Renders `report fabric --scale` stdout. Simulated numbers only —
/// the rendered text is byte-identical on every machine; wall-clock
/// throughput lives in `BENCH_report.json`.
pub fn fabric_scale_exhibit(report: &ScaleReport) -> String {
    let mut out = format!(
        "# Fabric scale tier: {}-host star fan-in, {} x {} B datagrams per semantics\n\
         All numbers below are simulated and thread-count invariant;\n\
         wall-clock throughput is recorded via\n\
         `report --json fabric --scale` only.\n\n",
        SCALE_HOSTS, report.per_semantics, SCALE_BYTES,
    );
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "semantics", "datagrams", "p50_us", "p99_us", "max_us", "sim_ms", "sim_mbps"
    ));
    for p in &report.points {
        let bits = (p.datagrams * SCALE_BYTES * 8) as f64;
        out.push_str(&format!(
            "{:<16} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            p.semantics.label(),
            p.datagrams,
            p.dist.p50.as_us(),
            p.dist.p99.as_us(),
            p.dist.max.as_us(),
            p.sim_us / 1e3,
            bits / p.sim_us,
        ));
    }
    out
}

/// Flat `"scale"` section for `report --json fabric --scale`: the
/// per-semantics simulated distribution plus the host-side wall
/// clocks, core count and peak RSS — `scripts/perf_gate.py` gates the
/// wall clocks.
pub fn fabric_scale_json_section(report: &ScaleReport) -> FlatRows {
    let mut rows: FlatRows = vec![
        ("cores".into(), report.cores as f64),
        (
            "datagrams_total".into(),
            (report.per_semantics * report.points.len()) as f64,
        ),
    ];
    let mut wall_total = 0.0;
    for p in &report.points {
        let label = p.semantics.label();
        rows.push((format!("{label}.p50_us"), p.dist.p50.as_us()));
        rows.push((format!("{label}.p99_us"), p.dist.p99.as_us()));
        rows.push((format!("{label}.sim_ms"), p.sim_us / 1e3));
        rows.push((format!("{label}.wall_s"), p.wall_s));
        rows.push((
            format!("{label}.wall_kdgrams_per_s"),
            p.datagrams as f64 / p.wall_s.max(1e-9) / 1e3,
        ));
        rows.push((format!("{label}.peak_resident"), p.peak_resident as f64));
        wall_total += p.wall_s;
    }
    rows.push(("wall_total_s".into(), wall_total));
    if let Some(mb) = report.peak_rss_mb {
        rows.push(("peak_rss_mb".into(), mb));
    }
    rows
}

/// One flat `"label": number` JSON section, in emission order.
pub type FlatRows = Vec<(String, f64)>;

/// Flat numeric sections for `report --json fabric`: the `"fabric"`
/// per-semantics fan-in distribution and the `"host_rollup"`
/// aggregate-over-hosts rollup (from the canonical `copy` run) —
/// the two sections `report --compare` diffs.
pub fn fabric_json_sections(sample: &SampleConfig) -> (FlatRows, FlatRows) {
    let obs = observed_fanin(sample);
    let mut fabric = Vec::new();
    for o in &obs {
        let label = o.point.semantics.label();
        fabric.push((
            format!("rpc_fanin.{label}.p50_us"),
            o.point.dist.p50.as_us(),
        ));
        fabric.push((
            format!("rpc_fanin.{label}.p99_us"),
            o.point.dist.p99.as_us(),
        ));
        fabric.push((
            format!("rpc_fanin.{label}.credit_stalls"),
            o.point.switch.credit_stalls as f64,
        ));
    }
    let mut host = Vec::new();
    if let Some(o) = obs.first() {
        for (name, m) in o.metrics.iter() {
            let Some(rest) = name.strip_prefix("rollup.host.") else {
                continue;
            };
            let v = match m {
                Metric::Counter(c) => *c as f64,
                Metric::Gauge(g) => *g,
                Metric::Histogram(h) => h.count() as f64,
            };
            host.push((rest.to_string(), v));
        }
    }
    (fabric, host)
}

/// Runs the CQ saturation sweep (`report fabric --cq`): queue depth x
/// eight semantics on the 8-host star, fixed in-flight window per
/// client queue pair, under the fault plan `fault` (the sweep's
/// default is fault-free; `report` passes the masked plan when asked,
/// so the determinism smoke can byte-compare the faulted table across
/// thread counts too).
pub fn fabric_cq_run(fault: FaultConfig) -> Vec<genie::CqSaturationPoint> {
    genie::cq_sweep(&genie::CqSuiteConfig {
        fault,
        ..genie::CqSuiteConfig::default()
    })
}

/// Renders `report fabric --cq`: the per-semantics saturation table
/// (knee depth plus p50/p99 at the knee) and the goodput-by-depth
/// matrix. Simulated numbers only, so the text is byte-identical at
/// any thread count.
pub fn fabric_cq_exhibit(points: &[genie::CqSaturationPoint]) -> String {
    let cfg = genie::CqSuiteConfig::default();
    let mut out = format!(
        "# CQ saturation: {}-host star, {} clients x {} x {} B requests per depth\n\
         Campus-span wire ({:.0} us one-way). Submission/completion-queue\n\
         front-end; each client's queue pair runs a fixed in-flight window\n\
         equal to the swept depth. The knee is the smallest depth within\n\
         5% of the sweep's best goodput.\n\n",
        cfg.clients + 1,
        cfg.clients,
        cfg.requests,
        cfg.bytes,
        cfg.link_latency_us,
    );
    out.push_str(&format!(
        "{:<18} {:>6} {:>12} {:>12} {:>10} {:>10}\n",
        "semantics", "knee", "p50_us_knee", "p99_us_knee", "knee_mbps", "best_mbps"
    ));
    for p in points {
        let k = p.knee_point();
        let best = p.points.iter().map(|d| d.mbps).fold(0.0f64, f64::max);
        out.push_str(&format!(
            "{:<18} {:>6} {:>12.1} {:>12.1} {:>10.1} {:>10.1}\n",
            p.semantics.label(),
            p.knee,
            k.dist.p50.as_us(),
            k.dist.p99.as_us(),
            k.mbps,
            best,
        ));
    }
    out.push_str("\n## Goodput (simulated Mbit/s) by queue depth\n");
    out.push_str(&format!("{:<18}", "semantics"));
    for d in &cfg.depths {
        out.push_str(&format!(" {:>9}", format!("d={d}")));
    }
    out.push('\n');
    for p in points {
        out.push_str(&format!("{:<18}", p.semantics.label()));
        for d in &p.points {
            out.push_str(&format!(" {:>9.1}", d.mbps));
        }
        out.push('\n');
    }
    out
}

/// Flat `"cq_saturation"` section for `report --json fabric --cq`:
/// knee depth and knee-point stats per semantics, plus the raw
/// goodput at every depth. `scripts/perf_gate.py` reports this
/// section informationally.
pub fn fabric_cq_json_section(points: &[genie::CqSaturationPoint]) -> FlatRows {
    let mut rows: FlatRows = Vec::new();
    for p in points {
        let label = p.semantics.label();
        let k = p.knee_point();
        rows.push((format!("{label}.knee_depth"), p.knee as f64));
        rows.push((format!("{label}.knee_p50_us"), k.dist.p50.as_us()));
        rows.push((format!("{label}.knee_p99_us"), k.dist.p99.as_us()));
        rows.push((format!("{label}.knee_mbps"), k.mbps));
        for d in &p.points {
            rows.push((format!("{label}.d{}_mbps", d.depth), d.mbps));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_mentions_every_semantics() {
        // Tiny render (the full exhibit is exercised by `report
        // fabric` itself); here just check the row formatter.
        let p = genie::rpc_fanin(genie::Semantics::Copy, 2, 1, 512);
        let mut out = String::new();
        rows(&mut out, &[p]);
        assert!(out.starts_with("copy"));
    }
}
