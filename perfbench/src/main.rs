//! Host wall-clock benchmark of the genie simulator.
//!
//! ```text
//! genie-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--revision <rev>] [--spans <dir>]
//! ```
//!
//! One run repeats episodes of fixed work on one workload until
//! `--seconds` have passed. It drives genie only through its public
//! API, on the program's default engine, in this single thread. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced episodes and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and every metric.

mod cq_rpc;
mod cx;
mod fanin;
mod pair_sweep;
mod probe;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod workload;

use std::process::ExitCode;

use crate::report::Provenance;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Source revision, when known.
    pub revision: String,
    /// Directory for the traced run's span file.
    pub spans: Option<std::path::PathBuf>,
}

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["pair_sweep", "star_fanin", "cq_rpc", "lossy_fanin"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        revision: "unknown".into(),
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--revision" => args.revision = value,
            "--spans" => args.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The benchmark always measures the program's default engine and
    // configuration: a GENIE_* knob would silently change what it runs.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GENIE_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "genie-perfbench: unset {} first; the benchmark runs the default configuration",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("genie-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect(&args);
    let out = match args.workload.as_str() {
        "pair_sweep" => run::drive(&pair_sweep::PairSweep::new(args.seed), &args),
        "star_fanin" => run::drive(&fanin::FanIn::star(args.seed), &args),
        "cq_rpc" => run::drive(&cq_rpc::CqRpc::new(args.seed), &args),
        "lossy_fanin" => run::drive(&fanin::FanIn::lossy(args.seed), &args),
        _ => unreachable!("parse_args checked the workload"),
    };
    report::print(&args, &provenance, &out)
}
