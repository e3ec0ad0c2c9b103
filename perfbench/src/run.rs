//! The run loop: episodes of fixed work until the time is up.

use std::time::{Duration, Instant};

use crate::cx::{splitmix, Counts, Cx};
use crate::probe::Probe;
use crate::workload::{Episode, Workload};
use crate::Args;

/// Episodes every run makes, however short `--seconds` is (the traced
/// run needs both untraced and traced ones).
const MIN_EPISODES: usize = 5;
/// Traced episodes that read work counts: always the same episodes of
/// a run, so the counts repeat exactly from run to run.
const COUNTED_EPISODES: usize = 4;

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Episodes run.
    pub episodes: usize,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// First failures, for the report.
    pub failures: Vec<String>,
    /// Untraced episodes: host time of the reference work measured just
    /// before each, in ns.
    pub reference_ns: Vec<u64>,
    /// Untraced episodes: set-up seconds.
    pub setup_s: Vec<f64>,
    /// Untraced episodes: whole-episode seconds.
    pub wall_s: Vec<f64>,
    /// Untraced episodes: verified ops per second of the timed loop.
    pub ops_per_s: Vec<f64>,
    /// Traced episodes: verified ops per second of the timed loop.
    pub traced_ops_per_s: Vec<f64>,
    /// Untraced episodes: steps run.
    pub steps: u64,
    /// Untraced episodes: the longest step in ns.
    pub step_max_ns: u64,
    /// Untraced episodes: median step time in ns.
    pub step_p50_ns: Vec<u64>,
    /// Untraced episodes: 90th-percentile step time in ns.
    pub step_p90_ns: Vec<u64>,
    /// Traced episodes: `World::run` ns per step, first tenth of steps.
    pub run_first_ns: Vec<u64>,
    /// Traced episodes: `World::run` ns per step, last tenth of steps.
    pub run_last_ns: Vec<u64>,
    /// Traced episodes: step ns summed.
    pub traced_step_ns: u64,
    /// Ops of the traced episodes.
    pub traced_ops: u64,
    /// The probe, with the traced episodes' totals and spans.
    pub probe: Option<Probe>,
    /// Work counts read after the traced episodes' loops.
    pub counts: Counts,
}

/// Nearest-rank percentile `p` of `v` (0 when empty).
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let r = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[r - 1]
}

/// Host time of a fixed unit of work that shares nothing with genie:
/// 20,000 inserts, range lookups and removes on a `BTreeMap` of up to
/// 8,192 keys (about 1 ms on the hosts this was built on). Like genie,
/// it is allocation-heavy, branchy pointer chasing, so it slows down
/// with the host where a pure arithmetic loop does not; the report
/// scales every episode's times by it (see `report::at_reference`).
pub fn reference_ns() -> u64 {
    let t0 = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x5eed_u64;
    for i in 0..20_000u64 {
        x = splitmix(x);
        map.insert(x % 8192, i);
        if let Some((&k, _)) = map.range(x % 4096..).next() {
            map.remove(&k);
        }
    }
    std::hint::black_box(map.len());
    t0.elapsed().as_nanos() as u64
}

/// Runs `wl` for `args.seconds`.
pub fn drive<W: Workload>(wl: &W, args: &Args) -> Outcome {
    let mut cx = Cx::new();
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let planned = wl.ops_per_episode();
    while out.episodes < MIN_EPISODES || start.elapsed() < budget {
        let traced = args.trace && out.episodes % 2 == 1;
        let reference = reference_ns();
        cx.probe.set_tracing(traced);
        cx.episode = out.episodes;
        cx.read_counts = traced && out.episodes < 2 * COUNTED_EPISODES;
        cx.ok_ops = 0;
        cx.extra_failures = 0;
        let mut steps = Vec::new();
        let mut run_ns = Vec::new();
        let t0 = Instant::now();
        let mut setup = Duration::ZERO;
        let mut looped = Duration::ZERO;
        let verdict = match wl.setup(&mut cx) {
            Err(e) => Err(format!("set-up: {}", e.0)),
            Ok(mut ep) => {
                let t1 = Instant::now();
                setup = t1 - t0;
                let stepped = loop {
                    let s0 = cx.probe.begin_step();
                    let more = ep.step(&mut cx);
                    let (ns, run) = cx.probe.end_step(s0);
                    steps.push(ns);
                    run_ns.push(run);
                    match more {
                        Ok(true) => {}
                        Ok(false) => break Ok(()),
                        Err(e) => break Err(format!("step {}: {}", steps.len() - 1, e.0)),
                    }
                };
                looped = t1.elapsed();
                // An aborted episode still tears its world down.
                stepped.and_then(|()| ep.finish(&mut cx))
            }
        };
        let wall = t0.elapsed();
        let failed = match verdict {
            Ok(()) => (planned - cx.ok_ops.min(planned) + cx.extra_failures).min(planned),
            Err(e) => {
                cx.note(|| e);
                planned
            }
        };
        out.attempted += planned;
        out.failed += failed;
        let ops_per_s = cx.ok_ops as f64 / looped.as_secs_f64().max(1e-9);
        if traced {
            out.traced_ops_per_s.push(ops_per_s);
            out.traced_step_ns += steps.iter().sum::<u64>();
            out.traced_ops += planned;
            let tenth = (run_ns.len() / 10).max(1);
            out.run_first_ns
                .extend_from_slice(&run_ns[..tenth.min(run_ns.len())]);
            out.run_last_ns
                .extend_from_slice(&run_ns[run_ns.len().saturating_sub(tenth)..]);
        } else {
            out.reference_ns.push(reference);
            out.ops_per_s.push(ops_per_s);
            out.setup_s.push(setup.as_secs_f64());
            out.wall_s.push(wall.as_secs_f64());
            out.step_p50_ns.push(percentile(&steps, 0.50));
            out.step_p90_ns.push(percentile(&steps, 0.90));
            out.steps += steps.len() as u64;
            out.step_max_ns = out
                .step_max_ns
                .max(steps.iter().copied().max().unwrap_or(0));
        }
        out.episodes += 1;
    }
    out.failures.extend(cx.first_failure.take());
    out.counts = std::mem::take(&mut cx.counts);
    out.probe = Some(cx.probe);
    out
}
