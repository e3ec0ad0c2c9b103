//! Trace determinism: the Perfetto export is a pure function of the
//! experiment — byte-identical across repeated runs and worker-thread
//! counts, with the measurement plan spreading the traced runs over
//! the pool — and tracing never perturbs the simulation it observes.

use genie::{ExperimentSetup, Semantics};
use genie_bench::inspect;
use genie_bench::plan::{self, Input, Measured};
use genie_machine::MachineSpec;

/// Measures the canonical traced runs under `sample` in a fresh plan
/// at `threads` worker threads, and renders one export from them.
fn inspect_export(
    threads: usize,
    sample: &genie::SampleConfig,
    export: fn(&Measured, &genie::SampleConfig) -> String,
) -> String {
    genie_runner::with_threads(threads, || {
        export(&plan::measure([&Input::Inspect(*sample)]), sample)
    })
}

#[test]
fn trace_export_is_byte_identical_across_thread_counts() {
    let keep_all = genie::SampleConfig::default();
    let base = inspect_export(1, &keep_all, inspect::trace_json);
    for threads in [2, 4] {
        let json = inspect_export(threads, &keep_all, inspect::trace_json);
        assert_eq!(json, base, "trace differs at {threads} threads");
    }
    // And across repeated runs at the same thread count.
    assert_eq!(inspect_export(1, &keep_all, inspect::trace_json), base);
}

#[test]
fn metrics_dump_is_byte_identical_across_thread_counts() {
    let keep_all = genie::SampleConfig::default();
    assert_eq!(
        inspect_export(1, &keep_all, inspect::metrics_json),
        inspect_export(4, &keep_all, inspect::metrics_json)
    );
}

/// Renders the eight-semantics 8-host star fan-in sweep (7 clients x
/// 4 requests x 2 KB into one server port) with the flight recorder
/// on, serializing every trace and metrics dump into one string.
fn fabric_sweep_render(cfg: &genie::SampleConfig) -> String {
    let obs = genie_runner::map(genie::ALL_SEMANTICS, |&s| {
        genie::rpc_fanin_observed(s, 7, 4, 2048, cfg)
    });
    let mut out = String::new();
    for o in obs {
        let sem = o.point.semantics;
        let mut ct = genie::ChromeTrace::new();
        ct.add_process(format!("fanin {sem}"), o.trace);
        out.push_str(&ct.to_json());
        out.push_str(&o.metrics.to_json());
    }
    out
}

#[test]
fn fabric_sampled_trace_is_byte_identical_across_thread_counts() {
    let cfg = genie::SampleConfig {
        rate: 4,
        budget: 4096,
        seed: 0xfeed_f00d,
    };
    let base = genie_runner::with_threads(1, || fabric_sweep_render(&cfg));
    for threads in [2, 4] {
        let got = genie_runner::with_threads(threads, || fabric_sweep_render(&cfg));
        assert_eq!(
            got, base,
            "sampled fabric sweep differs at {threads} threads"
        );
    }
    // The sampler actually engaged: the dropped-span ledger is in the
    // export, so a silently disabled sampler can't fake this pass.
    assert!(
        base.contains("dropped_spans"),
        "1-in-4 sampling dropped no spans"
    );
}

#[test]
fn fabric_sampling_off_reconciles_spans_with_ledger() {
    use genie_machine::{Op, SimTime};
    use std::collections::BTreeMap;

    // Keep everything (rate 1) with a budget far above the event
    // count, so the ring evicts nothing and the trace must account
    // for every charged op exactly, as in tests/trace_ledger.rs.
    let cfg = genie::SampleConfig {
        rate: 1,
        budget: 1 << 20,
        seed: 1,
    };
    let o = genie::rpc_fanin_observed(genie::Semantics::EmulatedCopy, 7, 4, 2048, &cfg);
    assert_eq!(o.trace.dropped_spans_total(), 0, "rate 1 must keep all");
    let is_op_track = |t: genie::Track| {
        matches!(
            t,
            genie::Track::Cpu | genie::Track::Vm | genie::Track::Adapter | genie::Track::Overlap
        )
    };
    for (i, (owner, events)) in o.trace.owners.iter().enumerate() {
        if owner == "link" {
            continue;
        }
        let prefix = match i {
            0 => "host_a".to_string(),
            1 => "host_b".to_string(),
            i => format!("host_{i}"),
        };
        let mut agg: BTreeMap<&str, (u64, SimTime)> = BTreeMap::new();
        for e in events.iter().filter(|e| is_op_track(e.track)) {
            let slot = agg.entry(e.name).or_insert((0, SimTime::ZERO));
            slot.0 += 1;
            slot.1 += e.dur;
        }
        for op in Op::ALL.iter() {
            let name = op.name();
            let count = o.metrics.counter(&format!("{prefix}.ops.{name}.count"));
            let (t_count, t_dur) = agg.get(name).copied().unwrap_or((0, SimTime::ZERO));
            assert_eq!(t_count, count, "{owner}: {name} count");
            let total_us = match o.metrics.get(&format!("{prefix}.ops.{name}.total_us")) {
                Some(genie::Metric::Gauge(g)) => *g,
                None => 0.0,
                other => panic!("{owner}: {name} total_us is {other:?}"),
            };
            assert!(
                (t_dur.as_us() - total_us).abs() < 1e-9,
                "{owner}: {name} span sum {} != ledger {}",
                t_dur.as_us(),
                total_us
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_measured_latency() {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    for &sem in Semantics::ALL.iter() {
        let plain = genie::measure_latency(&setup, sem, 61_440).expect("plain");
        let (traced, trace, _) =
            genie::measure_latency_traced(&setup, sem, 61_440).expect("traced");
        assert_eq!(plain, traced, "{sem}: tracing changed the simulation");
        assert!(!trace.is_empty(), "{sem}: traced run recorded nothing");
    }
}

#[test]
fn untraced_worlds_record_nothing() {
    use genie::{HostId, World, WorldConfig};
    let mut w = World::new(WorldConfig::default());
    assert!(!w.tracing_enabled());
    w.host_mut(HostId::A)
        .charge_latency(genie_machine::Op::Copyin, 4096, 1);
    assert!(w.take_trace().is_empty());
}
