//! Flight-recorder acceptance: an 8-host star fan-in with
//! budget-bounded sampling stays within its memory bound and reports
//! per-port HOL-stall and per-VC latency rollups; a forced invariant
//! failure writes a crash-dump artifact whose scenario replays.

use genie::{
    HostId, InputRequest, Metric, OutputRequest, SampleConfig, Semantics, World, WorldConfig,
};
use genie_net::Vc;
use genie_trace::json::{self, Json};

const BUDGET: usize = 256;

#[test]
fn budget_bounded_fanin_reports_port_and_vc_rollups() {
    let cfg = SampleConfig {
        rate: 8,
        budget: BUDGET,
        seed: 7,
    };
    let o = genie::rpc_fanin_observed_with(Semantics::EmulatedCopy, 7, 8, 2048, &cfg);

    // Memory bound: no tracer ring ever holds more than the budget,
    // and the sampler (not just ring eviction) did real work.
    for (owner, events) in &o.trace.owners {
        assert!(
            events.len() <= BUDGET,
            "{owner}: {} events exceed the {BUDGET}-event budget",
            events.len()
        );
    }
    assert!(
        o.trace.dropped_spans_total() > 0,
        "1-in-8 sampling under load must drop spans"
    );

    // Per-port HOL-stall rollup: the server port (0) is the fan-in
    // bottleneck and must report credit stalls; the rollup layer sums
    // the per-port counters.
    let port0_stalls = o.metrics.counter("switch.port_0.credit_stalls");
    assert!(port0_stalls > 0, "fan-in produced no HOL stalls on port 0");
    assert_eq!(
        o.metrics.counter("rollup.port.credit_stalls"),
        (0..8)
            .map(|p| o.metrics.counter(&format!("switch.port_{p}.credit_stalls")))
            .sum::<u64>(),
        "port rollup must sum the per-port stall counters"
    );

    // Per-VC p50/p99 rollups: every client circuit (vc 101..=107)
    // reports a latency distribution with usable quantiles, and the
    // cross-VC rollup merges them all.
    let mut merged_count = 0;
    for vc in 101..=107 {
        match o.metrics.get(&format!("vc.{vc}.latency_ns")) {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count(), 8, "vc {vc}: one sample per request");
                let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
                assert!(p50 > 0, "vc {vc}: empty p50");
                assert!(p99 >= p50, "vc {vc}: p99 {p99} < p50 {p50}");
                merged_count += h.count();
            }
            other => panic!("vc {vc}: latency rollup missing ({other:?})"),
        }
    }
    match o.metrics.get("rollup.vc.latency_ns") {
        Some(Metric::Histogram(h)) => assert_eq!(h.count(), merged_count),
        other => panic!("cross-VC rollup missing ({other:?})"),
    }

    // The per-host rollup layer is present too (the aggregate the
    // compare tool diffs).
    assert!(
        o.metrics.get("rollup.host.busy_us").is_some(),
        "host rollup missing"
    );
}

#[test]
fn budgeted_cq_run_reports_depth_and_window_rollups() {
    let sample = SampleConfig {
        rate: 4,
        budget: BUDGET,
        seed: 11,
    };
    let cfg = genie::CqSuiteConfig::default();
    let o = genie::cq_fanin_observed(Semantics::EmulatedCopy, 4, &cfg, &sample);

    // The observed run did the real exchange: every request delivered
    // at the requested window.
    assert_eq!(o.point.depth, 4);
    assert!(o.point.mbps > 0.0, "no goodput recorded");
    assert_eq!(
        o.point.dist.count as usize,
        usize::from(cfg.clients) * cfg.requests,
        "observed run lost deliveries"
    );

    // Memory bound: sampled tracing over the CQ run stays within the
    // per-owner ring budget, and the sampler did real dropping.
    for (owner, events) in &o.trace.owners {
        assert!(
            events.len() <= BUDGET,
            "{owner}: {} events exceed the {BUDGET}-event budget",
            events.len()
        );
    }
    assert!(
        o.trace.dropped_spans_total() > 0,
        "1-in-4 sampling under CQ load must drop spans"
    );

    // Every queue pair (hub on host 0, clients on 1..=7) recorded a
    // harvest-time depth and window series, and the rollup histograms
    // merge them exactly: the rolled-up sample count equals the sum of
    // the per-host counts, with no samples invented or lost.
    let hosts = 0..=u64::from(cfg.clients);
    let mut depth_count = 0;
    let mut window_count = 0;
    for h in hosts.clone() {
        let d = o
            .metrics
            .histogram(&format!("cq_{h}.depth"))
            .unwrap_or_else(|| panic!("cq_{h}.depth series missing"));
        assert!(d.count() > 0, "cq_{h}.depth recorded no samples");
        depth_count += d.count();
        let w = o
            .metrics
            .histogram(&format!("cq_{h}.window"))
            .unwrap_or_else(|| panic!("cq_{h}.window series missing"));
        assert_eq!(
            w.count(),
            d.count(),
            "cq_{h}: window and depth are sampled together"
        );
        window_count += w.count();
    }
    let rolled_depth = o
        .metrics
        .histogram("rollup.cq.depth")
        .expect("rollup.cq.depth missing");
    assert_eq!(
        rolled_depth.count(),
        depth_count,
        "cq depth rollup must sum the per-host series exactly"
    );
    let rolled_window = o
        .metrics
        .histogram("rollup.cq.window")
        .expect("rollup.cq.window missing");
    assert_eq!(rolled_window.count(), window_count);
    assert_eq!(
        o.metrics.counter("rollup.cq.members"),
        u64::from(cfg.clients) + 1,
        "every queue-pair host contributes to the rollup"
    );
    // The client windows are fixed at the swept depth, so no sampled
    // window can exceed it (the hub's response window is sized to
    // cover every client, so it bounds the rollup max instead).
    assert!(
        rolled_window.max() >= rolled_depth.max(),
        "window samples bound the in-flight depth samples"
    );

    // Observation-only: a different sampling plan (different seed,
    // rate, and budget) must reproduce the identical simulated point.
    let o2 = genie::cq_fanin_observed(
        Semantics::EmulatedCopy,
        4,
        &cfg,
        &SampleConfig {
            rate: 64,
            budget: 32,
            seed: 3,
        },
    );
    assert_eq!(o.point.sim_us, o2.point.sim_us, "sampling moved sim time");
    assert_eq!(o.point.mbps, o2.point.mbps, "sampling moved goodput");
    assert_eq!(o.point.dist.p99, o2.point.dist.p99);
}

/// One deterministic strong-integrity exchange whose promised payload
/// fingerprint is overwritten with a bogus value, so the oracle must
/// flag the delivery. Returns the violations.
fn run_poisoned_exchange() -> Vec<String> {
    let bytes = 2048;
    let mut w = World::new(WorldConfig::default());
    w.enable_tracing(true);
    w.enable_oracle();
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let vc = Vc(1);
    let sem = Semantics::Copy; // strong integrity: promises a fingerprint

    let (off, _) = w.preferred_alignment(HostId::B, vc);
    let dst = w
        .host_mut(HostId::B)
        .alloc_buffer(rx, bytes, off)
        .expect("dst");
    w.input(HostId::B, InputRequest::app(sem, vc, rx, dst, bytes))
        .expect("input");

    let src = w
        .host_mut(HostId::A)
        .alloc_buffer(tx, bytes, 0)
        .expect("src");
    let data: Vec<u8> = (0..bytes).map(|i| (i * 13 + 5) as u8).collect();
    w.app_write(HostId::A, tx, src, &data).expect("fill");
    w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, bytes))
        .expect("output");

    // Poison the promise: the delivery's true fingerprint can never
    // match, so the oracle must flag it and the world must dump.
    w.oracle_mut()
        .expect("oracle enabled")
        .record_promised(vc.0, 0, 0xdead_beef_dead_beef);
    w.run();
    w.oracle()
        .expect("oracle enabled")
        .violations()
        .iter()
        .map(|v| v.what.clone())
        .collect()
}

#[test]
fn forced_invariant_failure_emits_replayable_crash_dump() {
    let dir = std::env::temp_dir().join(format!("genie_crash_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("GENIE_CRASH_DUMP_DIR", &dir);

    let violations = run_poisoned_exchange();
    assert!(!violations.is_empty(), "poisoned promise went unflagged");

    // The world wrote exactly one crash-dump artifact.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("crash-dump dir created")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".dump.json"))
        .collect();
    assert_eq!(dumps.len(), 1, "expected one dump, got {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("readable dump");
    let dump = json::parse(&text).unwrap_or_else(|e| panic!("dump is not JSON ({e}):\n{text}"));
    assert_eq!(
        dump.get("reason").and_then(Json::as_str),
        Some("invariant oracle violation")
    );
    assert!(dump.get("reproduce").and_then(Json::as_str).is_some());
    // The dump records the violation the oracle flagged.
    let Some(Json::Arr(dumped)) = dump.get("violations") else {
        panic!("dump has no violations array:\n{text}")
    };
    assert!(
        dumped
            .iter()
            .filter_map(Json::as_str)
            .any(|v| v.contains("strong-integrity payload")),
        "dump lost the violation detail"
    );
    let Some(Json::Obj(owners)) = dump.get("flight_recorder") else {
        panic!("flight_recorder is not an object:\n{text}")
    };
    assert!(
        !owners.is_empty() && owners.iter().all(|(_, o)| o.get("dropped_spans").is_some()),
        "an owner lacks its dropped_spans ledger"
    );
    assert!(
        matches!(dump.get("metrics"), Some(Json::Obj(_))),
        "metrics is not an object"
    );

    // Replayable: the same deterministic scenario reproduces the
    // identical violation (this is what the recorded reproduce line
    // lets a human do from the artifact).
    let replay = run_poisoned_exchange();
    assert_eq!(replay, violations, "replay diverged from the dumped run");

    let _ = std::fs::remove_dir_all(&dir);
    std::env::remove_var("GENIE_CRASH_DUMP_DIR");
}
