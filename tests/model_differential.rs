//! Model-differential sweep: every semantics × every input buffering
//! architecture × hundreds of seeded op interleavings, each run
//! through the executable reference model (`genie-model`) and the real
//! simulator, demanding byte-equal observable state after every op.
//!
//! Every scenario is a pure function of `(semantics, arch, seed)`.
//! On divergence the harness shrinks to a minimal counterexample and
//! writes a replayable `.ops` file, crash dump and Chrome trace under
//! `target/model-counterexamples` (override with `GENIE_MODEL_CE_DIR`);
//! the failure message embeds a one-line reproducer.
//! `GENIE_MODEL_SEED=<seed>` replays one seed across the whole 8 × 3
//! grid; `GENIE_MODEL_SEEDS=<n>` overrides the seed count (default
//! 200) — `scripts/verify.sh` runs a 50-seed smoke, CI's nightly job a
//! 500-seed sweep. See `TESTING.md`.

use std::path::Path;

use genie::Semantics;
use genie_model::{
    check, replay_corpus, seed_is_faulted, seeds, shrink, Differential, ModelBug, Scenario,
    SwitchBug, SwitchScenario, ARCHITECTURES,
};
use genie_net::InputBuffering;

/// Seeds per sweep unless `GENIE_MODEL_SEEDS` says otherwise.
const DEFAULT_SEEDS: usize = 200;

#[test]
fn differential_sweep_every_semantics_architecture_and_seed() {
    let seeds = seeds(DEFAULT_SEEDS);
    // One runner cell per seed: each cell sweeps the full 8 × 3 grid
    // serially (a cell is still a pure function of its seed).
    let per_seed: Vec<(Vec<String>, usize, u64, u64)> = genie_runner::map(&seeds, |&seed| {
        let mut errs = Vec::new();
        let (mut recvs, mut probes, mut faults) = (0usize, 0u64, 0u64);
        for sem in Semantics::ALL {
            for arch in ARCHITECTURES {
                match check(Scenario::generate(sem, arch, seed)) {
                    Ok(stats) => {
                        recvs += stats.recv_completions;
                        probes += stats.probes_checked;
                        faults += stats.faults_injected;
                    }
                    Err(report) => errs.push(report.to_string()),
                }
            }
        }
        (errs, recvs, probes, faults)
    });
    let recvs: usize = per_seed.iter().map(|r| r.1).sum();
    let probes: u64 = per_seed.iter().map(|r| r.2).sum();
    let faults: u64 = per_seed.iter().map(|r| r.3).sum();
    let failures: Vec<String> = per_seed.into_iter().flat_map(|r| r.0).collect();

    assert!(
        failures.is_empty(),
        "{} differential scenario(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The pass must not be vacuous: data actually flowed, the probe
    // sweep actually compared bytes, and the masked fault profile
    // actually injected on the faulted quarter of the seeds.
    let scenarios = seeds.len() * Semantics::ALL.len() * ARCHITECTURES.len();
    assert!(
        recvs > scenarios,
        "only {recvs} receive completions across {scenarios} scenarios"
    );
    assert!(
        probes as usize > 4 * scenarios,
        "only {probes} probes across {scenarios} scenarios"
    );
    if seeds.iter().any(|&s| seed_is_faulted(s)) {
        assert!(
            faults > 0,
            "faulted seeds ran but the masked plan injected nothing"
        );
    }
}

/// Host count for the switched sweep: `GENIE_MODEL_HOSTS` (default 4,
/// clamped to 2..=16 — a switch port per host).
fn host_count() -> u16 {
    std::env::var("GENIE_MODEL_HOSTS")
        .ok()
        .and_then(|v| v.trim().parse::<u16>().ok())
        .unwrap_or(4)
        .clamp(2, 16)
}

#[test]
fn switched_differential_sweep_over_n_hosts() {
    // The N-host analogue of the sweep above: seeded op interleavings
    // on random switched topologies (unicast + multicast routes), the
    // real fabric checked against the naive ModelSwitch at every
    // barrier. Same env knobs: GENIE_MODEL_SEEDS, GENIE_MODEL_SEED,
    // GENIE_MODEL_HOSTS, GENIE_MODEL_CE_DIR.
    let hosts = host_count();
    let seeds = seeds(DEFAULT_SEEDS);
    let per_seed: Vec<(Option<String>, usize, usize)> = genie_runner::map(&seeds, |&seed| {
        match check(SwitchScenario::generate(hosts, seed)) {
            Ok(stats) => (None, stats.sends, stats.deliveries),
            Err(report) => (Some(report.to_string()), 0, 0),
        }
    });
    let sends: usize = per_seed.iter().map(|r| r.1).sum();
    let deliveries: usize = per_seed.iter().map(|r| r.2).sum();
    let failures: Vec<String> = per_seed.into_iter().filter_map(|r| r.0).collect();
    assert!(
        failures.is_empty(),
        "{} switched scenario(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Not vacuous: data flowed, and multicast routes fanned out
    // (deliveries outnumber sends across the sweep).
    assert!(
        sends > seeds.len(),
        "only {sends} sends across {} switched scenarios",
        seeds.len()
    );
    assert!(
        deliveries > sends,
        "no fan-out: {deliveries} deliveries for {sends} sends"
    );
}

#[test]
fn seeded_switch_model_bug_is_caught_and_shrinks_small() {
    // Teeth for the switched harness: a model that forgets to
    // replicate fan-out routes must be caught and shrink to a short
    // counterexample (one multicast send and a barrier).
    let mut caught = None;
    for seed in 0..100u64 {
        let sc = SwitchScenario::generate(4, seed);
        if sc.run(SwitchBug::ForgetReplicas, false).is_err() {
            caught = Some(sc);
            break;
        }
    }
    let sc = caught.expect("the seeded switch bug must diverge within 100 seeds");
    let (minimal, div) = shrink(&sc, SwitchBug::ForgetReplicas);
    assert!(
        minimal.ops.len() <= 4,
        "minimal switch counterexample has {} ops: {:?}",
        minimal.ops.len(),
        minimal.ops
    );
    assert!(!div.detail.is_empty());
    // The faithful model passes the shrunk scenario — it is a genuine
    // model bug, not a fabric one.
    minimal
        .run(SwitchBug::None, false)
        .expect("faithful model passes");

    // A per-VC order bug (LIFO ports) is also caught somewhere in the
    // seed range: scenarios with two sends on one route between
    // barriers exist.
    let lifo_caught = (0..100u64).any(|seed| {
        SwitchScenario::generate(4, seed)
            .run(SwitchBug::LifoPorts, false)
            .is_err()
    });
    assert!(lifo_caught, "LIFO port order must diverge within 100 seeds");
}

#[test]
fn any_seed_replays_to_identical_stats() {
    // The whole differential run is a pure function of the scenario —
    // the property the printed reproducer relies on.
    for seed in [1, 4, 13] {
        for sem in [
            Semantics::Copy,
            Semantics::Share,
            Semantics::EmulatedWeakMove,
        ] {
            for arch in ARCHITECTURES {
                let sc = Scenario::generate(sem, arch, seed);
                let a = sc.run(ModelBug::None, false).expect("scenario passes");
                let b = sc.run(ModelBug::None, false).expect("scenario passes");
                assert_eq!(a, b, "sem={sem} arch={arch:?} seed={seed}");
            }
        }
    }
}

#[test]
fn corpus_scenarios_replay_clean() {
    // The committed seed corpus: regression anchors that replay
    // verbatim from their `.ops` files, independent of the generator.
    let n = replay_corpus::<Scenario>(&corpus_dir("corpus"));
    assert!(n >= 5, "expected at least 5 corpus files, found {n}");
}

#[test]
fn switch_corpus_scenarios_replay_clean() {
    // Switched anchors (4 and 6 hosts, unicast and multicast routes) —
    // their own directory, because the verbs differ.
    let n = replay_corpus::<SwitchScenario>(&corpus_dir("corpus_switch"));
    assert!(n >= 4, "expected at least 4 switch corpus files, found {n}");
}

fn corpus_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

/// Regenerates the corpus from the generator. Run manually after an
/// intentional generator/format change:
/// `cargo test --test model_differential regenerate_corpus -- --ignored`
#[test]
#[ignore = "writes tests/corpus; run manually after generator changes"]
fn regenerate_corpus() {
    let dir = corpus_dir("corpus");
    std::fs::create_dir_all(&dir).unwrap();
    // A spread over semantics and architectures, including two
    // faulted seeds (every fourth seed runs the masked fault plan).
    let picks = [
        (Semantics::Copy, InputBuffering::EarlyDemux, 3u64),
        (Semantics::EmulatedCopy, InputBuffering::Pooled, 5),
        (Semantics::Share, InputBuffering::Outboard, 7),
        (Semantics::EmulatedShare, InputBuffering::EarlyDemux, 11),
        (Semantics::Move, InputBuffering::Pooled, 9),
        (Semantics::EmulatedMove, InputBuffering::Outboard, 13),
        (Semantics::WeakMove, InputBuffering::EarlyDemux, 8),
        (Semantics::EmulatedWeakMove, InputBuffering::Pooled, 12),
    ];
    for (sem, arch, seed) in picks {
        let sc = Scenario::generate(sem, arch, seed);
        sc.run(ModelBug::None, false)
            .expect("corpus scenario passes on main");
        let name = format!("{sem:?}_{arch:?}_{seed}.ops").to_lowercase();
        let body = format!(
            "# model-differential seed corpus — replayed verbatim by corpus_scenarios_replay_clean\n\
             # regenerate: cargo test --test model_differential regenerate_corpus -- --ignored\n{}",
            sc.to_ops_string()
        );
        std::fs::write(dir.join(name), body).unwrap();
    }
}

/// Regenerates the switch corpus from the generator. Run manually
/// after an intentional generator/format change:
/// `cargo test --test model_differential regenerate_switch_corpus -- --ignored`
#[test]
#[ignore = "writes tests/corpus_switch; run manually after generator changes"]
fn regenerate_switch_corpus() {
    let dir = corpus_dir("corpus_switch");
    std::fs::create_dir_all(&dir).unwrap();
    // Two host counts, each pick with at least one multicast route.
    for (hosts, seed) in [(4u16, 1u64), (4, 2), (6, 3), (6, 5)] {
        let sc = SwitchScenario::generate(hosts, seed);
        sc.run(SwitchBug::None, false)
            .expect("corpus scenario passes on main");
        let body = format!(
            "# switch-differential seed corpus — replayed verbatim by switch_corpus_scenarios_replay_clean\n\
             # regenerate: cargo test --test model_differential regenerate_switch_corpus -- --ignored\n{}",
            sc.to_ops_string()
        );
        std::fs::write(dir.join(format!("h{hosts}_{seed}.ops")), body).unwrap();
    }
}

#[test]
fn seeded_model_bug_is_caught_and_shrinks_small() {
    // Prove the harness has teeth: a deliberately wrong model (basic
    // share treated as a strong semantics) must be caught by the
    // sweep and shrink to a short counterexample.
    let mut caught = None;
    'search: for seed in 0..100u64 {
        for arch in ARCHITECTURES {
            let sc = Scenario::generate(Semantics::Share, arch, seed);
            if sc.run(ModelBug::ShareIsStrong, false).is_err() {
                caught = Some(sc);
                break 'search;
            }
        }
    }
    let sc = caught.expect("the seeded bug must diverge within 100 seeds");
    let (minimal, div) = shrink(&sc, ModelBug::ShareIsStrong);
    assert!(
        minimal.ops.len() <= 10,
        "minimal counterexample has {} ops: {:?}",
        minimal.ops.len(),
        minimal.ops
    );
    assert!(
        !div.detail.is_empty() && minimal.ops.len() <= sc.ops.len(),
        "shrinking must not grow the scenario"
    );
    // The shrunk scenario is a genuine model bug, not a real one: the
    // correct model passes it.
    minimal
        .run(ModelBug::None, false)
        .expect("correct model passes the counterexample");
}
