//! CQ-level differential sweep: every semantics × every input
//! buffering architecture × seeded op interleavings of the
//! submission/completion-queue API, each run through the real
//! [`genie::QueuePair`] and `genie-model`'s naive [`ModelQueue`]
//! (unbounded, FIFO-by-completion-time), demanding identical polled
//! tag streams, payload bytes, and backpressure rejects.
//!
//! Every scenario is a pure function of `(semantics, arch, seed)`.
//! On divergence the harness shrinks to a minimal counterexample and
//! writes a replayable `.ops` file, crash dump and Chrome trace under
//! `target/model-counterexamples` (override with `GENIE_MODEL_CE_DIR`).
//! `GENIE_MODEL_SEED=<seed>` replays one seed across the whole 8 × 3
//! grid; `GENIE_MODEL_SEEDS=<n>` overrides the seed count (default
//! 120) — `scripts/verify.sh` runs 50, CI's cq-differential job 500.

use std::path::Path;

use genie::Semantics;
use genie_model::{
    check, replay_corpus, seeds, shrink, CqBug, CqOp, CqScenario, Differential, ARCHITECTURES,
};
use genie_net::InputBuffering;

/// Seeds per sweep unless `GENIE_MODEL_SEEDS` says otherwise.
const DEFAULT_SEEDS: usize = 120;

#[test]
fn cq_differential_sweep_every_semantics_architecture_and_seed() {
    let seeds = seeds(DEFAULT_SEEDS);
    // One runner cell per seed; each cell sweeps the 8 × 3 grid
    // serially and stays a pure function of its seed.
    let per_seed: Vec<(Vec<String>, usize, u64, u64, u64)> = genie_runner::map(&seeds, |&seed| {
        let mut errs = Vec::new();
        let (mut recvs, mut rejects, mut overflows, mut probes) = (0usize, 0u64, 0u64, 0u64);
        for sem in Semantics::ALL {
            for arch in ARCHITECTURES {
                match check(CqScenario::generate(sem, arch, seed)) {
                    Ok(stats) => {
                        recvs += stats.recv_completions;
                        rejects += stats.sq_rejects;
                        overflows += stats.ring_overflows;
                        probes += stats.probes_checked;
                    }
                    Err(report) => errs.push(report.to_string()),
                }
            }
        }
        (errs, recvs, rejects, overflows, probes)
    });
    let recvs: usize = per_seed.iter().map(|r| r.1).sum();
    let rejects: u64 = per_seed.iter().map(|r| r.2).sum();
    let overflows: u64 = per_seed.iter().map(|r| r.3).sum();
    let probes: u64 = per_seed.iter().map(|r| r.4).sum();
    let failures: Vec<String> = per_seed.into_iter().flat_map(|r| r.0).collect();

    assert!(
        failures.is_empty(),
        "{} cq differential scenario(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The pass must not be vacuous: data flowed, the probe sweep
    // compared bytes, and — across the sweep — both backpressure
    // paths (submission-queue reject, completion-ring overflow spill)
    // actually ran.
    let scenarios = seeds.len() * Semantics::ALL.len() * ARCHITECTURES.len();
    assert!(
        recvs > scenarios,
        "only {recvs} receive completions across {scenarios} scenarios"
    );
    assert!(
        probes as usize > 2 * scenarios,
        "only {probes} probes across {scenarios} scenarios"
    );
    if seeds.len() >= 20 {
        assert!(rejects > 0, "no scenario exercised the sq_full path");
        assert!(
            overflows > 0,
            "no scenario exercised the completion-ring overflow spill"
        );
    }
}

#[test]
fn cq_scenarios_replay_to_identical_results() {
    // The differential run is a pure function of the scenario — the
    // property the printed reproducer relies on.
    for seed in [2, 4, 9] {
        for sem in [Semantics::Copy, Semantics::Move, Semantics::EmulatedShare] {
            let sc = CqScenario::generate(sem, InputBuffering::Pooled, seed);
            let a = sc.run(CqBug::None, false).expect("scenario passes");
            let b = sc.run(CqBug::None, false).expect("scenario passes");
            assert_eq!(a, b, "sem={sem} seed={seed}");
        }
    }
}

#[test]
fn cq_corpus_scenarios_replay_clean() {
    // Committed anchors, replayed verbatim from their `.ops` files —
    // a separate directory from the synchronous differential corpus
    // because the verbs differ.
    let n = replay_corpus::<CqScenario>(&corpus_dir());
    assert!(n >= 4, "expected at least 4 cq corpus files, found {n}");
}

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus_cq")
}

/// Regenerates the cq corpus from the generator. Run manually after an
/// intentional generator/format change:
/// `cargo test --test cq_differential regenerate_cq_corpus -- --ignored`
#[test]
#[ignore = "writes tests/corpus_cq; run manually after generator changes"]
fn regenerate_cq_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    // A spread over semantics and architectures, including a faulted
    // seed (every fourth seed runs the masked fault plan).
    let picks = [
        (Semantics::Copy, InputBuffering::EarlyDemux, 2u64),
        (Semantics::EmulatedShare, InputBuffering::Pooled, 4),
        (Semantics::Move, InputBuffering::Outboard, 6),
        (Semantics::EmulatedWeakMove, InputBuffering::Pooled, 9),
    ];
    for (sem, arch, seed) in picks {
        let sc = CqScenario::generate(sem, arch, seed);
        sc.run(CqBug::None, false)
            .expect("corpus scenario passes on main");
        let name = format!("{sem:?}_{arch:?}_{seed}.ops").to_lowercase();
        let body = format!(
            "# cq-differential seed corpus — replayed verbatim by cq_corpus_scenarios_replay_clean\n\
             # regenerate: cargo test --test cq_differential regenerate_cq_corpus -- --ignored\n{}",
            sc.to_ops_string()
        );
        std::fs::write(dir.join(name), body).unwrap();
    }
}

#[test]
fn reordered_ring_is_caught_and_shrinks_small() {
    // Teeth: a completion ring that returns polled batches with
    // adjacent entries swapped must diverge somewhere in the seed
    // range and shrink to a short counterexample.
    let mut caught = None;
    'search: for seed in 0..100u64 {
        for arch in ARCHITECTURES {
            let sc = CqScenario::generate(Semantics::Copy, arch, seed);
            if sc.run(CqBug::ReorderedRing, false).is_err() {
                caught = Some(sc);
                break 'search;
            }
        }
    }
    let sc = caught.expect("the reordered ring must diverge within 100 seeds");
    let (minimal, div) = shrink(&sc, CqBug::ReorderedRing);
    assert!(
        minimal.ops.len() <= 8,
        "minimal cq counterexample has {} ops: {:?}",
        minimal.ops.len(),
        minimal.ops
    );
    assert!(!div.detail.is_empty());
    // A reorder needs at least two completions in one polled batch.
    let sends = minimal
        .ops
        .iter()
        .filter(|o| matches!(o, CqOp::Send { .. }))
        .count();
    assert!(sends >= 2, "a reorder counterexample needs two sends");
    // The shrunk scenario is the checker's bug to catch, not the
    // queue pair's: the honest run passes it.
    minimal
        .run(CqBug::None, false)
        .expect("honest ring passes the counterexample");
}

#[test]
fn dropped_cqe_is_caught() {
    // A ring that silently loses every third polled completion must
    // also diverge: conservation of tags is part of the contract.
    let caught = (0..100u64).any(|seed| {
        let sc = CqScenario::generate(Semantics::EmulatedCopy, InputBuffering::Pooled, seed);
        sc.run(CqBug::DroppedCqe, false).is_err()
    });
    assert!(caught, "a dropped completion must diverge within 100 seeds");
}
