//! The differential kernel's own contract, over all three harnesses
//! (two-host model, N-host switch, CQ queue pair): the `.ops` codec is
//! lossless on every committed corpus file, shrinking reaches a
//! fixpoint, every emitted counterexample replays and ships its crash
//! dump and Chrome trace, and a divergence found after the last op is
//! reported as step `ops.len()`, op `end`.

use std::path::{Path, PathBuf};

use genie::Semantics;
use genie_model::{
    corpus_files, emit_counterexample, shrink, CqBug, CqScenario, Differential, ModelBug, Scenario,
    SwitchBug, SwitchOp, SwitchScenario, ARCHITECTURES,
};

/// Parses every `.ops` file under `dir` and demands that the file,
/// minus its comment lines, is exactly what the scenario serializes
/// to. Returns how many files it checked.
fn round_trips<D: Differential>(dir: &Path) -> usize {
    let paths = corpus_files(dir);
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        let sc = D::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            sc.to_ops_string(),
            body,
            "{} does not re-serialize byte-identically",
            path.display()
        );
    }
    paths.len()
}

#[test]
fn every_corpus_file_re_serializes_byte_identically() {
    let tests = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&tests)
        .expect("tests/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("corpus"))
        })
        .collect();
    dirs.sort();
    assert_eq!(dirs.len(), 3, "one corpus per harness: {dirs:?}");
    for dir in dirs {
        let n = match dir.file_name().and_then(|n| n.to_str()) {
            Some("corpus") => round_trips::<Scenario>(&dir),
            Some("corpus_cq") => round_trips::<CqScenario>(&dir),
            Some("corpus_switch") => round_trips::<SwitchScenario>(&dir),
            other => panic!("no harness reads tests/{other:?}"),
        };
        assert!(n > 0, "{} holds no .ops files", dir.display());
    }
}

/// Finds the first candidate `bug` makes diverge, shrinks it, and
/// checks that shrinking the minimal scenario again changes nothing,
/// and that its emitted counterexample replays and ships a trace.
fn assert_shrink_is_idempotent<D: Differential>(
    bug: D::Bug,
    mut candidates: impl Iterator<Item = D>,
) {
    let sc = candidates
        .find(|sc| sc.run(bug, false).is_err())
        .expect("the teeth bug diverges");
    let (minimal, div) = shrink(&sc, bug);
    let (again, div_again) = shrink(&minimal, bug);
    assert_eq!(again, minimal, "shrinking the minimal scenario changed it");
    assert_eq!(div_again.step, div.step);

    let path = emit_counterexample(&minimal, bug, &div).expect("counterexample written");
    let text = std::fs::read_to_string(&path).expect("counterexample reads");
    assert_eq!(D::parse(&text).expect("counterexample parses"), minimal);
    let read = |ext| std::fs::read_to_string(path.with_extension(ext)).expect("sidecar reads");
    assert!(read("dump.json").contains(&format!("divergence at step {}", div.step)));
    assert!(read("trace.json").contains("\"model.divergence\""));
}

#[test]
fn share_is_strong_shrinks_idempotently() {
    let candidates = (0..100u64).flat_map(|seed| {
        ARCHITECTURES.map(|arch| Scenario::generate(Semantics::Share, arch, seed))
    });
    assert_shrink_is_idempotent(ModelBug::ShareIsStrong, candidates);
}

#[test]
fn forget_replicas_shrinks_idempotently() {
    let candidates = (0..100u64).map(|seed| SwitchScenario::generate(4, seed));
    assert_shrink_is_idempotent(SwitchBug::ForgetReplicas, candidates);
}

#[test]
fn reordered_ring_shrinks_idempotently() {
    let candidates = (0..100u64).flat_map(|seed| {
        ARCHITECTURES.map(|arch| CqScenario::generate(Semantics::Copy, arch, seed))
    });
    assert_shrink_is_idempotent(CqBug::ReorderedRing, candidates);
}

#[test]
fn divergence_after_the_last_op_is_step_len_op_end() {
    // One multicast send and no barrier: the implicit end-of-scenario
    // barrier is where a model that forgets replicas disagrees.
    let mut sc = SwitchScenario::generate(4, 1);
    let route = sc
        .routes
        .iter()
        .position(|r| r.2.len() > 1)
        .expect("a multicast route");
    sc.ops = vec![SwitchOp::Send { route, len: 64 }];
    let div = sc
        .run(SwitchBug::ForgetReplicas, false)
        .expect_err("the forgotten replica is noticed");
    assert_eq!((div.step, div.op.as_str()), (1, "end"), "{div}");
}
