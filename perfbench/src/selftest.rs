//! The benchmark's own tests: its output checks must catch a corrupted
//! payload and a wrong fingerprint, and its counts must repeat.
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::rc::Rc;

use crate::cq_rpc::CqRpc;
use crate::cx::Patterns;
use crate::fanin::FanIn;
use crate::pair_sweep::PairSweep;
use crate::run::{drive, Outcome};
use crate::Args;

/// A run of the minimum number of episodes.
fn args(trace: bool) -> Args {
    Args {
        workload: String::new(),
        seed: 7,
        seconds: 1e-3,
        trace,
        revision: String::new(),
        spans: None,
    }
}

fn small_star() -> FanIn {
    FanIn {
        hosts: 5,
        waves: 3,
        fingerprint: None,
        patterns: Rc::new(Patterns::new(7, 2048)),
        ..FanIn::star(7)
    }
}

fn small_lossy() -> FanIn {
    FanIn {
        waves: 24,
        ..FanIn::lossy(7)
    }
}

fn small_cq() -> CqRpc {
    CqRpc {
        clients: 3,
        requests: 4,
        fingerprint: None,
        ..CqRpc::new(7)
    }
}

fn assert_clean(out: &Outcome) {
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
}

#[test]
fn clean_runs_fail_nothing() {
    assert_clean(&drive(&small_star(), &args(false)));
    assert_clean(&drive(&small_lossy(), &args(false)));
    assert_clean(&drive(&small_cq(), &args(false)));
}

#[test]
fn a_corrupted_fanin_payload_fails_its_op() {
    let wl = FanIn {
        corrupt_every: 5,
        ..small_star()
    };
    let out = drive(&wl, &args(false));
    assert!(
        out.failed > 0 && out.failed < out.attempted,
        "{}",
        out.failed
    );
    assert!(out.failures[0].contains("corrupted"), "{:?}", out.failures);
}

#[test]
fn a_corrupted_response_fails_its_round_trip() {
    let wl = CqRpc {
        corrupt_every: 3,
        ..small_cq()
    };
    let out = drive(&wl, &args(false));
    assert!(
        out.failed > 0 && out.failed < out.attempted,
        "{}",
        out.failed
    );
    assert!(out.failures[0].contains("corrupted"), "{:?}", out.failures);
}

#[test]
fn a_perturbed_fingerprint_fails_every_op() {
    let star = FanIn {
        fingerprint: Some(crate::fanin::STAR_FINGERPRINT ^ 1),
        ..small_star()
    };
    let out = drive(&star, &args(false));
    assert_eq!(out.failed, out.attempted);
    assert!(
        out.failures[0].contains("fingerprint"),
        "{:?}",
        out.failures
    );

    let mut sweep = PairSweep::new(7);
    sweep.fingerprint = Some(crate::pair_sweep::FINGERPRINT ^ 1);
    let out = drive(&sweep, &args(false));
    assert_eq!(out.failed, out.attempted);
}

#[test]
fn the_pinned_fingerprints_hold() {
    assert_clean(&drive(&PairSweep::new(3), &args(false)));
    assert_clean(&drive(&FanIn::star(3), &args(false)));
    assert_clean(&drive(&CqRpc::new(3), &args(false)));
}

#[test]
fn work_counts_repeat_exactly() {
    let a = drive(&small_lossy(), &args(true));
    let b = drive(&small_lossy(), &args(true));
    assert_clean(&a);
    assert!(a.counts.sums["switch.credit_stalls"] > 0);
    assert!(a.counts.sums["fault.retransmits"] > 0);
    let per_op = |o: &Outcome| {
        o.counts
            .sums
            .iter()
            .map(|(k, v)| (*k, *v as f64 / o.counts.ops as f64))
            .collect::<Vec<_>>()
    };
    assert_eq!(per_op(&a), per_op(&b));
}

#[test]
fn span_self_times_add_up_to_step_wall() {
    let out = drive(&small_cq(), &args(true));
    let probe = out.probe.as_ref().unwrap();
    let (layers, driver, wall) = probe.self_times();
    assert!(wall > 0 && driver > 0);
    assert_eq!(layers.iter().sum::<u64>() + driver, wall);
    assert!(probe.spans.iter().all(|s| s.start <= s.end));
}
