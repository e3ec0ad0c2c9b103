//! Property layer over the submission/completion-queue API
//! ([`genie::QueuePair`]), complementing the CQ differential with
//! invariants stated directly against the real implementation:
//!
//! - **Completion conservation** — every entry `post` accepts yields
//!   exactly one [`genie::Cqe`] carrying its tag (refused operations
//!   included, as `Error` completions), and every entry `post`
//!   rejects is handed back and counted in `sq_rejects`.
//! - **Per-VC order** — receive completions on one virtual circuit
//!   pop in posted order with strictly increasing wire sequence
//!   numbers, byte-identical to the synchronous path's completion
//!   order for the same exchange.
//! - **Ring-full liveness** — a completion ring smaller than the
//!   burst spills internally but never drops or duplicates a tag.
//! - **Delay-fault transparency** — under a delay-only fault plan the
//!   queue layer still conserves tags and reports clean checksums.
//!
//! The seeded sweeps default to 120 seeds; `GENIE_CQ_PROP_SEEDS=<n>`
//! overrides (CI runs more, laptops can run fewer).

use std::collections::BTreeMap;

use genie::cq::{self, AdaptiveConfig, CqConfig, CqResult, Landing, QueuePair};
use genie::{
    Allocation, HostId, InputRequest, OutputRequest, Semantics, Sqe, SqeOp, World, WorldConfig,
};
use genie_fault::{FaultConfig, XorShift64};
use genie_net::Vc;

fn prop_seeds() -> Vec<u64> {
    let n = std::env::var("GENIE_CQ_PROP_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(120);
    (0..n as u64).collect()
}

/// Drives the world until every queue pair has nothing staged, no
/// sends in flight, and — when `wait_recvs` — no receives pending
/// either. Returns every completion popped, tagged with the index of
/// the queue pair it came from.
fn drain(w: &mut World, qps: &mut [QueuePair], wait_recvs: bool) -> Vec<(usize, genie::Cqe)> {
    let mut out = Vec::new();
    loop {
        let pop_all = |qps: &mut [QueuePair], out: &mut Vec<(usize, genie::Cqe)>| {
            for (i, qp) in qps.iter_mut().enumerate() {
                while let Some(c) = qp.poll() {
                    out.push((i, c));
                }
            }
        };
        pop_all(qps, &mut out);
        let idle = qps.iter().all(|qp| {
            qp.staged_len() == 0
                && if wait_recvs {
                    qp.in_flight() == 0
                } else {
                    qp.in_flight_sends() == 0
                }
        });
        if idle {
            pop_all(qps, &mut out);
            return out;
        }
        let mut progress = 0;
        for qp in qps.iter_mut() {
            progress += qp.submit(w);
        }
        w.run();
        progress += cq::harvest(w, qps);
        if progress == 0 {
            pop_all(qps, &mut out);
            return out;
        }
    }
}

/// One seeded conservation run: a randomized interleaving of sends,
/// receives, touches, and one deliberately refused operation, under
/// seed-derived queue bounds. Returns (posted tags, polled tags,
/// rejects observed at `post`, counters the queue pair reported).
struct ConservationRun {
    accepted: Vec<u64>,
    polled: Vec<u64>,
    /// Receives still posted when the run went idle — their matching
    /// send was sq-rejected, so no data ever arrives for them.
    pending_recvs: usize,
    error_cqes: usize,
    post_rejects: u64,
    reported_rejects: u64,
    ring_overflows: u64,
}

fn conservation_run(seed: u64, cq_depth: usize) -> ConservationRun {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let semantics = Semantics::ALL[rng.below(Semantics::ALL.len() as u64) as usize];
    let sq_depth = 3 + rng.below(10) as usize;
    let n = 4 + rng.below(12) as usize;
    let cfg = CqConfig {
        sq_depth,
        cq_depth,
        window: AdaptiveConfig::fixed(1 + rng.below(6) as usize),
    };
    let mut w = World::new(WorldConfig::default());
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let mut qps = vec![
        QueuePair::new(HostId::B, semantics, cfg),
        QueuePair::new(HostId::A, semantics, cfg),
    ];
    let mut accepted = Vec::new();
    let mut post_rejects = 0u64;
    let mut post = |qps: &mut [QueuePair], qi: usize, sqe: Sqe| {
        if qps[qi].post(sqe).is_ok() {
            accepted.push(sqe.user_data);
            true
        } else {
            post_rejects += 1;
            false
        }
    };
    for k in 0..n as u64 {
        let len = 1 + rng.below(2048) as usize;
        // Receive first, so every accepted send has a buffer waiting.
        let buffer = match semantics.allocation() {
            Allocation::Application => {
                let off = w.preferred_alignment(HostId::B, Vc(1)).0;
                Some(w.alloc_buffer(HostId::B, rx, 2048, off).expect("dst alloc"))
            }
            Allocation::System => None,
        };
        let recv_ok = post(
            &mut qps,
            0,
            Sqe {
                user_data: 1_000 + k,
                op: SqeOp::PostRecv {
                    vc: Vc(1),
                    space: rx,
                    buffer,
                    len: 2048,
                },
            },
        );
        if recv_ok {
            let data = vec![(k as u8).wrapping_add(1); len];
            let src = w
                .alloc_source(HostId::A, tx, semantics, &data)
                .expect("src alloc");
            post(
                &mut qps,
                1,
                Sqe {
                    user_data: 2_000 + k,
                    op: SqeOp::Send {
                        vc: Vc(1),
                        space: tx,
                        vaddr: src,
                        len,
                    },
                },
            );
        }
        if rng.below(4) == 0 {
            // A touch between transfers, completing synchronously.
            let scratch = w.alloc_buffer(HostId::A, tx, 64, 0).expect("scratch");
            post(
                &mut qps,
                1,
                Sqe {
                    user_data: 3_000 + k,
                    op: SqeOp::Touch {
                        space: tx,
                        vaddr: scratch,
                        len: 64,
                        pattern: k as u8,
                    },
                },
            );
        }
        if rng.below(3) == 0 {
            // Partial progress mid-stream varies staging depth.
            for qp in qps.iter_mut() {
                qp.submit(&mut w);
            }
            w.run();
            cq::harvest(&mut w, &mut qps);
        }
    }
    // One operation the world refuses (len 0): conservation demands it
    // still completes, as an Error entry. Flush staged entries first
    // so the probe itself isn't sq-rejected.
    for qp in qps.iter_mut() {
        qp.submit(&mut w);
    }
    post(
        &mut qps,
        1,
        Sqe {
            user_data: 9_999,
            op: SqeOp::Send {
                vc: Vc(1),
                space: tx,
                vaddr: 0,
                len: 0,
            },
        },
    );
    // Receives whose matching send was sq-rejected stay posted
    // forever (no data will arrive), so drain only waits for sends.
    let popped = drain(&mut w, &mut qps, false);
    let polled: Vec<u64> = popped.iter().map(|(_, c)| c.user_data).collect();
    let error_cqes = popped
        .iter()
        .filter(|(_, c)| c.result == CqResult::Error)
        .count();
    let pending_recvs = qps.iter().map(|qp| qp.in_flight()).sum();
    ConservationRun {
        accepted,
        polled,
        pending_recvs,
        error_cqes,
        post_rejects,
        reported_rejects: qps[0].sq_rejects() + qps[1].sq_rejects(),
        ring_overflows: qps[0].ring_overflows() + qps[1].ring_overflows(),
    }
}

/// The conservation statement proper: every polled tag was accepted,
/// no tag pops twice, and the only accepted tags missing from the
/// completion stream are receives still legitimately posted (their
/// matching send was sq-rejected, so no data will ever arrive).
fn assert_conserved(seed: u64, r: &ConservationRun) {
    let mut want = r.accepted.clone();
    want.sort_unstable();
    let mut got = r.polled.clone();
    got.sort_unstable();
    got.windows(2).for_each(|p| {
        assert!(p[0] != p[1], "seed {seed}: tag {} popped twice", p[0]);
    });
    let missing: Vec<u64> = want.iter().copied().filter(|t| !got.contains(t)).collect();
    assert!(
        got.iter().all(|t| want.contains(t)),
        "seed {seed}: polled a tag that was never accepted"
    );
    assert_eq!(
        missing.len(),
        r.pending_recvs,
        "seed {seed}: accepted tags missing from the completion stream \
         beyond the still-posted receives: {missing:?}"
    );
    assert!(
        missing.iter().all(|t| (1_000..2_000).contains(t)),
        "seed {seed}: a send or touch never completed: {missing:?}"
    );
}

#[test]
fn every_accepted_sqe_completes_exactly_once() {
    let seeds = prop_seeds();
    let runs = genie_runner::map(&seeds, |&seed| {
        let r = conservation_run(seed, 2 + (seed % 7) as usize);
        assert_conserved(seed, &r);
        assert_eq!(
            r.post_rejects, r.reported_rejects,
            "seed {seed}: sq_rejects counter disagrees with post() errors"
        );
        assert!(
            r.error_cqes >= 1,
            "seed {seed}: the refused len-0 send must surface as an Error cqe"
        );
        (r.post_rejects, r.ring_overflows)
    });
    // Vacuity: across the sweep both backpressure paths must fire.
    let rejects: u64 = runs.iter().map(|r| r.0).sum();
    let overflows: u64 = runs.iter().map(|r| r.1).sum();
    assert!(rejects > 0, "no seed exercised the sq_full path");
    assert!(overflows > 0, "no seed exercised ring overflow");
}

#[test]
fn ring_full_never_drops_a_tag() {
    // The same conservation workload squeezed through the smallest
    // ring: every completion spills through a 1-deep ring and must
    // still pop exactly once, in seq order.
    let seeds: Vec<u64> = prop_seeds().into_iter().take(40).collect();
    let overflows: Vec<u64> = genie_runner::map(&seeds, |&seed| {
        let r = conservation_run(seed, 1);
        assert_conserved(seed, &r);
        r.ring_overflows
    });
    assert!(
        overflows.iter().sum::<u64>() > 0,
        "the 1-deep ring never overflowed — the property is vacuous"
    );
}

#[test]
fn per_vc_completion_order_matches_the_synchronous_path() {
    // The same two-circuit exchange, run synchronously and through
    // queue pairs: per circuit, the CQ pop order must reproduce the
    // synchronous completion order (as wire sequence numbers), and
    // wire sequence numbers must be strictly increasing.
    let n = 12usize;
    let vcs = [Vc(1), Vc(2)];
    let len_of = |k: usize| 256 + 409 * k % 1500;

    // Synchronous reference: map destination vaddr -> (vc, wire seq)
    // in completion order.
    let sync_per_vc: BTreeMap<u32, Vec<u32>> = {
        let mut w = World::new(WorldConfig::default());
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let mut vaddr_vc = BTreeMap::new();
        for k in 0..n {
            let vc = vcs[k % vcs.len()];
            let len = len_of(k);
            let dst = w.alloc_buffer(HostId::B, rx, len, 0).expect("dst");
            vaddr_vc.insert(dst, vc.0);
            w.input(
                HostId::B,
                InputRequest::app(Semantics::EmulatedCopy, vc, rx, dst, len),
            )
            .expect("input");
            let src = w.alloc_buffer(HostId::A, tx, len, 0).expect("src");
            w.app_write(HostId::A, tx, src, &vec![k as u8 + 1; len])
                .expect("write");
            w.output(
                HostId::A,
                OutputRequest::new(Semantics::EmulatedCopy, vc, tx, src, len),
            )
            .expect("output");
        }
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(done.len(), n);
        let mut per_vc: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for c in done {
            let vc = vaddr_vc[&c.vaddr];
            per_vc.entry(vc).or_default().push(c.seq);
        }
        per_vc
    };

    // Queue-pair run of the identical exchange.
    let mut w = World::new(WorldConfig::default());
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let cfg = CqConfig::fixed(4);
    let mut qps = vec![
        QueuePair::new(HostId::B, Semantics::EmulatedCopy, cfg),
        QueuePair::new(HostId::A, Semantics::EmulatedCopy, cfg),
    ];
    for k in 0..n {
        let vc = vcs[k % vcs.len()];
        let len = len_of(k);
        let dst = w.alloc_buffer(HostId::B, rx, len, 0).expect("dst");
        qps[0]
            .post(Sqe {
                user_data: k as u64,
                op: SqeOp::PostRecv {
                    vc,
                    space: rx,
                    buffer: Some(dst),
                    len,
                },
            })
            .expect("post recv");
        let src = w.alloc_buffer(HostId::A, tx, len, 0).expect("src");
        w.app_write(HostId::A, tx, src, &vec![k as u8 + 1; len])
            .expect("write");
        qps[1]
            .post(Sqe {
                user_data: 100 + k as u64,
                op: SqeOp::Send {
                    vc,
                    space: tx,
                    vaddr: src,
                    len,
                },
            })
            .expect("post send");
    }
    let popped = drain(&mut w, &mut qps, true);
    let mut cq_per_vc: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut tags_per_vc: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (qi, c) in &popped {
        if *qi != 0 {
            continue;
        }
        match c.landing {
            Landing::Delivered { vc, wire_seq, .. } => {
                cq_per_vc.entry(vc.0).or_default().push(wire_seq);
                tags_per_vc.entry(vc.0).or_default().push(c.user_data);
            }
            other => panic!("receive queue pair completed a non-delivery: {other:?}"),
        }
    }
    assert_eq!(
        cq_per_vc, sync_per_vc,
        "per-VC wire-sequence pop order differs from the synchronous path"
    );
    for (vc, seqs) in &cq_per_vc {
        assert!(
            seqs.windows(2).all(|p| p[1] > p[0]),
            "vc {vc}: wire sequence numbers not strictly increasing: {seqs:?}"
        );
    }
    for (vc, tags) in &tags_per_vc {
        // Tags were posted round-robin across circuits in k order, so
        // per circuit they must pop sorted.
        assert!(
            tags.windows(2).all(|p| p[1] > p[0]),
            "vc {vc}: receive tags popped out of posted order: {tags:?}"
        );
    }
}

#[test]
fn delay_only_faults_preserve_conservation_and_checksums() {
    // A delay-only fault plan stretches completion times but never
    // damages payloads: the queue layer must still conserve every tag
    // and report Ok checksums, and across the sweep the plan must
    // actually have injected delays.
    let seeds: Vec<u64> = (0..16).collect();
    let injected: Vec<u64> = genie_runner::map(&seeds, |&seed| {
        let mut w = World::new(WorldConfig {
            fault: FaultConfig::delay_only(seed),
            ..WorldConfig::default()
        });
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let cfg = CqConfig {
            sq_depth: 256,
            cq_depth: 64,
            window: AdaptiveConfig::fixed(64),
        };
        let mut qps = vec![
            QueuePair::new(HostId::B, Semantics::Copy, cfg),
            QueuePair::new(HostId::A, Semantics::Copy, cfg),
        ];
        let n = 12usize;
        for k in 0..n {
            let len = 128 + 97 * k;
            let dst = w.alloc_buffer(HostId::B, rx, len, 0).expect("dst");
            qps[0]
                .post(Sqe {
                    user_data: k as u64,
                    op: SqeOp::PostRecv {
                        vc: Vc(1),
                        space: rx,
                        buffer: Some(dst),
                        len,
                    },
                })
                .expect("post recv");
            let src = w.alloc_buffer(HostId::A, tx, len, 0).expect("src");
            w.app_write(HostId::A, tx, src, &vec![k as u8 + 7; len])
                .expect("write");
            qps[1]
                .post(Sqe {
                    user_data: 100 + k as u64,
                    op: SqeOp::Send {
                        vc: Vc(1),
                        space: tx,
                        vaddr: src,
                        len,
                    },
                })
                .expect("post send");
        }
        let popped = drain(&mut w, &mut qps, true);
        let recvs: Vec<_> = popped.iter().filter(|(qi, _)| *qi == 0).collect();
        assert_eq!(
            recvs.len(),
            n,
            "seed {seed}: a delayed receive went missing"
        );
        for (_, c) in &popped {
            assert_eq!(
                c.result,
                CqResult::Ok,
                "seed {seed}: delay-only faults must not fail completions"
            );
        }
        let mut tags: Vec<u64> = recvs.iter().map(|(_, c)| c.user_data).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n as u64).collect::<Vec<_>>());
        w.fault_stats().injected()
    });
    assert!(
        injected.iter().sum::<u64>() > 0,
        "no seed injected a delay — the smoke is vacuous"
    );
}
