//! Scenario descriptions: the op alphabet, the seeded generator, and
//! the `.ops` text format counterexamples are written in.
//!
//! A [`Scenario`] is fully self-describing — semantics, architecture,
//! seed, receive capacity and the exact op list — so a shrunk
//! counterexample file replays verbatim with no other state.

use genie::Semantics;
use genie_fault::XorShift64;
use genie_net::InputBuffering;

use crate::harness::{run_scenario, RunStats};
use crate::kernel::{index_of, parse_ops, Differential, Divergence, ARCHITECTURES};
use crate::model::ModelBug;

/// One application-level step of a differential scenario.
///
/// Targets are raw indices resolved *modulo the model's entity lists*
/// at interpretation time, so deleting ops during shrinking never
/// invalidates a later op — every op sequence is interpretable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelOp {
    /// Allocate a fresh source buffer, output `len` bytes on it, and —
    /// if the source is still visible — overwrite it with the
    /// `scribble` byte right after the output call returns.
    Send { len: usize, scribble: Option<u8> },
    /// Post one receive of capacity `max_len` (application buffer or
    /// system `len_hint`, per the scenario's allocation class).
    PostRecv,
    /// Drive the simulated world to quiescence.
    Run,
    /// Write a deterministic subrange of tracked entity
    /// `target % entities` with the `pattern` byte.
    Touch { target: usize, pattern: u8 },
    /// Release the `target % releasable`-th delivered system region.
    Release { target: usize },
    /// Pageout storm on host 0 (sender) or 1 (receiver). Interpreted
    /// only while no sends are in flight.
    Pageout { host: u8 },
    /// Toggle the forced cell-level wire path (must be observably
    /// identical to the contiguous fast path).
    TogglePath,
}

/// A complete differential scenario: coordinates plus op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Data-passing semantics under test.
    pub semantics: Semantics,
    /// Input buffering architecture of the receiving host.
    pub arch: InputBuffering,
    /// Seed (decides the op list, payload bytes, and whether masked
    /// faults are injected: every fourth seed runs faulted).
    pub seed: u64,
    /// Capacity every receive is posted with; sends never exceed it.
    pub max_len: usize,
    /// The op list.
    pub ops: Vec<ModelOp>,
}

impl Scenario {
    /// Generates the scenario for one (semantics, architecture, seed)
    /// grid point. Pure function of its arguments.
    ///
    /// Structural constraints keep every scenario in-contract for the
    /// real system (so any divergence is a genuine disagreement, not a
    /// misuse): at most 12 sends, at most 4 more sends than posted
    /// receives outstanding (bounds unsolicited backlog below the
    /// adapter's overlay pool), and a trailing drain so most scenarios
    /// end fully delivered.
    pub fn generate(semantics: Semantics, arch: InputBuffering, seed: u64) -> Scenario {
        let mut rng = XorShift64::new(
            seed.wrapping_mul(0x9e37_79b9)
                ^ (index_of(&Semantics::ALL, semantics) << 8)
                ^ (index_of(&ARCHITECTURES, arch) << 16),
        );
        let max_len = 1 + rng.below(8192) as usize;
        let n = 6 + rng.below(10) as usize;
        let mut ops = Vec::new();
        let mut sends = 0usize;
        let mut recvs = 0usize;
        let mut inflight = 0usize;
        for _ in 0..n {
            let w = rng.below(100);
            if w < 30 {
                if sends < 12 && sends - recvs.min(sends) < 4 {
                    let len = 1 + rng.below(max_len as u64) as usize;
                    let scribble = if rng.below(3) == 0 {
                        Some(0x40 + rng.below(64) as u8)
                    } else {
                        None
                    };
                    ops.push(ModelOp::Send { len, scribble });
                    sends += 1;
                    inflight += 1;
                } else {
                    ops.push(ModelOp::Run);
                    inflight = 0;
                }
            } else if w < 50 {
                if recvs <= sends {
                    ops.push(ModelOp::PostRecv);
                    recvs += 1;
                } else {
                    ops.push(ModelOp::Run);
                    inflight = 0;
                }
            } else if w < 70 {
                ops.push(ModelOp::Run);
                inflight = 0;
            } else if w < 85 {
                ops.push(ModelOp::Touch {
                    target: rng.below(64) as usize,
                    pattern: rng.below(256) as u8,
                });
            } else if w < 92 {
                ops.push(ModelOp::Release {
                    target: rng.below(64) as usize,
                });
            } else if w < 97 {
                if inflight == 0 {
                    ops.push(ModelOp::Pageout {
                        host: rng.below(2) as u8,
                    });
                } else {
                    ops.push(ModelOp::Run);
                    inflight = 0;
                }
            } else {
                ops.push(ModelOp::TogglePath);
            }
        }
        // Drain: deliver whatever is still in flight or backlogged.
        ops.push(ModelOp::Run);
        while recvs < sends {
            ops.push(ModelOp::PostRecv);
            recvs += 1;
        }
        ops.push(ModelOp::Run);
        Scenario {
            semantics,
            arch,
            seed,
            max_len,
            ops,
        }
    }
}

impl Differential for Scenario {
    type Op = ModelOp;
    type Bug = ModelBug;
    type Stats = RunStats;
    const KIND: &'static str = "model";

    fn ops(&self) -> &[ModelOp] {
        &self.ops
    }

    fn ops_mut(&mut self) -> &mut Vec<ModelOp> {
        &mut self.ops
    }

    fn header(&self) -> String {
        format!(
            "semantics={:?}\narch={:?}\nseed={}\nmax_len={}\n",
            self.semantics, self.arch, self.seed, self.max_len
        )
    }

    fn op_line(op: &ModelOp) -> String {
        match *op {
            ModelOp::Send { len, scribble } => match scribble {
                Some(p) => format!("send len={len} scribble={p}"),
                None => format!("send len={len} scribble=-"),
            },
            ModelOp::PostRecv => "postrecv".into(),
            ModelOp::Run => "run".into(),
            ModelOp::Touch { target, pattern } => {
                format!("touch target={target} pattern={pattern}")
            }
            ModelOp::Release { target } => format!("release target={target}"),
            ModelOp::Pageout { host } => format!("pageout host={host}"),
            ModelOp::TogglePath => "togglepath".into(),
        }
    }

    fn parse(text: &str) -> Result<Scenario, String> {
        let mut ops = Vec::new();
        let h = parse_ops(
            text,
            &["semantics", "arch", "seed", "max_len"],
            |verb, a| {
                ops.push(match verb {
                    "send" => ModelOp::Send {
                        len: a.kv("len")?,
                        scribble: a.kv("scribble")?,
                    },
                    "postrecv" => ModelOp::PostRecv,
                    "run" => ModelOp::Run,
                    "touch" => ModelOp::Touch {
                        target: a.kv("target")?,
                        pattern: a.kv("pattern")?,
                    },
                    "release" => ModelOp::Release {
                        target: a.kv("target")?,
                    },
                    "pageout" => ModelOp::Pageout {
                        host: a.kv("host")?,
                    },
                    "togglepath" => ModelOp::TogglePath,
                    _ => return None,
                });
                Some(())
            },
        )?;
        Ok(Scenario {
            semantics: h.get("semantics")?,
            arch: h.get("arch")?,
            seed: h.get("seed")?,
            max_len: h.get("max_len")?,
            ops,
        })
    }

    fn run(&self, bug: ModelBug, traced: bool) -> Result<RunStats, Divergence> {
        run_scenario(self, bug, traced)
    }

    fn stem(&self) -> String {
        format!("ce_{:?}_{:?}_{}", self.semantics, self.arch, self.seed)
    }

    fn reproduce(&self) -> String {
        format!(
            "GENIE_MODEL_SEED={} cargo test --test model_differential",
            self.seed
        )
    }
}

/// The deterministic payload of send number `pdu` in a scenario.
pub fn payload(seed: u64, pdu: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x517c_c1b7_2722_0a95) ^ pdu);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(Semantics::Move, InputBuffering::Pooled, 7);
        let b = Scenario::generate(Semantics::Move, InputBuffering::Pooled, 7);
        assert_eq!(a, b);
        let c = Scenario::generate(Semantics::Move, InputBuffering::Pooled, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn ops_format_round_trips() {
        for seed in 0..20 {
            for sem in Semantics::ALL {
                let sc = Scenario::generate(sem, InputBuffering::EarlyDemux, seed);
                let parsed = Scenario::parse(&sc.to_ops_string()).expect("parse");
                assert_eq!(sc, parsed);
            }
        }
    }

    #[test]
    fn parse_rejects_garbage_with_the_offending_line() {
        let e = Scenario::parse("semantics=Copy\narch=Pooled\nseed=1\nmax_len=10\nfly away\n")
            .unwrap_err();
        assert!(e.contains("fly away"), "{e}");
    }

    #[test]
    fn sends_never_exceed_capacity_or_structural_bounds() {
        for seed in 0..50 {
            let sc = Scenario::generate(Semantics::WeakMove, InputBuffering::Pooled, seed);
            let sends = sc
                .ops
                .iter()
                .filter(|o| matches!(o, ModelOp::Send { .. }))
                .count();
            assert!(sends <= 12);
            for op in &sc.ops {
                if let ModelOp::Send { len, .. } = op {
                    assert!(*len >= 1 && *len <= sc.max_len);
                }
            }
        }
    }
}
