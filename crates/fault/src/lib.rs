//! **genie-fault** — deterministic fault injection and invariant
//! oracles for the Genie simulator.
//!
//! The paper's thesis is that optimized data-passing semantics are
//! *safe and* fast; this crate supplies the "safe" half of the
//! evidence. A seeded [`FaultPlan`] drives link-level faults (cell
//! loss, corruption, reordering, credit starvation), memory pressure
//! (frame hoarding, pageout storms) and delayed completions through
//! the datapath, while the [`Oracle`] checks the paper's safety
//! invariants after every simulated event and delivery.
//!
//! Everything is deterministic: the plan's decisions are a pure
//! function of its seed and the (deterministic) event order, so any
//! failing run replays exactly from the seed — the contract behind
//! `GENIE_FAULT_SEED`. With [`FaultPlan::none`] the plan is inert and
//! the simulator's fault-free output is byte-identical to a build
//! without fault hooks.

pub mod oracle;
pub mod plan;
pub mod rng;
pub mod stats;

/// FNV-1a 64-bit hash, used to fingerprint payloads without storing
/// them.
pub use genie_mem::fnv64;
pub use oracle::{Oracle, Violation};
pub use plan::{CreditStarve, FaultConfig, FaultPlan, Pressure, WireDamage, WireVerdict};
pub use rng::XorShift64;
pub use stats::FaultStats;
