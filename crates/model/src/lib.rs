//! **genie-model** — an executable *reference model* of the eight
//! data-passing semantics, plus the deterministic differential harness
//! that checks the real simulator against it.
//!
//! The paper's taxonomy (*Effects of Buffering Semantics on I/O
//! Performance*, OSDI '96) is, at its core, a contract about what an
//! application can *observe*: which buffer bytes an output promises to
//! deliver, when a moved-out region disappears from the address space,
//! what a weak semantics lets the application keep reading, and how
//! region caching revives hidden regions. [`ModelWorld`] implements
//! exactly that contract and nothing else — no cost model, no frame
//! pooling, no scatter/gather, no event queue. Buffers are plain
//! `Vec<u8>`s, deliveries are FIFO, and every rule is a few lines of
//! obviously-checkable code.
//!
//! The [`harness`] then generates seeded, arbitrary interleavings of
//! application-level operations ([`ModelOp`]), runs each through both
//! the model and the real [`genie::World`], and demands byte-equal
//! observable state after every step. The [`switch`] and [`cq`]
//! harnesses do the same for the N-host switch and the queue-pair
//! front-end. All three implement [`Differential`]; the [`kernel`]
//! shrinks any divergence to a minimal counterexample and emits a
//! replayable `.ops` file — see `TESTING.md` at the workspace root.

pub mod cq;
pub mod harness;
pub mod kernel;
pub mod model;
pub mod ops;
pub mod switch;

pub use cq::{CqBug, CqOp, CqRunStats, CqScenario};
pub use harness::{seed_is_faulted, RunStats};
pub use kernel::{
    check, corpus_files, emit_counterexample, replay_corpus, seeds, shrink, Differential,
    Divergence, FailureReport, ARCHITECTURES,
};
pub use model::{
    EntityKind, EntityState, ModelBug, ModelEntity, ModelEvents, ModelParams, ModelRecv,
    ModelSendDone, ModelWorld, PostOutcome, RecvDst, ReleaseOutcome, TouchOutcome,
};
pub use ops::{payload, ModelOp, Scenario};
pub use switch::{ModelSwitch, SwitchBug, SwitchOp, SwitchRunStats, SwitchScenario};
