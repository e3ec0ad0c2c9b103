//! Machine and cost models for the Genie I/O-semantics simulator.
//!
//! This crate provides the "hardware" half of the reproduction of
//! *Effects of Buffering Semantics on I/O Performance* (Brustoloni &
//! Steenkiste, OSDI '96):
//!
//! - [`SimTime`]: deterministic simulated time in integer picoseconds.
//! - [`MachineSpec`]: the three experimental platforms of the paper's
//!   Table 5 (Micron P166, Gateway P5-90, DEC AlphaStation 255/233),
//!   plus support for synthetic platforms.
//! - [`LinkSpec`]: the Credit Net ATM link at OC-3 and OC-12 rates.
//! - [`Op`] and [`CostModel`]: the primitive data-passing operations of
//!   the paper's Table 6 and a cost model that derives each operation's
//!   simulated cost from the machine's CPU rating, cache/memory
//!   bandwidths and page size, following the scaling taxonomy of the
//!   paper's Section 8 (network-, memory-, cache- and CPU-dominated
//!   parameters).
//! - [`CostLedger`]: per-operation accounting used to regenerate
//!   Table 6 by measurement, and to compute CPU utilization (Figure 4).
//!
//! The model is calibrated so that the Micron P166 reproduces the
//! paper's Table 6 cost equations; the other platforms derive their
//! costs from their own spec sheets, which is exactly the scaling model
//! the paper validates in its Table 8.

pub mod cost;
pub mod ledger;
pub mod link;
pub mod spec;
pub mod time;

pub use cost::{CostModel, Op, OpKind};
pub use ledger::{CostLedger, OpStats};
pub use link::LinkSpec;
pub use spec::{MachineSpec, OpSkew};
pub use time::SimTime;
