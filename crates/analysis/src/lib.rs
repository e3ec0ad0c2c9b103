//! Analysis tools for the Genie reproduction: least-squares fits, the
//! latency breakdown model, and the cross-platform scaling model of
//! the paper's Section 8.
//!
//! - [`fit`]: least-squares linear fitting, as the paper applies to
//!   operation latencies vs. datagram length (Tables 6 and 7).
//! - [`breakdown`]: composes primitive-operation costs along the
//!   critical path into *estimated* end-to-end latencies — the "E"
//!   rows of Table 7 — and fits *actual* latencies from the
//!   simulator — the "A" rows.
//! - [`table6`]: regenerates Table 6 by instrumented measurement.
//! - [`scaling`]: the Section 8 scaling model — parameter
//!   classification, cross-platform ratios (Table 8) and the OC-12
//!   extrapolation.
//! - [`render`]: plain-text table/series rendering for the report
//!   binary and EXPERIMENTS.md.

pub mod breakdown;
pub mod fit;
pub mod render;
pub mod scaling;
pub mod table6;

pub use breakdown::{actual_line, estimate_line, BufferingScheme};
pub use fit::{linfit, Fit};
pub use render::{render_series, render_table};
pub use scaling::{param_ratios, predict_oc12_throughput, ParamClass, RatioSummary};
pub use table6::OpFit;
