//! **Genie** — an I/O framework that lets applications select any data
//! passing semantics in the taxonomy of *Effects of Buffering Semantics
//! on I/O Performance* (Brustoloni & Steenkiste, OSDI '96).
//!
//! The crate reproduces the paper's system on a simulated substrate:
//! a Mach-style VM ([`genie_vm`]), physical memory with page
//! referencing ([`genie_mem`]), a Credit Net ATM network
//! ([`genie_net`]) and a calibrated machine cost model
//! ([`genie_machine`]). Applications are simulated processes; all
//! datapaths move real bytes, and all costs are simulated time derived
//! from the paper's Table 6 / Section 8 scaling model.
//!
//! # The taxonomy
//!
//! [`Semantics`] classifies data passing in three dimensions
//! (Figure 1): buffer allocation (application- vs system-allocated),
//! guaranteed integrity (strong vs weak), and level of optimization
//! (basic vs emulated). The eight points are: copy, emulated copy,
//! share, emulated share, move, emulated move, weak move, and emulated
//! weak move.
//!
//! # Quick start
//!
//! ```
//! use genie::{InputRequest, OutputRequest, Semantics, World, WorldConfig};
//! use genie_net::Vc;
//!
//! let mut world = World::new(WorldConfig::default());
//! let tx = world.create_process(genie::HostId::A);
//! let rx = world.create_process(genie::HostId::B);
//!
//! // Sender: an ordinary application buffer, emulated copy semantics.
//! let data = b"hello, genie".to_vec();
//! let src = world.alloc_buffer(genie::HostId::A, tx, data.len(), 0).unwrap();
//! world.app_write(genie::HostId::A, tx, src, &data).unwrap();
//!
//! // Receiver preposts a buffer with the same semantics.
//! let dst = world.alloc_buffer(genie::HostId::B, rx, data.len(), 0).unwrap();
//! world
//!     .input(genie::HostId::B, InputRequest::app(Semantics::EmulatedCopy, Vc(1), rx, dst, data.len()))
//!     .unwrap();
//! world
//!     .output(genie::HostId::A, OutputRequest::new(Semantics::EmulatedCopy, Vc(1), tx, src, data.len()))
//!     .unwrap();
//! world.run();
//!
//! let done = world.take_completed_inputs();
//! assert_eq!(done.len(), 1);
//! let got = world.read_app(genie::HostId::B, rx, done[0].vaddr, done[0].len).unwrap();
//! assert_eq!(got, data);
//! ```

pub mod align;
pub mod config;
pub mod cq;
pub mod crashdump;
pub mod error;
pub mod experiment;
pub(crate) mod fabric;
pub(crate) mod faults;
pub mod host;
pub mod input;
pub mod observe;
pub mod oplists;
pub mod output;
pub mod semantics;
pub mod suites;
pub mod world;

pub use align::{plan_aligned_input, AlignedPlan, PageAction, PagePlan};
pub use config::{ChecksumMode, GenieConfig};
pub use cq::{
    harvest, wait_n, AdaptiveConfig, CqConfig, CqResult, Cqe, Landing, QueuePair, Sqe, SqeOp,
};
pub use error::{ConfigError, GenieError};
pub use experiment::{
    latency_sweep, measure_latency, measure_latency_traced, measure_ping_pong, measure_stream,
    throughput_mbps, utilization_sweep, ExperimentPoint, ExperimentSetup, LatencyDistribution,
    SeriesContext,
};
pub use genie_trace::chrome::ChromeTrace;
pub use genie_trace::metrics::{Histogram, Metric, MetricsRegistry};
pub use genie_trace::{SampleConfig, TraceEvent, TraceSet, Tracer, Track};
pub use host::Host;
pub use input::{InputRequest, RecvCompletion};
pub use output::{OutputRequest, SendCompletion};
pub use semantics::{Allocation, Integrity, Semantics};
pub use suites::{
    cluster_reduce, cq_fanin_observed, cq_saturation, cq_sweep, multicast_stream, rpc_fanin,
    rpc_fanin_observed, CqDepthPoint, CqObservation, CqSaturationPoint, CqSuiteConfig,
    FabricObservation, SuitePoint, ALL_SEMANTICS,
};
pub use world::{Fabric, HostId, World, WorldConfig};
