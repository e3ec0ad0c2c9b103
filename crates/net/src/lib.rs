//! Simulated Credit Net ATM network for the Genie reproduction.
//!
//! The paper's experiments run between hosts connected by the Credit
//! Net ATM network at OC-3 rates, whose adapter transfers data between
//! main memory and the wire by burst-mode DMA over PCI. This crate
//! provides that substrate:
//!
//! - [`aal5`]: AAL5 framing — segmentation of PDUs into 53-byte cells,
//!   reassembly, CRC-32 and length checking;
//! - [`credit`]: per-VC credit-based flow control (after Kosak et al.,
//!   "Buffer Management and Flow Control in the Credit Net ATM Host
//!   Interface");
//! - [`proto`]: a small datagram protocol with a real header, the
//!   source of the nonzero preferred alignment that the paper's input
//!   alignment interface exposes to applications;
//! - [`dma`]: PCI bus/DMA timing model;
//! - [`adapter`]: the host interface with the paper's three input
//!   buffering architectures — early demultiplexed, pooled in-host,
//!   and outboard (Section 6.2);
//! - [`switch`]: an N-port switch with per-hop, per-VC credit flow
//!   control, output-port FIFO contention queues, and configurable
//!   fan-in/fan-out routing tables (Section 6.2's network, scaled out);
//! - [`event`]: a deterministic discrete-event queue used by the
//!   experiment driver.
//!
//! All datapaths move real bytes through [`genie_mem::PhysMem`] frames,
//! so end-to-end integrity is checkable in tests.

pub mod aal5;
pub mod adapter;
pub mod credit;
pub mod dma;
pub mod event;
pub mod proto;
pub mod switch;

pub use aal5::{reassemble, reassemble_into, segment, segment_into, Aal5Trailer, Cell, WirePdu};
pub use adapter::{Adapter, AdapterStats, InputBuffering, RxCompletion, Vc};
pub use credit::CreditState;
pub use dma::DmaModel;
pub use event::EventQueue;
pub use proto::{checksum16, DatagramHeader, HEADER_LEN};
pub use switch::{Route, Switch, SwitchConfig, SwitchStats, SwitchedPdu};
