//! Simulated virtual-memory subsystem for the Genie reproduction.
//!
//! This is a from-scratch, Mach-derived VM model (regions, memory
//! objects with shadow chains, per-page protections, a pageout daemon)
//! of the kind Genie was implemented against in NetBSD 1.1. It
//! implements every VM mechanism the paper's data-passing semantics
//! rely on:
//!
//! - **page referencing** over arbitrary user buffers, producing real
//!   scatter/gather descriptors ([`IoVec`]) and maintaining per-frame
//!   and per-object input/output counts (Section 3.1);
//! - **input-disabled pageout**: the daemon never pages out a frame
//!   with a nonzero input count, which replaces wiring in the emulated
//!   semantics (Section 3.2);
//! - **input-disabled COW**: copy-on-write requested over an object
//!   with pending input degrades to a physical copy (Section 3.3);
//! - **TCOW**: transient, page-level copy-on-write on output
//!   (Section 5.1) — a write fault on a page with a nonzero output
//!   count copies the page and swaps it in the memory object; with a
//!   zero output count it merely re-enables writing;
//! - **region hiding** for emulated move (Section 4) and **region
//!   caching** for the weak-move semantics (Section 2.2);
//! - **page swapping** between system and application buffers, the
//!   mechanism behind input alignment (Section 5.2).
//!
//! All mechanics run on real bytes ([`genie_mem::PhysMem`]); the crate
//! performs state transitions only and reports what it did through
//! [`FaultOutcome`] values so the policy layer (the `genie` crate) can
//! charge simulated time for each primitive operation.

pub mod error;
pub mod fault;
pub mod ids;
pub mod object;
pub mod pageout;
pub mod region;
pub mod space;
#[allow(clippy::module_inception)]
pub mod vm;

pub use error::VmError;
pub use fault::{Access, FaultOutcome};
pub use ids::{IoVec, ObjectId, SpaceId};
pub use object::MemoryObject;
pub use region::{Region, RegionMark};
pub use space::{AddressSpace, Pte, RegionHandle};
pub use vm::{IoDescriptor, PagePeek, Vm, VmStats};
