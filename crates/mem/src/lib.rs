//! Simulated physical memory for the Genie reproduction.
//!
//! Physical pages are real byte arrays ([`Frame`]), so every
//! data-passing experiment moves real data and every corruption
//! scenario the paper reasons about is observable in tests.
//!
//! The crate implements the two safety mechanisms of the paper's
//! Section 3.1:
//!
//! - **page referencing**: each frame keeps separate counts of pending
//!   *input* and *output* I/O references ([`Frame`] `in_count` /
//!   `out_count`);
//! - **I/O-deferred page deallocation**: deallocating a frame with
//!   pending I/O parks it in a zombie state instead of returning it to
//!   the free list; the final unreference frees it. This is what makes
//!   in-place I/O safe even against applications that free (or exit
//!   with) buffers that still have I/O in flight.

pub mod error;
pub mod frame;
pub mod hash;
pub mod phys;
mod pool;
pub mod slot;

pub use error::MemError;
pub use frame::{Frame, FrameId, FrameState, IoDir};
pub use hash::{fnv64, Fnv64};
pub use phys::PhysMem;
pub use slot::{key_gen, key_slot, slot_key, DenseMap, SlotKey, SlotMap};
