//! Identifier types and the scatter/gather descriptor element.

use core::fmt;

use genie_mem::{key_gen, key_slot, FrameId, SlotKey};

/// Identifier of a memory object: its generational key in the VM's
/// object arena. A released object's slot is reused, but under a new
/// generation, so a stale id resolves to nothing rather than to the
/// slot's next object. Frames record the full key as their owner tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub SlotKey);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}.{}", key_slot(self.0), key_gen(self.0))
    }
}

/// Identifier of an address space (a simulated process).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpaceId(pub u32);

impl fmt::Debug for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as{}", self.0)
    }
}

/// One element of a physical scatter/gather list: the result of page
/// referencing (paper Section 3.1, "preparing the descriptor with the
/// physical addresses of an I/O request").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoVec {
    /// Physical frame holding the data.
    pub frame: FrameId,
    /// Byte offset within the frame.
    pub offset: usize,
    /// Length in bytes within the frame.
    pub len: usize,
    /// Memory object the frame belonged to at referencing time (used
    /// to maintain per-object input counts), if any.
    pub object: Option<ObjectId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(
            format!("{:?}", ObjectId(genie_mem::slot_key(2, 3))),
            "obj3.2"
        );
        assert_eq!(format!("{:?}", SpaceId(1)), "as1");
    }
}
