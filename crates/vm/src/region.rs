//! Regions and the move-state marks of the paper's Section 2.

use crate::ids::ObjectId;

/// Move-state of a region (paper Sections 2.1, 2.2, 4 and 6).
///
/// System-allocated I/O buffers are regions marked [`RegionMark::MovedIn`]
/// while accessible to the application; regions that are not
/// system-allocated (heap, stack, statically allocated buffers) are
/// [`RegionMark::Unmovable`]. The remaining marks track regions in
/// transit through output/input with the move-family semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionMark {
    /// Not a system-allocated buffer; can never be moved out.
    Unmovable,
    /// System-allocated and accessible to the application.
    MovedIn,
    /// Output with move-family semantics in progress.
    MovingOut,
    /// Moved out (move / emulated move): application access is an
    /// unrecoverable fault. Under region hiding the region still
    /// exists, invisible, waiting for reuse.
    MovedOut,
    /// Weakly moved out (weak move / emulated weak move): pages remain
    /// mapped, contents indeterminate; cached for reuse.
    WeaklyMovedOut,
    /// Input with move-family semantics in progress.
    MovingIn,
}

impl RegionMark {
    /// True if the application may access pages of a region in this
    /// state without the VM treating the access as unrecoverable.
    ///
    /// Weakly-moved-out regions keep valid mappings, so access never
    /// faults (that is precisely weak integrity); `MovingIn` likewise
    /// occurs only for weak/cached regions whose PTEs remain valid.
    pub fn recoverable(self) -> bool {
        matches!(self, RegionMark::Unmovable | RegionMark::MovedIn)
    }

    /// True for the two moved-out marks, whose regions wait in the
    /// region cache for reuse (paper Section 2.2).
    pub fn cached(self) -> bool {
        matches!(self, RegionMark::MovedOut | RegionMark::WeaklyMovedOut)
    }
}

/// A contiguous virtual region mapping part of a memory object.
#[derive(Clone, Debug)]
pub struct Region {
    /// First virtual page number.
    pub start_vpn: u64,
    /// Length in pages.
    pub npages: u64,
    /// Top memory object backing the region.
    pub object: ObjectId,
    /// Page offset of the region's first page within the object.
    pub object_offset: u64,
    /// Move-state mark.
    pub mark: RegionMark,
    /// May the application write this region at all?
    pub writable: bool,
    /// Wire count: nonzero prevents pageout of the region's pages.
    pub wire_count: u32,
}

impl Region {
    /// Creates a region.
    pub fn new(start_vpn: u64, npages: u64, object: ObjectId, mark: RegionMark) -> Self {
        Region {
            start_vpn,
            npages,
            object,
            object_offset: 0,
            mark,
            writable: true,
            wire_count: 0,
        }
    }

    /// One past the last virtual page number.
    pub fn end_vpn(&self) -> u64 {
        self.start_vpn + self.npages
    }

    /// True if `vpn` falls inside this region.
    pub fn contains(&self, vpn: u64) -> bool {
        (self.start_vpn..self.end_vpn()).contains(&vpn)
    }

    /// Object page index backing virtual page `vpn`.
    pub fn object_page(&self, vpn: u64) -> u64 {
        debug_assert!(self.contains(vpn));
        self.object_offset + (vpn - self.start_vpn)
    }

    /// True while the region is wired in physical memory.
    pub fn is_wired(&self) -> bool {
        self.wire_count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_object_page() {
        let r = Region::new(10, 4, ObjectId(1), RegionMark::Unmovable);
        assert!(r.contains(10));
        assert!(r.contains(13));
        assert!(!r.contains(14));
        assert!(!r.contains(9));
        assert_eq!(r.object_page(12), 2);
    }

    #[test]
    fn recoverability_follows_marks() {
        assert!(RegionMark::Unmovable.recoverable());
        assert!(RegionMark::MovedIn.recoverable());
        assert!(!RegionMark::MovedOut.recoverable());
        assert!(!RegionMark::MovingOut.recoverable());
        assert!(!RegionMark::WeaklyMovedOut.recoverable());
        assert!(!RegionMark::MovingIn.recoverable());
    }
}
