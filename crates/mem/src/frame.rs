//! Physical page frames with I/O reference counts.
//!
//! A frame's bytes live in page storage attached on its first write;
//! until then, and again after it is zeroed, it reads as one shared
//! static zero page. Storage carries a dirty extent (the byte range
//! that may be nonzero), so zeroing is O(1): the frame hands its
//! storage back unscrubbed, and the next first write clears only the
//! part of the old extent it does not overwrite. No stale byte is ever
//! visible: a backed frame's storage is exactly its contents.

use core::fmt;
use core::ops::Range;

use crate::pool::Page;

/// Largest supported page size: the length of [`ZERO_PAGE`].
pub(crate) const MAX_PAGE_SIZE: usize = 64 * 1024;

/// What a frame with no page storage reads as. One shared page of
/// zeros stands in for every never-written frame of every world.
static ZERO_PAGE: [u8; MAX_PAGE_SIZE] = [0; MAX_PAGE_SIZE];

/// Index of a physical page frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pf{}", self.0)
    }
}

/// Direction of a pending I/O reference on a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoDir {
    /// The frame is a target of pending input (device will write it).
    Input,
    /// The frame is a source of pending output (device will read it).
    Output,
}

/// Lifecycle state of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameState {
    /// On the free list.
    Free,
    /// Allocated to a memory object or kernel pool.
    Allocated,
    /// Deallocated while I/O was pending (I/O-deferred deallocation,
    /// paper Section 3.1): will be freed by the last unreference.
    Zombie,
}

/// One physical page frame: real bytes plus I/O reference counts.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Page storage and its dirty extent, or no storage: an unbacked
    /// frame reads as [`ZERO_PAGE`]. Storage bytes outside the extent
    /// are zero, so a backed frame's bytes are its contents.
    page: Page,
    /// log2 of the page size, so an unbacked frame knows how much of
    /// the zero page it reads as and how much storage to attach.
    page_shift: u8,
    in_count: u16,
    out_count: u16,
    state: FrameState,
    /// Opaque owner tag set by the VM layer (the owning memory
    /// object's generational key); `None` for kernel pool pages.
    owner: Option<u64>,
}

impl Frame {
    /// Creates a free frame of `page_size` bytes with no page storage.
    /// `PhysMem` appends one of these the first time it hands out an
    /// id; storage is attached by the first write, so a frame that is
    /// allocated but never written costs no page.
    pub(crate) fn unbacked(page_size: usize) -> Self {
        Frame {
            page: Page::default(),
            page_shift: page_size.trailing_zeros() as u8,
            in_count: 0,
            out_count: 0,
            state: FrameState::Free,
            owner: None,
        }
    }

    fn page_size(&self) -> usize {
        1 << self.page_shift
    }

    /// True if the frame holds page storage (has been written since it
    /// was last zeroed).
    pub(crate) fn is_backed(&self) -> bool {
        self.page.is_backed()
    }

    /// Detaches the page storage with its dirty extent, leaving the
    /// frame unbacked. This is how a frame is zeroed in O(1): it reads
    /// as the zero page from then on, and the detached storage is
    /// reused, unscrubbed, by a later first write.
    pub(crate) fn take_storage(&mut self) -> Page {
        core::mem::take(&mut self.page)
    }

    /// Frame contents (the shared zero page until the first write).
    pub fn data(&self) -> &[u8] {
        if self.page.is_backed() {
            self.page.bytes()
        } else {
            &ZERO_PAGE[..self.page_size()]
        }
    }

    /// The page bytes, for a write that overwrites all of `range`. An
    /// unbacked frame attaches a pooled page and zeroes only the bytes
    /// of its old extent outside `range`.
    pub(crate) fn write_window(&mut self, range: Range<usize>) -> &mut [u8] {
        if !self.page.is_backed() {
            self.page = crate::pool::take_for_write(self.page_size(), range.clone());
        }
        self.page.write_window(range)
    }

    /// Zeroes `range`. Bytes already known to be zero (all of them on
    /// an unbacked frame) cost nothing.
    pub(crate) fn clear(&mut self, range: Range<usize>) {
        self.page.clear(range);
    }

    /// Pending input references.
    pub fn in_count(&self) -> u16 {
        self.in_count
    }

    /// Pending output references.
    pub fn out_count(&self) -> u16 {
        self.out_count
    }

    /// True if any I/O is pending on this frame.
    pub fn io_pending(&self) -> bool {
        self.in_count > 0 || self.out_count > 0
    }

    /// Lifecycle state.
    pub fn state(&self) -> FrameState {
        self.state
    }

    /// Owner tag (memory object id), if any.
    pub fn owner(&self) -> Option<u64> {
        self.owner
    }

    pub(crate) fn set_state(&mut self, s: FrameState) {
        self.state = s;
    }

    /// Sets the owner tag (the VM layer records the owning memory
    /// object here when adopting a frame into an object).
    pub fn set_owner(&mut self, owner: Option<u64>) {
        self.owner = owner;
    }

    pub(crate) fn bump(&mut self, dir: IoDir) -> Result<(), ()> {
        let c = match dir {
            IoDir::Input => &mut self.in_count,
            IoDir::Output => &mut self.out_count,
        };
        *c = c.checked_add(1).ok_or(())?;
        Ok(())
    }

    pub(crate) fn drop_ref(&mut self, dir: IoDir) -> Result<(), ()> {
        let c = match dir {
            IoDir::Input => &mut self.in_count,
            IoDir::Output => &mut self.out_count,
        };
        *c = c.checked_sub(1).ok_or(())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_free_and_zeroed() {
        let f = Frame::unbacked(4096);
        assert_eq!(f.state(), FrameState::Free);
        assert_eq!(f.data().len(), 4096);
        assert!(f.data().iter().all(|&b| b == 0));
        assert!(!f.io_pending());
    }

    #[test]
    fn counts_track_directions_independently() {
        let mut f = Frame::unbacked(4096);
        f.bump(IoDir::Input).unwrap();
        f.bump(IoDir::Input).unwrap();
        f.bump(IoDir::Output).unwrap();
        assert_eq!(f.in_count(), 2);
        assert_eq!(f.out_count(), 1);
        f.drop_ref(IoDir::Input).unwrap();
        assert_eq!(f.in_count(), 1);
        assert_eq!(f.out_count(), 1);
    }

    #[test]
    fn drop_below_zero_is_an_error() {
        let mut f = Frame::unbacked(4096);
        assert!(f.drop_ref(IoDir::Output).is_err());
    }

    #[test]
    fn zeroing_detaches_storage_and_no_stale_byte_shows() {
        let mut f = Frame::unbacked(4096);
        f.write_window(10..20)[10..20].fill(0xEE);
        // Zeroing hands the storage back unscrubbed, extent and all,
        // and the frame reads as the zero page.
        let page = f.take_storage();
        assert_eq!(page.dirty(), 10..20);
        assert!(page.bytes()[10..20].iter().all(|&b| b == 0xEE));
        assert!(!f.is_backed());
        assert!(f.data().iter().all(|&b| b == 0));
        // The next first write reuses that page; what it does not
        // overwrite reads zero.
        crate::pool::recycle(page);
        let pooled = crate::pool::pooled_pages();
        f.write_window(15..17)[15..17].fill(1);
        assert_eq!(crate::pool::pooled_pages(), pooled - 1, "page reused");
        let mut want = [0u8; 4096];
        want[15..17].fill(1);
        assert_eq!(f.data(), &want[..]);
        // Clearing a range shrinks what a later reuse has to fill.
        f.write_window(4000..4096)[4000..].fill(3);
        f.clear(0..4000);
        assert_eq!(f.take_storage().dirty(), 4000..4096);
    }
}
