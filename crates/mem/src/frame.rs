//! Physical page frames with I/O reference counts.

use core::fmt;

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
    /// Page storage, or empty until the first write: an unbacked frame
    /// reads as [`ZERO_PAGE`].
    data: Box<[u8]>,
    /// log2 of the page size, so an unbacked frame knows how much of
    /// the zero page it reads as and how much storage to attach.
    page_shift: u8,
    /// True once anything may have written the page since it was last
    /// known to be all-zero. Clean pages skip the scrub on recycling
    /// and on `alloc_zeroed`.
    dirty: bool,
    in_count: u16,
    out_count: u16,
    state: FrameState,
    /// Opaque owner tag set by the VM layer (memory object id); `None`
    /// for kernel pool pages.
    owner: Option<u64>,
}

impl Frame {
    /// Creates a free frame of `page_size` bytes (zeroed; storage may
    /// be recycled from a previously dropped `PhysMem`).
    pub fn new(page_size: usize) -> Self {
        Frame {
            data: crate::pool::take_zeroed(page_size),
            page_shift: page_size.trailing_zeros() as u8,
            dirty: false,
            in_count: 0,
            out_count: 0,
            state: FrameState::Free,
            owner: None,
        }
    }

    /// Creates a free frame of `page_size` bytes with no page storage.
    /// `PhysMem` appends one of these the first time it hands out an
    /// id; storage is attached by the first [`Frame::data_mut`], so a
    /// frame that is allocated but never written costs no page.
    pub(crate) fn unbacked(page_size: usize) -> Self {
        Frame {
            data: Box::default(),
            page_shift: page_size.trailing_zeros() as u8,
            dirty: false,
            in_count: 0,
            out_count: 0,
            state: FrameState::Free,
            owner: None,
        }
    }

    /// True if the frame holds page storage (has been written).
    pub(crate) fn is_backed(&self) -> bool {
        !self.data.is_empty()
    }

    /// Detaches the page storage (leaving an empty slice behind) and
    /// reports whether it may hold nonzero bytes, so the recycling
    /// pool knows whether a scrub is needed.
    pub(crate) fn take_storage(&mut self) -> (Box<[u8]>, bool) {
        let dirty = self.dirty;
        self.dirty = false;
        (core::mem::take(&mut self.data), dirty)
    }

    /// Zero-fills the page, skipping the write when it is already
    /// known to be all-zero (always the case for an unbacked frame).
    pub(crate) fn zero(&mut self) {
        if self.dirty {
            self.data.fill(0);
            self.dirty = false;
        }
    }

    /// Frame contents (the shared zero page until the first write).
    pub fn data(&self) -> &[u8] {
        if self.data.is_empty() {
            &ZERO_PAGE[..1 << self.page_shift]
        } else {
            &self.data
        }
    }

    /// Mutable frame contents (conservatively marks the page dirty).
    /// The first call attaches a zeroed page from the recycling pool.
    pub fn data_mut(&mut self) -> &mut [u8] {
        if self.data.is_empty() {
            self.data = crate::pool::take_zeroed(1 << self.page_shift);
        }
        self.dirty = true;
        &mut self.data
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
        let f = Frame::new(4096);
        assert_eq!(f.state(), FrameState::Free);
        assert_eq!(f.data().len(), 4096);
        assert!(f.data().iter().all(|&b| b == 0));
        assert!(!f.io_pending());
    }

    #[test]
    fn counts_track_directions_independently() {
        let mut f = Frame::new(4096);
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
        let mut f = Frame::new(4096);
        assert!(f.drop_ref(IoDir::Output).is_err());
    }

    #[test]
    fn dirty_tracks_writes_and_zeroing() {
        let mut f = Frame::new(4096);
        f.data_mut()[0] = 0xEE;
        f.zero();
        assert!(f.data().iter().all(|&b| b == 0));
        let (page, dirty) = f.take_storage();
        assert!(!dirty, "zeroed frame must hand back clean storage");
        assert!(page.iter().all(|&b| b == 0));

        let mut f = Frame::new(4096);
        f.data_mut()[7] = 1;
        let (_, dirty) = f.take_storage();
        assert!(dirty, "written frame must hand back dirty storage");
    }
}
