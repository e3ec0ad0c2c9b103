//! The physical memory array and frame allocator.

use core::ops::Range;

use crate::error::MemError;
use crate::frame::{Frame, FrameId, FrameState, IoDir, MAX_PAGE_SIZE};
use crate::pool::PageSlice;

/// Host-side byte work on page storage since a [`PhysMem`] was made.
/// These count what the simulator itself does to move bytes, not
/// simulated work (the cost model charges that): a change that brings
/// back a copy the wire images avoid shows here as a count difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyCounts {
    /// Bytes copied into frames: writes, frame-to-frame copies and wire
    /// image bytes scattered into frames.
    pub bytes_copied: u64,
    /// Page shares taken for wire images (of written frames; an
    /// unwritten one is a zero slice).
    pub shares_taken: u64,
    /// Whole pages a frame took over from a wire image instead of
    /// copying them.
    pub shares_adopted: u64,
    /// Shared pages copied before a partial write or clear
    /// (copy-on-write).
    pub cow_copies: u64,
}

/// Simulated physical memory: a frame table plus a LIFO free list.
///
/// The table grows on allocation: it holds only frames that have been
/// handed out at least once, and `free` holds only returned ids. An
/// allocation pops the most recently returned frame, else appends the
/// lowest id never used — exactly the order of a free list prefilled
/// with every id, highest at the bottom.
///
/// Deallocation is **I/O-deferred** (paper Section 3.1): a frame with
/// nonzero input or output reference count is never placed on the free
/// list; it becomes a [`FrameState::Zombie`] and is freed by the final
/// [`PhysMem::unref_io`].
///
/// Zeroing a frame hands its page storage, unscrubbed, to the
/// thread-local pool, and the next first write to any frame on this
/// thread takes the most recently returned page back (LIFO, so the
/// storage stays cache-hot), clearing only the part of its dirty extent
/// that the write does not cover.
///
/// Page storage is shared copy-on-write with the wire images that take
/// [`PageSlice`]s of it ([`PhysMem::share`]) and with the frames that
/// take such a slice over ([`PhysMem::share_into`]); cloning a
/// `PhysMem` shares every page the same way.
#[derive(Clone, Debug)]
pub struct PhysMem {
    page_size: usize,
    /// The configured number of frames: ids run `0..total`.
    total: usize,
    frames: Vec<Frame>,
    free: Vec<FrameId>,
    deferred_frees: u64,
    allocs: u64,
    deallocs: u64,
    peak_in_use: usize,
    copies: CopyCounts,
}

impl Drop for PhysMem {
    /// Returns the page storage of every written frame to the
    /// thread-local recycling pool, so the next `PhysMem` on this
    /// thread (the next experiment cell's world) reuses it instead of
    /// re-allocating. Each page's dirty extent is cleared on the way,
    /// so the next world's first writes find clean pages: left for
    /// them, those clears would land in its measured steps. A page
    /// another holder still shares is left to it untouched.
    fn drop(&mut self) {
        for f in &mut self.frames {
            let mut page = f.take_storage();
            if !page.is_shared() {
                page.clear_all();
            }
        }
    }
}

impl PhysMem {
    /// Creates a physical memory of `frames` frames of `page_size`
    /// bytes each. Nothing is built up front: frame table entries
    /// appear as ids are first handed out and page storage on a
    /// frame's first write, so a world pays only for what it touches.
    pub fn new(page_size: usize, frames: usize) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be 2^n");
        assert!(
            page_size <= MAX_PAGE_SIZE,
            "page size exceeds the {MAX_PAGE_SIZE}-byte zero page"
        );
        assert!(frames <= u32::MAX as usize, "frame ids are u32");
        PhysMem {
            page_size,
            total: frames,
            frames: Vec::new(),
            free: Vec::new(),
            deferred_frees: 0,
            allocs: 0,
            deallocs: 0,
            peak_in_use: 0,
            copies: CopyCounts::default(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.total
    }

    /// Number of frames not in use: returned frames plus those never
    /// handed out.
    pub fn free_frames(&self) -> usize {
        self.free.len() + (self.total - self.frames.len())
    }

    /// Number of frame ids handed out at least once: every id at or
    /// above this is free, has no I/O references and was never written.
    pub fn touched_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames holding page storage (written at least once).
    pub fn backed_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.is_backed()).count()
    }

    /// Number of deallocations that had to be deferred because I/O was
    /// pending (a paper-Section-3.1 safety event).
    pub fn deferred_free_count(&self) -> u64 {
        self.deferred_frees
    }

    /// Total frame allocations since creation.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Total frame deallocations since creation (deferred or not).
    pub fn dealloc_count(&self) -> u64 {
        self.deallocs
    }

    /// High-water mark of frames simultaneously off the free list.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Host-side copies and page shares so far.
    pub fn copy_counts(&self) -> CopyCounts {
        self.copies
    }

    /// Allocates a frame (contents undefined — whatever the previous
    /// owner left there, exactly the hazard the paper's zeroing and
    /// deferred deallocation guard against). Returned frames come back
    /// LIFO; with none returned, the lowest id never used.
    pub fn alloc(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if self.frames.len() < self.total => {
                self.frames.push(Frame::unbacked(self.page_size));
                FrameId(self.frames.len() as u32 - 1)
            }
            None => return Err(MemError::OutOfFrames),
        };
        let f = &mut self.frames[id.0 as usize];
        debug_assert_eq!(f.state(), FrameState::Free);
        debug_assert!(!f.io_pending(), "free frame with pending I/O");
        f.set_state(FrameState::Allocated);
        f.set_owner(owner);
        self.allocs += 1;
        let in_use = self.frames.len() - self.free.len();
        self.peak_in_use = self.peak_in_use.max(in_use);
        Ok(id)
    }

    /// Allocates a frame that reads as all-zero. O(1): a frame with
    /// storage hands it back to the pool unscrubbed.
    pub fn alloc_zeroed(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = self.alloc(owner)?;
        drop(self.frames[id.0 as usize].take_storage());
        Ok(id)
    }

    /// Deallocates a frame. If I/O is pending the frame becomes a
    /// zombie and is freed by the last [`PhysMem::unref_io`].
    pub fn dealloc(&mut self, id: FrameId) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        match f.state() {
            FrameState::Free => return Err(MemError::DoubleFree(id)),
            FrameState::Zombie => return Err(MemError::DoubleFree(id)),
            FrameState::Allocated => {}
        }
        f.set_owner(None);
        if f.io_pending() {
            f.set_state(FrameState::Zombie);
            self.deferred_frees += 1;
        } else {
            f.set_state(FrameState::Free);
            self.free.push(id);
        }
        self.deallocs += 1;
        Ok(())
    }

    /// Re-adopts a frame that is allocated or zombie (deallocated with
    /// pending I/O) into a new owner, reviving zombies. Used when the
    /// system maps input pages to a new region after the application
    /// removed the original region mid-input (paper Section 6.2.1).
    pub fn adopt(&mut self, id: FrameId, owner: Option<u64>) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        if f.state() == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.set_state(FrameState::Allocated);
        f.set_owner(owner);
        Ok(())
    }

    /// Adds one pending I/O reference in direction `dir` (page
    /// referencing, paper Section 3.1).
    pub fn ref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        if f.state() == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.bump(dir).map_err(|()| MemError::RefOverflow(id))
    }

    /// Drops one pending I/O reference; frees the frame if it was a
    /// zombie and this was its last reference.
    pub fn unref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        f.drop_ref(dir).map_err(|()| MemError::RefUnderflow(id))?;
        if f.state() == FrameState::Zombie && !f.io_pending() {
            f.set_state(FrameState::Free);
            self.free.push(id);
        }
        Ok(())
    }

    /// Shared access to a frame. Ids never handed out are
    /// [`MemError::BadFrame`].
    pub fn frame(&self, id: FrameId) -> Result<&Frame, MemError> {
        self.frames.get(id.0 as usize).ok_or(MemError::BadFrame(id))
    }

    /// Mutable access to a frame.
    pub fn frame_mut(&mut self, id: FrameId) -> Result<&mut Frame, MemError> {
        self.frames
            .get_mut(id.0 as usize)
            .ok_or(MemError::BadFrame(id))
    }

    /// Reads `len` bytes at `offset` within frame `id`.
    pub fn read(&self, id: FrameId, offset: usize, len: usize) -> Result<&[u8], MemError> {
        let f = self.frame(id)?;
        Ok(&f.data()[offset..offset + len])
    }

    /// Writes `bytes` at `offset` within frame `id`.
    pub fn write(&mut self, id: FrameId, offset: usize, bytes: &[u8]) -> Result<(), MemError> {
        let range = offset..offset + bytes.len();
        let f = self
            .frames
            .get_mut(id.0 as usize)
            .ok_or(MemError::BadFrame(id))?;
        let (window, copied) = f.write_window(range.clone());
        window[range].copy_from_slice(bytes);
        self.copies.cow_copies += u64::from(copied);
        self.copies.bytes_copied += bytes.len() as u64;
        Ok(())
    }

    /// A slice of frame `id`'s bytes `offset..offset + len` that shares
    /// its storage: the frame's later writes leave the slice as it was,
    /// and taking it copies nothing (transmit DMA for wire images).
    #[inline]
    pub fn share(&mut self, id: FrameId, offset: usize, len: usize) -> Result<PageSlice, MemError> {
        assert!(offset + len <= self.page_size, "slice beyond the page");
        let page = self.frame(id)?.share();
        self.copies.shares_taken += u64::from(page.is_backed());
        Ok(PageSlice::new(page, offset, len))
    }

    /// Makes frame `id` take over `slice`'s storage in place of its own
    /// if the slice is one whole page of this memory's page size;
    /// returns whether it did (else nothing changes). The frame then
    /// reads as the slice, and copying it is deferred to a partial
    /// write over the shared page by either holder.
    pub fn share_into(&mut self, id: FrameId, slice: &PageSlice) -> Result<bool, MemError> {
        if !slice.is_whole_page(self.page_size) {
            return Ok(false);
        }
        let f = self.frame_mut(id)?;
        f.adopt_storage(slice.page.clone());
        self.copies.shares_adopted += u64::from(slice.page.is_backed());
        Ok(true)
    }

    /// Zeroes bytes `range` of frame `id` (zero-completing a page).
    /// Bytes already known to be zero cost nothing, so clearing a
    /// frame that was never written, or only elsewhere, fills nothing.
    pub fn zero_range(&mut self, id: FrameId, range: Range<usize>) -> Result<(), MemError> {
        assert!(range.end <= self.page_size, "range beyond the page");
        let copied = self.frame_mut(id)?.clear(range);
        self.copies.cow_copies += u64::from(copied);
        Ok(())
    }

    /// Copies `len` bytes between two frames (used for physical page
    /// copies: COW resolution, overlay passing, reverse copyout).
    pub fn copy(
        &mut self,
        src: FrameId,
        src_off: usize,
        dst: FrameId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), MemError> {
        if src == dst {
            // Within an unbacked frame the copy moves zeros onto zeros.
            let f = self.frame_mut(src)?;
            if f.is_backed() {
                let copied = f.own_storage();
                let (window, _) = f.write_window(dst_off..dst_off + len);
                window.copy_within(src_off..src_off + len, dst_off);
                self.copies.cow_copies += u64::from(copied);
                self.copies.bytes_copied += len as u64;
            }
            return Ok(());
        }
        let (a, b) = (src.0 as usize, dst.0 as usize);
        if a.max(b) >= self.frames.len() {
            return Err(MemError::BadFrame(FrameId(a.max(b) as u32)));
        }
        // Split the frame array to borrow source and destination
        // simultaneously.
        let (lo, hi) = self.frames.split_at_mut(a.max(b));
        let (sf, df) = if a < b {
            (&lo[a], &mut hi[0])
        } else {
            (&hi[0], &mut lo[b])
        };
        // `sf` is shared and `df` unique; with a == b handled above the
        // ranges cannot alias.
        let src_slice = &sf.data()[src_off..src_off + len];
        let range = dst_off..dst_off + len;
        let (window, copied) = df.write_window(range.clone());
        window[range].copy_from_slice(src_slice);
        self.copies.cow_copies += u64::from(copied);
        self.copies.bytes_copied += len as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PageSlice;

    fn mem() -> PhysMem {
        PhysMem::new(4096, 32)
    }

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = mem();
        assert_eq!(m.free_frames(), 32);
        let a = m.alloc(Some(1)).unwrap();
        let b = m.alloc(Some(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.free_frames(), 30);
        m.dealloc(a).unwrap();
        assert_eq!(m.free_frames(), 31);
        // LIFO: the next allocation reuses the just-freed frame.
        assert_eq!(m.alloc(None).unwrap(), a);
    }

    #[test]
    fn double_free_detected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.dealloc(a), Err(MemError::DoubleFree(a)));
    }

    #[test]
    fn exhaustion_reports_out_of_frames() {
        let mut m = PhysMem::new(4096, 2);
        m.alloc(None).unwrap();
        m.alloc(None).unwrap();
        assert_eq!(m.alloc(None), Err(MemError::OutOfFrames));
    }

    #[test]
    fn deferred_deallocation_keeps_frame_off_free_list() {
        let mut m = mem();
        let a = m.alloc(Some(7)).unwrap();
        m.write(a, 0, b"sensitive output data").unwrap();
        m.ref_io(a, IoDir::Output).unwrap();
        // Application frees its buffer while output is in flight.
        m.dealloc(a).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        assert_eq!(m.free_frames(), 31);
        assert_eq!(m.deferred_free_count(), 1);
        // Another process cannot be handed this frame.
        for _ in 0..31 {
            assert_ne!(m.alloc(None).unwrap(), a);
        }
        assert_eq!(m.alloc(None), Err(MemError::OutOfFrames));
        // Data is still intact for the device.
        assert_eq!(m.read(a, 0, 21).unwrap(), b"sensitive output data");
        // I/O completes: the frame finally becomes reusable.
        m.unref_io(a, IoDir::Output).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Free);
        assert_eq!(m.free_frames(), 1);
    }

    #[test]
    fn zombie_with_multiple_refs_waits_for_last() {
        let mut m = mem();
        let a = m.alloc(Some(1)).unwrap();
        m.ref_io(a, IoDir::Output).unwrap();
        m.ref_io(a, IoDir::Input).unwrap();
        m.dealloc(a).unwrap();
        m.unref_io(a, IoDir::Output).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        m.unref_io(a, IoDir::Input).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Free);
    }

    #[test]
    fn ref_on_free_frame_rejected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.ref_io(a, IoDir::Input), Err(MemError::NotAllocated(a)));
    }

    #[test]
    fn unref_underflow_rejected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        assert_eq!(m.unref_io(a, IoDir::Input), Err(MemError::RefUnderflow(a)));
    }

    #[test]
    fn copy_between_frames_moves_real_bytes() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        let b = m.alloc(None).unwrap();
        m.write(a, 100, b"hello genie").unwrap();
        m.copy(a, 100, b, 200, 11).unwrap();
        assert_eq!(m.read(b, 200, 11).unwrap(), b"hello genie");
        // Reverse direction (dst id < src id) also works.
        m.copy(b, 200, a, 0, 11).unwrap();
        assert_eq!(m.read(a, 0, 11).unwrap(), b"hello genie");
    }

    #[test]
    fn copy_within_one_frame() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"abcdef").unwrap();
        m.copy(a, 0, a, 10, 6).unwrap();
        assert_eq!(m.read(a, 10, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn zeroed_allocation_scrubs_previous_contents() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"secret").unwrap();
        m.dealloc(a).unwrap();
        let b = m.alloc_zeroed(None).unwrap();
        assert_eq!(b, a, "LIFO reuse expected");
        assert!(m.read(b, 0, 6).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn free_list_never_hands_out_frames_with_live_io_refs() {
        // Exhaustively drain the allocator while one deallocated frame
        // still has a pending input reference: the zombie must never
        // come back until the reference is dropped.
        let mut m = PhysMem::new(4096, 8);
        let a = m.alloc(Some(1)).unwrap();
        m.ref_io(a, IoDir::Input).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        let mut handed_out = 0;
        while let Ok(f) = m.alloc(None) {
            assert_ne!(f, a, "allocator handed out a frame with live I/O");
            assert!(!m.frame(f).unwrap().io_pending());
            handed_out += 1;
        }
        assert_eq!(handed_out, 7);
        // Once the device drops its reference the frame is reusable.
        m.unref_io(a, IoDir::Input).unwrap();
        assert_eq!(m.alloc(None).unwrap(), a);
    }

    #[test]
    fn storage_recycled_across_phys_mems_is_scrubbed() {
        // Page storage recycled through the thread-local pool must not
        // leak a previous world's data into a new one, wherever either
        // world wrote.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for _ in 0..20 {
            {
                let mut m = PhysMem::new(4096, 8);
                for _ in 0..8 {
                    let a = m.alloc(None).unwrap();
                    let off = next(4096);
                    let len = next(4096 - off) + 1;
                    m.write(a, off, &vec![0xA5; len]).unwrap();
                }
                // Zeroed frames leave their storage stale, unscrubbed.
                m.dealloc(FrameId(3)).unwrap();
                m.alloc_zeroed(None).unwrap();
            } // dropped: storage goes to the pool
            let mut m2 = PhysMem::new(4096, 8);
            for _ in 0..8 {
                let id = m2.alloc(None).unwrap();
                let off = next(4096);
                let len = next(4096 - off + 1);
                m2.write(id, off, &vec![7; len]).unwrap();
                let f = m2.frame(id).unwrap();
                let stale = f.data().iter().enumerate().find(|&(i, &b)| {
                    let want = if (off..off + len).contains(&i) { 7 } else { 0 };
                    b != want
                });
                assert_eq!(stale, None, "recycled frame {id:?} shows a stale byte");
            }
        }
    }

    #[test]
    fn plain_allocation_leaks_previous_contents() {
        // This is the hazard move semantics must zero against (paper
        // Table 3: "Zero-complete system pages").
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"secret").unwrap();
        m.dealloc(a).unwrap();
        let b = m.alloc(None).unwrap();
        assert_eq!(m.read(b, 0, 6).unwrap(), b"secret");
    }

    #[test]
    fn unwritten_allocation_reads_zero_without_storage() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        let z = m.alloc_zeroed(None).unwrap();
        for id in [a, z] {
            let f = m.frame(id).unwrap();
            assert!(!f.is_backed(), "{id:?} backed before any write");
            assert_eq!(f.data().len(), 4096);
            assert!(f.data().iter().all(|&b| b == 0));
        }
        assert_eq!(m.backed_frames(), 0);
        m.write(a, 4095, &[9]).unwrap();
        assert!(m.frame(a).unwrap().is_backed());
        assert_eq!(m.read(a, 4094, 2).unwrap(), &[0, 9]);
        assert_eq!(m.backed_frames(), 1);
        // A copy from an unbacked frame backs only the destination.
        m.copy(z, 0, a, 0, 16).unwrap();
        assert!(!m.frame(z).unwrap().is_backed());
        assert_eq!(m.backed_frames(), 1);
    }

    #[test]
    fn table_grows_only_as_ids_are_handed_out() {
        let mut m = mem();
        assert_eq!((m.total_frames(), m.touched_frames()), (32, 0));
        assert_eq!(m.free_frames(), 32);
        assert!(matches!(m.frame(FrameId(0)), Err(MemError::BadFrame(_))));
        let ids: Vec<_> = (0..3).map(|_| m.alloc(None).unwrap()).collect();
        assert_eq!(ids, [FrameId(0), FrameId(1), FrameId(2)]);
        m.dealloc(ids[0]).unwrap();
        m.dealloc(ids[2]).unwrap();
        // Returned frames first (LIFO), then the lowest id never used.
        assert_eq!(m.alloc(None).unwrap(), FrameId(2));
        assert_eq!(m.alloc(None).unwrap(), FrameId(0));
        assert_eq!(m.alloc(None).unwrap(), FrameId(3));
        assert_eq!(m.touched_frames(), 4);
        assert_eq!(m.free_frames(), 28);
        assert_eq!(m.peak_in_use(), 4);
    }

    #[test]
    fn zeroing_pools_pages_unscrubbed_and_drop_clears_extents() {
        const PAGE: usize = 2048;
        crate::pool::trim(0);
        let mut m = PhysMem::new(PAGE, 16);
        let ids: Vec<_> = (0..8).map(|_| m.alloc(None).unwrap()).collect();
        for &id in &ids[..4] {
            m.write(id, 100, b"dirty").unwrap();
        }
        // Zeroing detaches the storage in O(1): the frame reads zero
        // and its page waits in the pool, still dirty.
        m.dealloc(ids[3]).unwrap();
        assert_eq!(m.alloc_zeroed(None).unwrap(), ids[3]);
        assert!(m.read(ids[3], 0, PAGE).unwrap().iter().all(|&b| b == 0));
        assert_eq!((m.backed_frames(), crate::pool::pooled_pages()), (3, 1));
        // The next first write takes it back; no stale byte shows.
        m.write(ids[5], 102, b"x").unwrap();
        assert_eq!(crate::pool::pooled_pages(), 0);
        let mut want = [0u8; PAGE];
        want[102] = b'x';
        assert_eq!(m.read(ids[5], 0, PAGE).unwrap(), &want[..]);
        // Dropping clears each page's extent on the way to the pool.
        drop(m);
        assert_eq!(crate::pool::pooled_pages(), 4);
        let pages: Vec<_> = (0..4)
            .map(|_| crate::pool::take_for_write(PAGE, 0..PAGE))
            .collect();
        for page in &pages {
            assert_eq!(page.dirty(), 0..0, "dropped page kept its extent");
            assert!(
                page.bytes().iter().all(|&b| b == 0),
                "dropped page not clean"
            );
        }
        assert_eq!(crate::pool::pooled_pages(), 0);
    }

    /// Shared page storage against a plain byte model. Seeded random
    /// sequences over a handful of frames mix partial and whole-page
    /// writes, clears, frame-to-frame copies, zeroed reallocation,
    /// shares taken into a mock wire image, whole-page shares taken over
    /// by another frame, dropped shares, and a cloned `PhysMem` that is
    /// written and dropped on its own. After every step each frame of
    /// both memories and each held share reads exactly as its model;
    /// at the end every page is back in the pool.
    #[test]
    fn shared_storage_matches_a_byte_model() {
        const PAGE: usize = 1024;
        const FRAMES: usize = 6;
        crate::pool::trim(0);
        for seed in 1..=24u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let mut m = PhysMem::new(PAGE, FRAMES);
            let ids: Vec<FrameId> = (0..FRAMES).map(|_| m.alloc(None).unwrap()).collect();
            let mut model = vec![vec![0u8; PAGE]; FRAMES];
            // The mock wire image: each share with the bytes it was
            // taken with.
            let mut wire: Vec<(PageSlice, Vec<u8>)> = Vec::new();
            let mut clone: Option<(PhysMem, Vec<Vec<u8>>)> = None;
            for step in 0..300u32 {
                let f = next(FRAMES);
                let off = next(PAGE);
                let len = 1 + next(PAGE - off);
                let fill: Vec<u8> = (0..len).map(|i| (step as usize + i) as u8 | 1).collect();
                match next(10) {
                    0 | 1 => {
                        m.write(ids[f], off, &fill).unwrap();
                        model[f][off..off + len].copy_from_slice(&fill);
                    }
                    2 => {
                        let page: Vec<u8> = (0..PAGE).map(|i| (i as u32 ^ step) as u8).collect();
                        m.write(ids[f], 0, &page).unwrap();
                        model[f] = page;
                    }
                    3 => {
                        m.zero_range(ids[f], off..off + len).unwrap();
                        model[f][off..off + len].fill(0);
                    }
                    4 => {
                        m.dealloc(ids[f]).unwrap();
                        assert_eq!(m.alloc_zeroed(None).unwrap(), ids[f]);
                        model[f].fill(0);
                    }
                    5 => {
                        let (off, len) = if next(2) == 0 { (0, PAGE) } else { (off, len) };
                        let share = m.share(ids[f], off, len).unwrap();
                        wire.push((share, model[f][off..off + len].to_vec()));
                    }
                    6 => {
                        let whole: Vec<usize> = (0..wire.len())
                            .filter(|&i| wire[i].0.len() == PAGE)
                            .collect();
                        if let Some(&i) = whole.get(next(whole.len().max(1))) {
                            assert!(m.share_into(ids[f], &wire[i].0).unwrap());
                            model[f].copy_from_slice(&wire[i].1);
                        }
                    }
                    7 => {
                        if !wire.is_empty() {
                            wire.swap_remove(next(wire.len()));
                        }
                    }
                    8 => {
                        let (g, at) = (next(FRAMES), next(PAGE - len + 1));
                        m.copy(ids[f], off, ids[g], at, len).unwrap();
                        let src = model[f][off..off + len].to_vec();
                        model[g][at..at + len].copy_from_slice(&src);
                    }
                    _ => match clone.take() {
                        None => clone = Some((m.clone(), model.clone())),
                        Some(c) if next(3) == 0 => drop(c),
                        Some((mut c, mut cmodel)) => {
                            c.write(ids[f], off, &fill).unwrap();
                            cmodel[f][off..off + len].copy_from_slice(&fill);
                            clone = Some((c, cmodel));
                        }
                    },
                }
                // The first byte at which `got` departs from `want`.
                let diff = |got: &[u8], want: &[u8]| (0..PAGE).find(|&i| got.get(i) != want.get(i));
                let ctx = format!("seed {seed} step {step}");
                for (i, &id) in ids.iter().enumerate() {
                    let got = m.read(id, 0, PAGE).unwrap();
                    assert_eq!(diff(got, &model[i]), None, "{ctx}: frame {i}");
                }
                for (share, bytes) in &wire {
                    assert_eq!(diff(share.bytes(), bytes), None, "{ctx}: a share changed");
                }
                if let Some((c, cmodel)) = &clone {
                    for (i, &id) in ids.iter().enumerate() {
                        let got = c.read(id, 0, PAGE).unwrap();
                        assert_eq!(diff(got, &cmodel[i]), None, "{ctx}: clone frame {i}");
                    }
                }
            }
            let counts = m.copy_counts();
            assert!(
                counts.shares_adopted > 0 && counts.cow_copies > 0,
                "seed {seed}: {counts:?}"
            );
            drop((wire, clone, m));
            assert_eq!(
                crate::pool::outstanding_pages(),
                0,
                "seed {seed}: a page leaked"
            );
            assert!(crate::pool::pooled_pages() > 0);
        }
    }
}
