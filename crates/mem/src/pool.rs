//! Page storage with dirty extents, shared copy-on-write, and its
//! thread-local recycling pool.
//!
//! A frame gets page storage on its first write (unwritten frames read
//! as one shared zero page). Every [`Page`] carries its dirty extent:
//! the byte range that may be nonzero, outside which every byte is
//! zero. So no fill ever covers more than the bytes that were written:
//!
//! - zeroing a frame hands its page back here unscrubbed, in O(1);
//! - a first write takes the most recently returned page (LIFO, so it
//!   is cache-hot) and clears only the part of its old extent the
//!   write does not cover: a 256-byte message that lands where the
//!   previous one lay fills nothing;
//! - dropping a `PhysMem` clears each page's extent on the way in, so
//!   the next world starts from clean pages.
//!
//! Storage is reference-counted, so a page can have several holders: a
//! frame, the wire images that took a [`PageSlice`] of it at transmit,
//! and the receiving frames that took such a slice over whole. Holders
//! never see one another's writes: every mutator unshares first. A
//! write that replaces the whole dirty extent takes a pooled page and
//! copies nothing; only a partial write (or clear) over shared storage
//! copies the extent. Storage returns to the pool when its last holder
//! drops it, with that holder's extent, which is exact for it: shared
//! bytes never change.
//!
//! Experiment sweeps build and drop hundreds of worlds, so the next
//! world on the same thread reuses those pages instead of asking the
//! allocator (and the OS) for fresh ones. The pool is thread-local, so
//! parallel sweep workers never contend, and it is keyed by page size
//! (machines differ).

use core::ops::Range;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::frame::ZERO_PAGE;

/// Upper bound on pooled pages per page size per thread (64 MB of
/// 4 KB pages): enough for two default worlds, a backstop against
/// unbounded growth if an experiment builds an unusually large world.
const MAX_POOLED_PAGES: usize = 16384;

/// Page storage and its dirty extent `lo..hi`: no byte outside it is
/// nonzero (`lo >= hi`: the page is all-zero). The default value has
/// no storage at all. Cloning shares the storage; dropping the last
/// holder returns it to this thread's pool.
#[derive(Debug, Default)]
pub(crate) struct Page {
    bytes: Option<Arc<[u8]>>,
    lo: u32,
    hi: u32,
    /// False while this holder has never shared its storage, which it
    /// then holds alone: no reference count needs reading. (The count
    /// lives in the storage's first cache line, which a write or a drop
    /// would otherwise touch cold.)
    shared: Cell<bool>,
}

impl Clone for Page {
    #[inline]
    fn clone(&self) -> Page {
        self.shared.set(true);
        Page {
            bytes: self.bytes.clone(),
            lo: self.lo,
            hi: self.hi,
            shared: Cell::new(true),
        }
    }
}

/// Pooled storage: a [`Page`] with its only holder gone. It has no
/// `Drop` of its own, so the pool can free it without re-entering.
struct Spare {
    bytes: Arc<[u8]>,
    lo: u32,
    hi: u32,
}

impl Drop for Page {
    #[inline]
    fn drop(&mut self) {
        if let Some(bytes) = self.bytes.take() {
            // A count of one is final: only a holder can add another.
            // (Two holders dropping at once on two threads may both
            // read two; their storage is then freed, not pooled.)
            if !self.shared.get() || Arc::strong_count(&bytes) == 1 {
                recycle(Spare {
                    bytes,
                    lo: self.lo,
                    hi: self.hi,
                });
            }
        }
    }
}

impl Page {
    /// True if this holds page storage.
    pub(crate) fn is_backed(&self) -> bool {
        self.bytes.is_some()
    }

    /// True if another holder shares this storage.
    #[inline]
    pub(crate) fn is_shared(&self) -> bool {
        self.shared.get() && self.count_shared()
    }

    /// Reads the reference count of storage this holder once shared,
    /// forgetting the sharing when the other holders are gone.
    fn count_shared(&self) -> bool {
        let shared = self
            .bytes
            .as_ref()
            .is_some_and(|b| Arc::strong_count(b) > 1);
        self.shared.set(shared);
        shared
    }

    /// The page bytes (empty without storage).
    pub(crate) fn bytes(&self) -> &[u8] {
        self.bytes.as_deref().unwrap_or_default()
    }

    /// The dirty extent (empty for an all-zero page).
    #[cfg(test)]
    pub(crate) fn dirty(&self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }

    /// The storage bytes of a page this holder owns alone.
    #[inline]
    fn unique_bytes(&mut self) -> &mut [u8] {
        assert!(!self.is_shared(), "page storage unshared before a write");
        fence(Ordering::Acquire);
        let bytes = self.bytes.as_mut().expect("page storage");
        // SAFETY: this `Arc` is the storage's only strong reference:
        // either this holder never shared it (`shared` is set on both
        // sides of every clone, and storage enters a `Page` unshared
        // only from the pool or a fresh allocation), or the count read
        // one just above. Page storage never has a `Weak` (nothing in
        // this crate downgrades one). So no other reference to the bytes
        // exists, and none can be made while `self` is borrowed mutably.
        // The acquire fence orders every former holder's accesses, which
        // its drop released, before ours. This is `Arc::get_mut` without
        // its compare-and-swap on the weak count and its read of the
        // storage's first cache line, which every write to a frame would
        // pay.
        unsafe { &mut *(Arc::as_ptr(bytes) as *mut [u8]) }
    }

    /// The bytes of a `size`-byte page, for a write that overwrites all
    /// of `range`: the extent widens to cover it. Without storage, a
    /// pooled page is attached; shared storage is left to its other
    /// holders first (see [`Page::unshare`]). Returns whether that
    /// copied a shared page.
    #[inline]
    pub(crate) fn write_window(&mut self, size: usize, range: Range<usize>) -> (&mut [u8], bool) {
        let copied = if self.is_backed() {
            self.unshare(range.clone())
        } else {
            *self = take_for_write(size, range.clone());
            false
        };
        if !range.is_empty() {
            let (lo, hi) = (range.start as u32, range.end as u32);
            if self.lo >= self.hi {
                (self.lo, self.hi) = (lo, hi);
            } else {
                (self.lo, self.hi) = (self.lo.min(lo), self.hi.max(hi));
            }
        }
        (self.unique_bytes(), copied)
    }

    /// Makes shared storage this holder's own, contents and all, ahead
    /// of a write that reads the page too. Returns whether that copied.
    pub(crate) fn own(&mut self) -> bool {
        self.unshare(0..0)
    }

    /// Makes shared storage this holder's own before a mutation of
    /// `range`, leaving the old storage to its other holders. When
    /// `range` covers the whole extent, the mutation replaces every
    /// nonzero byte, so a pooled page serves and nothing is copied;
    /// otherwise the extent is copied into one. Returns whether bytes
    /// were copied.
    #[inline]
    fn unshare(&mut self, range: Range<usize>) -> bool {
        self.is_shared() && self.unshare_shared(range)
    }

    /// [`Page::unshare`] for storage another holder shares.
    #[inline(never)]
    fn unshare_shared(&mut self, range: Range<usize>) -> bool {
        let size = self.bytes().len();
        let extent = self.lo as usize..self.hi as usize;
        if extent.is_empty() || (range.start <= extent.start && extent.end <= range.end) {
            *self = take_for_write(size, range);
            return false;
        }
        let mut own = take_for_write(size, extent.clone());
        own.unique_bytes()[extent.clone()].copy_from_slice(&self.bytes()[extent]);
        (own.lo, own.hi) = (self.lo, self.hi);
        *self = own;
        true
    }

    /// Zeroes `range`, filling only where it meets the extent, and
    /// shrinks the extent when `range` covers either end of it. Shared
    /// storage is unshared first: dropped outright when `range` covers
    /// the extent, else copied. Returns whether that copied a page.
    #[inline]
    pub(crate) fn clear(&mut self, range: Range<usize>) -> bool {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        let (a, b) = (range.start.max(lo), range.end.min(hi));
        if a >= b || !self.is_backed() {
            return false;
        }
        if (a, b) == (lo, hi) && self.is_shared() {
            *self = Page::default();
            return false;
        }
        let copied = self.unshare(range);
        self.unique_bytes()[a..b].fill(0);
        if (a, b) == (lo, hi) {
            (self.lo, self.hi) = (0, 0);
        } else if a == lo {
            self.lo = b as u32;
        } else if b == hi {
            self.hi = a as u32;
        }
        copied
    }

    /// Zeroes the whole dirty extent, leaving an all-zero page.
    pub(crate) fn clear_all(&mut self) {
        self.clear(0..self.bytes().len());
    }

    /// Zeroes everything outside `keep`, which the caller is about to
    /// overwrite in full: only the extent's parts beyond `keep` fill.
    fn clear_outside(&mut self, keep: Range<usize>) {
        self.clear(keep.end..self.bytes().len());
        self.clear(0..keep.start);
    }
}

/// `len` bytes at `off` of one page's storage, taken for a wire image:
/// a share of the storage (a page the frame never wrote reads as
/// zeros), so taking a slice copies nothing, and the frame's later
/// writes leave it as it was.
#[derive(Clone, Debug)]
pub struct PageSlice {
    pub(crate) page: Page,
    off: u32,
    len: u32,
}

impl PageSlice {
    /// A slice of `page`'s bytes `off..off + len`.
    pub(crate) fn new(page: Page, off: usize, len: usize) -> PageSlice {
        PageSlice {
            page,
            off: off as u32,
            len: len as u32,
        }
    }

    /// A slice holding a copy of `bytes` at the start of a pooled page
    /// of `size` bytes: how a wire image is built from plain bytes
    /// (reassembled cells, tests).
    ///
    /// # Panics
    ///
    /// If `bytes` is longer than `size`.
    pub fn copy_of(size: usize, bytes: &[u8]) -> PageSlice {
        let mut page = Page::default();
        let range = 0..bytes.len();
        page.write_window(size, range.clone()).0[range].copy_from_slice(bytes);
        PageSlice::new(page, 0, bytes.len())
    }

    /// The bytes of the slice.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        let range = self.off as usize..(self.off + self.len) as usize;
        match self.page.is_backed() {
            true => &self.page.bytes()[range],
            false => &ZERO_PAGE[range],
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for an empty slice.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the slice is the whole of a `size`-byte page, so a
    /// frame of that size can take the storage over instead of copying
    /// it. A page the frame never wrote counts: it is all zeros.
    pub(crate) fn is_whole_page(&self, size: usize) -> bool {
        self.off == 0
            && self.len as usize == size
            && (!self.page.is_backed() || self.page.bytes().len() == size)
    }
}

/// Recycled pages for one page size.
struct SizeClass {
    size: usize,
    pages: Vec<Spare>,
    /// Pages taken from this class and not yet returned: with `pages`,
    /// every page of this size in circulation on this thread.
    out: usize,
}

thread_local! {
    /// Recycled page storage, grouped by page size (at most a couple
    /// of distinct sizes, so a flat list beats a map).
    static POOL: RefCell<Vec<SizeClass>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's size class for `size`, creating it.
#[inline]
fn with_class<T>(
    pool: &RefCell<Vec<SizeClass>>,
    size: usize,
    f: impl FnOnce(&mut SizeClass) -> T,
) -> T {
    let mut pool = pool.borrow_mut();
    let i = match pool.iter().position(|c| c.size == size) {
        Some(i) => i,
        None => {
            pool.push(SizeClass {
                size,
                pages: Vec::new(),
                out: 0,
            });
            pool.len() - 1
        }
    };
    f(&mut pool[i])
}

/// Takes a page of `size` bytes with its old extent, reusing recycled
/// storage when available.
///
/// A fresh page also grows the stash's capacity to every page in
/// circulation (up to the cap), so returning pages never reallocates:
/// zeroing a frame on the warm path hands its page back here without
/// touching the allocator.
fn take(size: usize) -> Page {
    let spare = POOL.with(|p| {
        with_class(p, size, |c| {
            c.out += 1;
            c.pages.pop().unwrap_or_else(|| {
                c.pages.reserve(c.out.min(MAX_POOLED_PAGES));
                // SAFETY: the allocator zeroed every byte, and zero is a
                // valid `u8`. (`Arc::from(vec![0; size])` would zero a
                // second buffer and copy it over: a cold world's first
                // writes pay for every fresh page.)
                let bytes = unsafe { Arc::<[u8]>::new_zeroed_slice(size).assume_init() };
                Spare {
                    bytes,
                    lo: 0,
                    hi: 0,
                }
            })
        })
    });
    Page {
        bytes: Some(spare.bytes),
        lo: spare.lo,
        hi: spare.hi,
        shared: Cell::new(false),
    }
}

/// Takes storage for a write that will overwrite all of `keep`: the
/// most recently returned page of `size` bytes, else a fresh one. Only
/// the old extent's bytes outside `keep` are zeroed.
pub(crate) fn take_for_write(size: usize, keep: Range<usize>) -> Page {
    let mut page = take(size);
    page.clear_outside(keep);
    page
}

/// Returns storage, extent and all, to the pool (dropped on the floor
/// once the per-size cap is reached, or when the thread's pool is
/// already gone). Nothing is scrubbed: the next taker clears what it
/// needs to.
fn recycle(spare: Spare) {
    let _ = POOL.try_with(|p| {
        with_class(p, spare.bytes.len(), |c| {
            c.out = c.out.saturating_sub(1);
            if c.pages.len() < MAX_POOLED_PAGES {
                c.pages.push(spare);
            }
        })
    });
}

/// Pages currently pooled on this thread, across all size classes.
#[cfg(test)]
pub(crate) fn pooled_pages() -> usize {
    POOL.with(|p| p.borrow().iter().map(|c| c.pages.len()).sum())
}

/// Pages taken from this thread's pool and not yet returned, across all
/// size classes.
#[cfg(test)]
pub(crate) fn outstanding_pages() -> usize {
    POOL.with(|p| p.borrow().iter().map(|c| c.out).sum())
}

/// Trims this thread's pool to at most `keep` pages per size class,
/// returning the excess storage to the allocator (and shrinking the
/// stash vectors themselves). Returns the number of pages released.
/// Tests start from a known pool with it; the pool itself is bounded
/// by its per-size cap.
#[cfg(test)]
pub(crate) fn trim(keep: usize) -> usize {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut freed = 0;
        for c in pool.iter_mut() {
            if c.pages.len() > keep {
                freed += c.pages.len() - keep;
                c.pages.truncate(keep);
                c.pages.shrink_to_fit();
            }
        }
        freed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page of `size` bytes holding `fill` over `range`.
    fn written(size: usize, range: Range<usize>, fill: u8) -> Page {
        let mut page = Page::default();
        page.write_window(size, range.clone()).0[range].fill(fill);
        page
    }

    #[test]
    fn pool_trim_releases_excess_and_reports_residency() {
        trim(0);
        let pages: Vec<_> = (0..8).map(|_| take_for_write(256, 0..0)).collect();
        drop(pages);
        assert!(pooled_pages() >= 8);
        let freed = trim(2);
        assert!(freed >= 6, "freed {freed}");
        assert!(pooled_pages() <= 2 * 2, "per size class cap");
        trim(0);
        assert_eq!(pooled_pages(), 0);
    }

    #[test]
    fn recycled_page_keeps_its_extent_until_taken_for_write() {
        trim(0);
        drop(written(1024, 100..300, 0xAB));
        assert_eq!(pooled_pages(), 1);
        // Recycling scrubs nothing: the stale page comes back with the
        // extent it was dropped with.
        let stale = take(1024);
        assert_eq!(stale.dirty(), 100..300);
        assert!(stale.bytes()[100..300].iter().all(|&b| b == 0xAB));
        drop(stale);
        // Taken for a write of nothing, it comes back all-zero.
        let again = take_for_write(1024, 0..0);
        assert_eq!(again.bytes().len(), 1024);
        assert!(again.dirty().is_empty());
        assert!(
            again.bytes().iter().all(|&b| b == 0),
            "zeroed page not zero"
        );
    }

    #[test]
    fn a_write_clears_only_the_old_extent_outside_itself() {
        drop(written(1024, 100..300, 0xAB));
        let mut page = take_for_write(1024, 200..400);
        // Outside the coming write, nothing stale is left; inside it
        // the old bytes stand until the caller overwrites them.
        assert!(page.bytes()[..200].iter().all(|&b| b == 0));
        assert!(page.bytes()[400..].iter().all(|&b| b == 0));
        assert!(page.bytes()[200..300].iter().all(|&b| b == 0xAB));
        assert_eq!(page.dirty(), 200..300);
        page.write_window(1024, 200..400).0[200..400].fill(1);
        assert_eq!(page.dirty(), 200..400);
    }

    #[test]
    fn clear_fills_only_the_extent_and_shrinks_it_from_either_end() {
        let mut page = written(1024, 100..300, 7);
        page.clear(0..150);
        assert_eq!(page.dirty(), 150..300);
        page.clear(250..1024);
        assert_eq!(page.dirty(), 150..250);
        // A hole inside the extent zeroes but cannot shrink it.
        page.clear(180..200);
        assert_eq!(page.dirty(), 150..250);
        assert!(page.bytes()[180..200].iter().all(|&b| b == 0));
        page.clear(0..1024);
        assert!(page.dirty().is_empty());
        assert!(page.bytes().iter().all(|&b| b == 0));
        // Clearing a clean page, or a range beside the extent, is free.
        page.clear(0..1024);
        assert!(page.dirty().is_empty());
    }

    #[test]
    fn sizes_are_kept_apart() {
        let a = take_for_write(512, 0..0);
        let b = take_for_write(2048, 0..0);
        drop((a, b));
        assert_eq!(take_for_write(512, 0..0).bytes().len(), 512);
        assert_eq!(take_for_write(2048, 0..0).bytes().len(), 2048);
    }

    #[test]
    fn shared_storage_copies_only_for_a_partial_write_and_pools_at_its_last_drop() {
        trim(0);
        let mut page = written(1024, 100..300, 5);
        let share = page.clone();
        // A write inside the extent keeps the rest of it: copy.
        let (bytes, copied) = page.write_window(1024, 150..160);
        bytes[150..160].fill(9);
        assert!(copied);
        assert!(share.bytes()[150..160].iter().all(|&b| b == 5));
        assert_eq!(page.dirty(), 100..300);
        assert!(page.bytes()[100..150].iter().all(|&b| b == 5));
        // A write over the whole extent replaces it: no copy.
        let other = page.clone();
        let (bytes, copied) = page.write_window(1024, 0..1024);
        bytes.fill(1);
        assert!(!copied);
        assert!(other.bytes()[150..160].iter().all(|&b| b == 9));
        // Neither shared page is pooled while a holder is left.
        let pooled = pooled_pages();
        drop(share);
        assert_eq!(pooled_pages(), pooled + 1, "last holder pools it");
        // Clearing a shared extent drops the share without a copy.
        let mut other = other;
        let held = other.clone();
        assert!(!other.clear(0..1024));
        assert!(!other.is_backed());
        assert_eq!(pooled_pages(), pooled + 1, "still held");
        drop(held);
        assert_eq!(pooled_pages(), pooled + 2);
    }
}
