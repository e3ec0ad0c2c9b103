//! Page storage with dirty extents, and its thread-local recycling pool.
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
//! Experiment sweeps build and drop hundreds of worlds, so the next
//! world on the same thread reuses those pages instead of asking the
//! allocator (and the OS) for fresh ones. The pool is thread-local, so
//! parallel sweep workers never contend, and it is keyed by page size
//! (machines differ).

use core::ops::Range;
use std::cell::RefCell;

/// Upper bound on pooled pages per page size per thread (64 MB of
/// 4 KB pages): enough for two default worlds, a backstop against
/// unbounded growth if an experiment builds an unusually large world.
const MAX_POOLED_PAGES: usize = 16384;

/// Page storage and its dirty extent `lo..hi`: no byte outside it is
/// nonzero (`lo >= hi`: the page is all-zero). The default value has
/// no storage at all.
#[derive(Clone, Debug, Default)]
pub(crate) struct Page {
    bytes: Box<[u8]>,
    lo: u32,
    hi: u32,
}

impl Page {
    /// A freshly allocated all-zero page.
    fn fresh(size: usize) -> Page {
        Page {
            bytes: vec![0u8; size].into_boxed_slice(),
            ..Page::default()
        }
    }

    /// True if this holds page storage.
    pub(crate) fn is_backed(&self) -> bool {
        !self.bytes.is_empty()
    }

    /// The page bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The dirty extent (empty for an all-zero page).
    #[cfg(test)]
    pub(crate) fn dirty(&self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }

    /// The page bytes, for a write confined to `range`: the extent
    /// widens to cover it.
    pub(crate) fn write_window(&mut self, range: Range<usize>) -> &mut [u8] {
        if !range.is_empty() {
            let (lo, hi) = (range.start as u32, range.end as u32);
            if self.lo >= self.hi {
                (self.lo, self.hi) = (lo, hi);
            } else {
                (self.lo, self.hi) = (self.lo.min(lo), self.hi.max(hi));
            }
        }
        &mut self.bytes
    }

    /// Zeroes `range`, filling only where it meets the extent, and
    /// shrinks the extent when `range` covers either end of it.
    pub(crate) fn clear(&mut self, range: Range<usize>) {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        let (a, b) = (range.start.max(lo), range.end.min(hi));
        if a >= b {
            return;
        }
        self.bytes[a..b].fill(0);
        if (a, b) == (lo, hi) {
            (self.lo, self.hi) = (0, 0);
        } else if a == lo {
            self.lo = b as u32;
        } else if b == hi {
            self.hi = a as u32;
        }
    }

    /// Zeroes the whole dirty extent, leaving an all-zero page.
    pub(crate) fn clear_all(&mut self) {
        self.clear(0..self.bytes.len());
    }

    /// Zeroes everything outside `keep`, which the caller is about to
    /// overwrite in full: only the extent's parts beyond `keep` fill.
    fn clear_outside(&mut self, keep: Range<usize>) {
        self.clear(keep.end..self.bytes.len());
        self.clear(0..keep.start);
    }
}

/// Recycled pages for one page size.
struct SizeClass {
    size: usize,
    pages: Vec<Page>,
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
fn with_class<T>(size: usize, f: impl FnOnce(&mut SizeClass) -> T) -> T {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
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
    })
}

/// Takes a page of `size` bytes with its old extent, reusing recycled
/// storage when available.
///
/// A fresh page also grows the stash's capacity to every page in
/// circulation (up to the cap), so returning pages never reallocates:
/// zeroing a frame on the warm path hands its page back here without
/// touching the allocator.
fn take(size: usize) -> Page {
    with_class(size, |c| {
        c.out += 1;
        c.pages.pop().unwrap_or_else(|| {
            c.pages.reserve(c.out.min(MAX_POOLED_PAGES));
            Page::fresh(size)
        })
    })
}

/// Takes storage for a write that will overwrite all of `keep`: the
/// most recently returned page of `size` bytes, else a fresh one. Only
/// the old extent's bytes outside `keep` are zeroed.
pub(crate) fn take_for_write(size: usize, keep: Range<usize>) -> Page {
    let mut page = take(size);
    page.clear_outside(keep);
    page
}

/// Returns page storage, extent and all, to the pool (dropped on the
/// floor once the per-size cap is reached). Nothing is scrubbed: the
/// next taker clears what it needs to.
pub(crate) fn recycle(page: Page) {
    if !page.is_backed() {
        return;
    }
    with_class(page.bytes.len(), |c| {
        c.out = c.out.saturating_sub(1);
        if c.pages.len() < MAX_POOLED_PAGES {
            c.pages.push(page);
        }
    })
}

/// Pages currently pooled on this thread, across all size classes.
#[cfg(test)]
pub(crate) fn pooled_pages() -> usize {
    POOL.with(|p| p.borrow().iter().map(|c| c.pages.len()).sum())
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
        let mut page = take_for_write(size, range.clone());
        page.write_window(range.clone())[range].fill(fill);
        page
    }

    #[test]
    fn pool_trim_releases_excess_and_reports_residency() {
        trim(0);
        let pages: Vec<_> = (0..8).map(|_| take_for_write(256, 0..0)).collect();
        for p in pages {
            recycle(p);
        }
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
        recycle(written(1024, 100..300, 0xAB));
        assert_eq!(pooled_pages(), 1);
        // Recycling scrubs nothing: the stale page comes back with the
        // extent it was dropped with.
        let stale = take(1024);
        assert_eq!(stale.dirty(), 100..300);
        assert!(stale.bytes()[100..300].iter().all(|&b| b == 0xAB));
        recycle(stale);
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
        recycle(written(1024, 100..300, 0xAB));
        let mut page = take_for_write(1024, 200..400);
        // Outside the coming write, nothing stale is left; inside it
        // the old bytes stand until the caller overwrites them.
        assert!(page.bytes()[..200].iter().all(|&b| b == 0));
        assert!(page.bytes()[400..].iter().all(|&b| b == 0));
        assert!(page.bytes()[200..300].iter().all(|&b| b == 0xAB));
        assert_eq!(page.dirty(), 200..300);
        page.write_window(200..400)[200..400].fill(1);
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
        recycle(a);
        recycle(b);
        assert_eq!(take_for_write(512, 0..0).bytes().len(), 512);
        assert_eq!(take_for_write(2048, 0..0).bytes().len(), 2048);
    }
}
