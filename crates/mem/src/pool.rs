//! Thread-local recycling pool for frame page storage.
//!
//! A frame gets page storage on its first write (unwritten frames read
//! as one shared zero page), and dropping a `PhysMem` returns every
//! written page here. Experiment sweeps build and drop hundreds of
//! worlds, so the next world on the same thread reuses those pages
//! instead of asking the allocator (and the OS) for fresh ones.
//!
//! Invariant: every pooled page is all-zero. [`recycle`] scrubs dirty
//! pages on the way in, so [`take_zeroed`] hands pages out with no
//! fill. The pool is thread-local, so parallel sweep workers never
//! contend, and it is keyed by page size (machines differ).

use std::cell::RefCell;

/// Upper bound on pooled pages per page size per thread (64 MB of
/// 4 KB pages): enough for two default worlds, a backstop against
/// unbounded growth if an experiment builds an unusually large world.
const MAX_POOLED_PAGES: usize = 16384;

/// Recycled pages for one page size.
type SizeClass = (usize, Vec<Box<[u8]>>);

thread_local! {
    /// Recycled page storage, grouped by page size (at most a couple
    /// of distinct sizes, so a flat list beats a map).
    static POOL: RefCell<Vec<SizeClass>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zero-filled page of `page_size` bytes, reusing recycled
/// storage when available.
///
/// Pool invariant: every stored page is all-zero ([`recycle`] scrubs
/// dirty pages on the way in), so no fill is needed here.
pub(crate) fn take_zeroed(page_size: usize) -> Box<[u8]> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if let Some((_, stash)) = pool.iter_mut().find(|(s, _)| *s == page_size) {
            if let Some(page) = stash.pop() {
                debug_assert!(page.iter().all(|&b| b == 0), "pooled page not zero");
                return page;
            }
        }
        vec![0u8; page_size].into_boxed_slice()
    })
}

/// Returns page storage to the pool (dropped on the floor once the
/// per-size cap is reached). `dirty` is the owning frame's write
/// tracking: pages that may hold data are scrubbed before storage so
/// the pool only ever holds zero pages, and clean pages skip the
/// scrub entirely.
pub(crate) fn recycle(page: Box<[u8]>, dirty: bool) {
    if page.is_empty() {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let stash = match pool.iter_mut().find(|(s, _)| *s == page.len()) {
            Some((_, stash)) => stash,
            None => {
                let size = page.len();
                pool.push((size, Vec::new()));
                &mut pool.last_mut().expect("just pushed").1
            }
        };
        if stash.len() < MAX_POOLED_PAGES {
            let mut page = page;
            if dirty {
                page.fill(0);
            }
            stash.push(page);
        }
    })
}

/// Pages currently pooled on this thread, across all size classes.
pub fn pooled_pages() -> usize {
    POOL.with(|p| p.borrow().iter().map(|(_, stash)| stash.len()).sum())
}

/// Trims this thread's pool to at most `keep` pages per size class,
/// returning the excess storage to the allocator (and shrinking the
/// stash vectors themselves). Returns the number of pages released.
/// Long-lived processes call this between large runs so the high-water
/// mark of one world does not stay resident for the rest of the
/// process's life.
pub fn trim(keep: usize) -> usize {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut freed = 0;
        for (_, stash) in pool.iter_mut() {
            if stash.len() > keep {
                freed += stash.len() - keep;
                stash.truncate(keep);
                stash.shrink_to_fit();
            }
        }
        freed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_trim_releases_excess_and_reports_residency() {
        trim(0);
        let pages: Vec<_> = (0..8).map(|_| take_zeroed(256)).collect();
        for p in pages {
            recycle(p, false);
        }
        assert!(pooled_pages() >= 8);
        let freed = trim(2);
        assert!(freed >= 6, "freed {freed}");
        assert!(pooled_pages() <= 2 * 2, "per size class cap");
        trim(0);
        assert_eq!(pooled_pages(), 0);
    }

    #[test]
    fn recycled_page_comes_back_zeroed() {
        let mut page = take_zeroed(1024);
        page.fill(0xAB);
        recycle(page, true);
        let again = take_zeroed(1024);
        assert_eq!(again.len(), 1024);
        assert!(again.iter().all(|&b| b == 0), "recycled page not scrubbed");
    }

    #[test]
    fn clean_recycling_round_trips_zero_pages() {
        let page = take_zeroed(1024);
        recycle(page, false);
        let again = take_zeroed(1024);
        assert!(again.iter().all(|&b| b == 0));
    }

    #[test]
    fn sizes_are_kept_apart() {
        let a = take_zeroed(512);
        let b = take_zeroed(2048);
        recycle(a, false);
        recycle(b, false);
        assert_eq!(take_zeroed(512).len(), 512);
        assert_eq!(take_zeroed(2048).len(), 2048);
    }
}
