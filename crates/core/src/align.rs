//! Input alignment and reverse copyout (paper Section 5.2, Figure 2).
//!
//! With emulated copy semantics Genie inputs data into system buffers
//! that start at the same page offsets and have the same lengths as
//! the corresponding application buffers, so pages can be swapped even
//! when the application buffer is not page-aligned. Partially filled
//! pages are passed by **reverse copyout**: data at or below the
//! threshold is copied out; longer data is completed with the
//! surrounding application bytes and the pages are swapped.
//!
//! This module computes the per-page plan; the input path executes it.

/// What to do with one page of an aligned system buffer at dispose
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageAction {
    /// Copy the data portion out to the application page.
    CopyOut,
    /// Complete the system page with application bytes outside the
    /// data portion, then swap the pages: `fill_prefix` bytes before
    /// the data and `fill_suffix` bytes after it.
    FillAndSwap {
        /// Bytes to copy from the app page into `[0, data_start)`.
        fill_prefix: usize,
        /// Bytes to copy from the app page into `[data_end, page_size)`.
        fill_suffix: usize,
    },
    /// The page is entirely data: swap it without any copying.
    SwapWhole,
}

/// Plan for one page of an aligned input buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagePlan {
    /// Index of the page within the buffer's page span.
    pub page: usize,
    /// Byte offset of the data within this page.
    pub data_start: usize,
    /// Bytes of data in this page.
    pub data_len: usize,
    /// The action to take.
    pub action: PageAction,
}

/// Computes the reverse-copyout plan for an aligned input buffer, one
/// [`PagePlan`] per page in page order. The plan is computed lazily:
/// the input path executes it without materializing a list.
///
/// `page_off` is the buffer's offset within its first page (the
/// preferred alignment, e.g. the unstripped header length), `len` the
/// buffer length, and `threshold` the reverse-copyout threshold (data
/// at or below it is copied; above it, filled and swapped).
pub fn plan_aligned_input(
    page_size: usize,
    page_off: usize,
    len: usize,
    threshold: usize,
) -> AlignedPlan {
    assert!(page_off < page_size, "offset must be within a page");
    AlignedPlan {
        page_size,
        threshold,
        remaining: len,
        page: 0,
        start: page_off,
    }
}

/// The page-by-page plan returned by [`plan_aligned_input`].
#[derive(Clone, Debug)]
pub struct AlignedPlan {
    page_size: usize,
    threshold: usize,
    /// Data bytes not yet planned.
    remaining: usize,
    /// Index of the next page.
    page: usize,
    /// Data offset within the next page.
    start: usize,
}

impl Iterator for AlignedPlan {
    type Item = PagePlan;

    fn next(&mut self) -> Option<PagePlan> {
        if self.remaining == 0 {
            return None;
        }
        let (page_size, start) = (self.page_size, self.start);
        let data_len = self.remaining.min(page_size - start);
        let action = if start == 0 && data_len == page_size {
            PageAction::SwapWhole
        } else if data_len <= self.threshold {
            PageAction::CopyOut
        } else {
            PageAction::FillAndSwap {
                fill_prefix: start,
                fill_suffix: page_size - start - data_len,
            }
        };
        let plan = PagePlan {
            page: self.page,
            data_start: start,
            data_len,
            action,
        };
        self.remaining -= data_len;
        self.start = 0;
        self.page += 1;
        Some(plan)
    }
}

/// Aggregate cost-relevant totals of a plan: (bytes copied out or used
/// as fill, pages swapped, bytes carried by swapped pages).
pub fn plan_totals(plans: impl IntoIterator<Item = PagePlan>) -> (usize, usize, usize) {
    let mut copied = 0usize;
    let mut swapped_pages = 0usize;
    let mut swapped_bytes = 0usize;
    for p in plans {
        match p.action {
            PageAction::CopyOut => copied += p.data_len,
            PageAction::FillAndSwap {
                fill_prefix,
                fill_suffix,
            } => {
                copied += fill_prefix + fill_suffix;
                swapped_pages += 1;
                swapped_bytes += p.data_len;
            }
            PageAction::SwapWhole => {
                swapped_pages += 1;
                swapped_bytes += p.data_len;
            }
        }
    }
    (copied, swapped_pages, swapped_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;
    const T: usize = 2178;

    fn plan(page_off: usize, len: usize) -> Vec<PagePlan> {
        plan_aligned_input(PAGE, page_off, len, T).collect()
    }

    #[test]
    fn page_aligned_multiple_swaps_everything() {
        let plans = plan(0, 3 * PAGE);
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|p| p.action == PageAction::SwapWhole));
        let (copied, swapped, bytes) = plan_totals(plans.iter().copied());
        assert_eq!((copied, swapped, bytes), (0, 3, 3 * PAGE));
    }

    #[test]
    fn short_data_is_copied_out() {
        let plans = plan(0, T);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].action, PageAction::CopyOut);
    }

    #[test]
    fn long_partial_page_is_filled_and_swapped() {
        let plans = plan(0, T + 1);
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0].action,
            PageAction::FillAndSwap {
                fill_prefix: 0,
                fill_suffix: PAGE - T - 1
            }
        );
    }

    #[test]
    fn figure2_example_mixed_pages() {
        // An unaligned buffer: header-offset start, several full pages,
        // a short tail (paper Figure 2: item 1 copied out, items 3 and
        // 4 filled and swapped).
        let off = 16;
        let len = 3 * PAGE;
        let plans = plan(off, len);
        assert_eq!(plans.len(), 4);
        // First page holds PAGE-16 bytes > threshold: fill prefix 16.
        assert_eq!(
            plans[0].action,
            PageAction::FillAndSwap {
                fill_prefix: 16,
                fill_suffix: 0
            }
        );
        // Middle pages are whole.
        assert_eq!(plans[1].action, PageAction::SwapWhole);
        assert_eq!(plans[2].action, PageAction::SwapWhole);
        // Tail holds 16 bytes <= threshold: copied out.
        assert_eq!(plans[3].action, PageAction::CopyOut);
        assert_eq!(plans[3].data_len, 16);
    }

    #[test]
    fn totals_account_every_data_byte_exactly_once() {
        for (off, len) in [(0usize, 1usize), (100, 5000), (4000, 10_000), (16, 61_440)] {
            let plans = plan(off, len);
            let data_total: usize = plans.iter().map(|p| p.data_len).sum();
            assert_eq!(data_total, len, "off={off} len={len}");
            let (_, _, swapped_bytes) = plan_totals(plans.iter().copied());
            let copied_data: usize = plans
                .iter()
                .filter(|p| p.action == PageAction::CopyOut)
                .map(|p| p.data_len)
                .sum();
            assert_eq!(copied_data + swapped_bytes, len);
        }
    }

    #[test]
    fn threshold_just_above_half_page_minimizes_copying() {
        // At the paper's threshold, a worst-case page never copies more
        // than ~half a page (either data <= 2178 copied, or fill
        // <= PAGE - 2179 copied).
        for data_len in 1..=PAGE {
            let plans = plan(0, data_len);
            let (copied, _, _) = plan_totals(plans.iter().copied());
            assert!(copied <= T, "data_len={data_len} copied={copied}");
        }
    }

    #[test]
    #[should_panic(expected = "offset must be within a page")]
    fn offset_beyond_page_panics() {
        let _ = plan_aligned_input(PAGE, PAGE, 10, T);
    }
}
