//! Genie configuration: thresholds and optional checksumming.

/// Checksum handling (paper Section 9 discussion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChecksumMode {
    /// No checksumming (the configuration of all measured figures).
    None,
    /// Pass data by VM manipulation, then make a separate read pass to
    /// checksum it (the scheme the paper reports costs less for long
    /// data than one-step copy-and-checksum).
    Separate,
    /// Integrate checksumming with the data copy (one-step); only
    /// meaningful on paths that copy, and — as the paper notes — it
    /// degrades input to weak semantics because a bad checksum is
    /// detected only after the application buffer was overwritten.
    Integrated,
}

/// Tunable parameters of the Genie framework.
///
/// The defaults are the paper's empirically chosen settings
/// (Section 7): output shorter than 1666 bytes with emulated copy, or
/// 280 bytes with emulated share, is converted to copy semantics; the
/// reverse-copyout threshold is 2178 bytes, just above half a 4 KB
/// page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenieConfig {
    /// Below this output length, emulated copy converts to copy.
    pub emulated_copy_output_threshold: usize,
    /// Below this output length, emulated share converts to copy.
    pub emulated_share_output_threshold: usize,
    /// Data in a system page at or below this length is copied out;
    /// longer data is reverse-copied-out (fill + swap).
    pub reverse_copyout_threshold: usize,
    /// Checksum handling.
    pub checksum: ChecksumMode,
    /// Overlay pool size in pages for pooled in-host buffering.
    pub overlay_pool_pages: usize,
}

impl Default for GenieConfig {
    fn default() -> Self {
        GenieConfig {
            emulated_copy_output_threshold: 1666,
            emulated_share_output_threshold: 280,
            reverse_copyout_threshold: 2178,
            checksum: ChecksumMode::None,
            overlay_pool_pages: 64,
        }
    }
}

impl GenieConfig {
    /// Scales the reverse-copyout threshold for a machine's page size
    /// ("just above half the page size", Section 5.2).
    pub fn reverse_copyout_threshold_for(&self, page_size: usize) -> usize {
        if page_size == 4096 {
            self.reverse_copyout_threshold
        } else {
            // Keep the same fraction of the page as the default keeps
            // of a 4 KB page.
            self.reverse_copyout_threshold * page_size / 4096
        }
    }

    /// Disables all copy-conversion thresholds (used by exhibits and
    /// tests that want the pure semantics at every size).
    pub fn without_thresholds(mut self) -> Self {
        self.emulated_copy_output_threshold = 0;
        self.emulated_share_output_threshold = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = GenieConfig::default();
        assert_eq!(c.emulated_copy_output_threshold, 1666);
        assert_eq!(c.emulated_share_output_threshold, 280);
        assert_eq!(c.reverse_copyout_threshold, 2178);
        assert_eq!(c.checksum, ChecksumMode::None);
    }

    #[test]
    fn reverse_copyout_threshold_scales_with_page_size() {
        let c = GenieConfig::default();
        assert_eq!(c.reverse_copyout_threshold_for(4096), 2178);
        let t8k = c.reverse_copyout_threshold_for(8192);
        assert!(t8k > 8192 / 2 && t8k < 8192, "threshold {t8k}");
    }

    #[test]
    fn without_thresholds_disables_conversion() {
        let c = GenieConfig::default().without_thresholds();
        assert_eq!(c.emulated_copy_output_threshold, 0);
        assert_eq!(c.emulated_share_output_threshold, 0);
    }
}
