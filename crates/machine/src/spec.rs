//! Machine specifications (the paper's Table 5).
//!
//! A [`MachineSpec`] captures everything the cost model needs to derive
//! primitive-operation costs for a platform: the CPU integer rating
//! (SPECint95), L1/L2/main-memory copy bandwidths as measured by a
//! user-level `bcopy` benchmark, and the VM page size.
//!
//! Two extra knobs model the caveats the paper itself raises about
//! cross-platform scaling (Section 8 and Table 8):
//!
//! - `cpu_derate`: the published SPECint ratings for the Gateway P5-90
//!   and the AlphaStation were *upper bounds* (taken from faster
//!   sibling machines, or from un-optimized builds); the effective
//!   integer speed is the rating times this factor.
//! - `pte_factor` and `op_skew`: "the cost of page table updates may
//!   scale otherwise between processors of different architecture" —
//!   page-table-touching operations carry an extra architecture factor,
//!   and per-operation skew models residual architectural divergence.

/// Deterministic per-operation cost skew for a platform.
///
/// Models the paper's observation that on a machine of a different
/// architecture (the AlphaStation), per-operation costs diverge from a
/// single SPECint ratio with substantial variance (Table 8). The skew
/// multiplies each CPU-dominated cost by a deterministic factor in
/// `[1/(1+spread), 1+spread]` derived from a hash of the operation id
/// and `seed`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpSkew {
    /// Hash seed; distinct platforms use distinct seeds.
    pub seed: u64,
    /// Half-width of the skew band; `0.0` disables skew.
    pub spread: f64,
}

impl OpSkew {
    /// No skew: every operation scales exactly with SPECint.
    pub const NONE: OpSkew = OpSkew {
        seed: 0,
        spread: 0.0,
    };

    /// Multiplicative factor for operation id `op_id`.
    pub fn factor(&self, op_id: u32) -> f64 {
        if self.spread == 0.0 {
            return 1.0;
        }
        // SplitMix64 finalizer over (seed, op_id); deterministic and
        // well distributed for small consecutive ids.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(op_id) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Map to [-1, 1].
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let s = 2.0 * u - 1.0;
        // Symmetric in log space so the geometric mean stays ~1.
        (1.0 + self.spread).powf(s)
    }
}

/// Characteristics of one experimental platform (paper Table 5).
///
/// Bandwidths are in Mbit/s, matching the paper's `bcopy`-benchmark
/// peak figures.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Human-readable platform name.
    pub name: &'static str,
    /// SPECint95 integer rating (possibly an upper bound; see
    /// [`MachineSpec::cpu_derate`]).
    pub specint95: f64,
    /// Fraction of the rating actually delivered (1.0 when the rating
    /// was measured on this exact machine).
    pub cpu_derate: f64,
    /// L1 data-cache size in bytes.
    pub l1d_bytes: usize,
    /// Peak L1 copy bandwidth, Mbit/s.
    pub l1_bw_mbps: f64,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// Peak L2 copy bandwidth, Mbit/s.
    pub l2_bw_mbps: f64,
    /// Main memory size in bytes.
    pub mem_bytes: usize,
    /// Peak main-memory copy bandwidth, Mbit/s.
    pub mem_bw_mbps: f64,
    /// VM page size in bytes (4 KB on the Pentiums, 8 KB on the Alpha).
    pub page_size: usize,
    /// Relative cost of page-table updates vs. the base architecture.
    pub pte_factor: f64,
    /// Relative per-page cost of VM operations vs. the base
    /// architecture (TLB/PTE/cache-line manipulation per page does not
    /// scale with SPECint; on the 21064A it was disproportionately
    /// expensive).
    pub per_page_factor: f64,
    /// Per-operation architectural skew.
    pub op_skew: OpSkew,
}

impl MachineSpec {
    /// The Micron P166 (Pentium 166 MHz) — the paper's base platform.
    ///
    /// All figures and tables in the paper's Section 7 refer to this
    /// machine unless noted otherwise; the cost model is calibrated so
    /// this spec reproduces Table 6.
    pub fn micron_p166() -> Self {
        MachineSpec {
            name: "Micron P166",
            specint95: 4.52,
            cpu_derate: 1.0,
            l1d_bytes: 8 * 1024,
            l1_bw_mbps: 3560.0,
            l2_bytes: 256 * 1024,
            l2_bw_mbps: 486.0,
            mem_bytes: 32 * 1024 * 1024,
            mem_bw_mbps: 351.0,
            page_size: 4096,
            pte_factor: 1.0,
            per_page_factor: 1.0,
            op_skew: OpSkew::NONE,
        }
    }

    /// The Gateway P5-90 (Pentium 90 MHz).
    ///
    /// Its SPECint95 is an upper bound (listed value of the Dell XPS 90,
    /// which has a bigger and faster L2 cache), hence `cpu_derate < 1`
    /// and a mild per-operation skew: the paper's Table 8 measures
    /// CPU-dominated ratios of 1.53–2.59 against an estimated lower
    /// bound of 1.57.
    pub fn gateway_p5_90() -> Self {
        MachineSpec {
            name: "Gateway P5-90",
            specint95: 2.88,
            cpu_derate: 0.88,
            l1d_bytes: 8 * 1024,
            l1_bw_mbps: 1910.0,
            l2_bytes: 256 * 1024,
            l2_bw_mbps: 244.0,
            mem_bytes: 32 * 1024 * 1024,
            mem_bw_mbps: 146.0,
            page_size: 4096,
            pte_factor: 1.0,
            per_page_factor: 1.0,
            op_skew: OpSkew {
                seed: 0x5a5a_1234,
                spread: 0.18,
            },
        }
    }

    /// The DEC AlphaStation 255/233 (21064A, 233 MHz).
    ///
    /// 8 KB pages, a different page-table architecture (`pte_factor`)
    /// and a substantially different micro-architecture (wide per-op
    /// skew): the paper's Table 8 measures CPU-dominated ratios of
    /// 0.47–3.77 on this machine. Its SPECint_base95 is an upper bound
    /// because NetBSD on it could not be compiled with optimizations.
    pub fn alphastation_255() -> Self {
        MachineSpec {
            name: "AlphaStation 255/233",
            specint95: 3.48,
            cpu_derate: 0.85,
            l1d_bytes: 16 * 1024,
            l1_bw_mbps: 2860.0,
            l2_bytes: 1024 * 1024,
            l2_bw_mbps: 1366.0,
            mem_bytes: 64 * 1024 * 1024,
            mem_bw_mbps: 350.0,
            page_size: 8192,
            pte_factor: 2.5,
            per_page_factor: 1.7,
            op_skew: OpSkew {
                seed: 0xa1fa_0255,
                spread: 1.0,
            },
        }
    }

    /// All three platforms of Table 5, base platform first.
    pub fn all() -> Vec<Self> {
        vec![
            Self::micron_p166(),
            Self::gateway_p5_90(),
            Self::alphastation_255(),
        ]
    }

    /// Effective integer speed (rating times derate).
    pub fn effective_specint(&self) -> f64 {
        self.specint95 * self.cpu_derate
    }

    /// Number of pages spanned by a buffer at `offset` within a page,
    /// of length `len` bytes.
    pub fn pages_spanned(&self, offset: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let start = offset % self.page_size;
        (start + len).div_ceil(self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_presets() {
        let p166 = MachineSpec::micron_p166();
        assert_eq!(p166.page_size, 4096);
        assert_eq!(p166.specint95, 4.52);
        let alpha = MachineSpec::alphastation_255();
        assert_eq!(alpha.page_size, 8192);
        assert_eq!(alpha.l2_bytes, 1024 * 1024);
        assert_eq!(MachineSpec::all().len(), 3);
    }

    #[test]
    fn pages_spanned_handles_offsets() {
        let m = MachineSpec::micron_p166();
        assert_eq!(m.pages_spanned(0, 0), 0);
        assert_eq!(m.pages_spanned(0, 1), 1);
        assert_eq!(m.pages_spanned(0, 4096), 1);
        assert_eq!(m.pages_spanned(0, 4097), 2);
        assert_eq!(m.pages_spanned(4095, 2), 2);
        assert_eq!(m.pages_spanned(8192 + 100, 4096), 2);
    }

    #[test]
    fn skew_is_deterministic_and_bounded() {
        let skew = OpSkew {
            seed: 42,
            spread: 1.0,
        };
        for op in 0..32u32 {
            let f1 = skew.factor(op);
            let f2 = skew.factor(op);
            assert_eq!(f1, f2, "skew must be deterministic");
            assert!((0.5..=2.0).contains(&f1), "factor {f1} out of band");
        }
    }

    #[test]
    fn skew_none_is_identity() {
        for op in 0..8u32 {
            assert_eq!(OpSkew::NONE.factor(op), 1.0);
        }
    }

    #[test]
    fn skew_geometric_mean_near_one() {
        let skew = OpSkew {
            seed: 7,
            spread: 1.0,
        };
        let log_sum: f64 = (0..256u32).map(|op| skew.factor(op).ln()).sum();
        let gm = (log_sum / 256.0).exp();
        assert!(
            (0.85..=1.15).contains(&gm),
            "geometric mean {gm} drifted from 1"
        );
    }
}
