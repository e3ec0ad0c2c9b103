//! Primitive data-passing operations and their cost model.
//!
//! The paper's Table 6 reports, for the Micron P166, a least-squares
//! linear fit `cost(B) = slope * B + fixed` for every primitive
//! data-passing operation. Its Section 8 then classifies each
//! parameter as network-, memory-, cache- or CPU-dominated and derives
//! how it scales with machine characteristics.
//!
//! This module implements that model directly. Every [`Op`] carries a
//! calibration entry — fixed cost in microseconds and per-unit cost in
//! microseconds (per 4 KB page for VM operations, per ATM cell for
//! adapter operations, per byte for memory/cache operations), all
//! expressed on the *base platform* (the Micron P166) — plus its
//! scaling class [`OpKind`]. [`CostModel`] maps those to any
//! [`MachineSpec`]:
//!
//! - CPU-dominated costs scale inversely with effective SPECint95;
//! - page-table-update costs additionally carry the machine's
//!   `pte_factor` on part of their per-page work;
//! - memory-dominated costs scale inversely with main-memory copy
//!   bandwidth;
//! - cache-dominated costs (copyin on warm caches) follow a piecewise
//!   L1/L2 model, which yields the negative y-intercept the paper
//!   observes in the copyin fit;
//! - device costs do not scale with the host CPU.

use crate::spec::MachineSpec;
use crate::time::SimTime;

/// Scaling class of a primitive operation (paper Section 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// CPU-dominated: scales inversely with effective SPECint95.
    Cpu,
    /// CPU-dominated, but the per-page part updates page-table entries
    /// and additionally carries the machine's `pte_factor`.
    CpuPte,
    /// Memory-dominated: per-byte cost is `coeff / mem_bw`.
    Memory,
    /// Cache-dominated: piecewise L1/L2 copy model (copyin).
    Cache,
    /// Device/adapter work: independent of the host CPU.
    Device,
}

/// Fraction of a page-table op's per-page work that is the PTE update
/// itself (and thus scales with `pte_factor`).
const PTE_SHARE: f64 = 0.45;

/// Bytes copied at L1 speed before the copy source spills to L2 in the
/// warm-cache copyin model. Chosen so the linear fit of copyin over
/// page-multiple sizes reproduces the paper's −3 µs intercept.
const COPYIN_L1_BYTES: f64 = 192.0;

/// Base-platform effective SPECint95 (Micron P166).
const BASE_SPECINT: f64 = 4.52;

macro_rules! ops {
    ($( $(#[$doc:meta])* $name:ident = ($fixed:expr, $per_unit:expr, $kind:ident); )+) => {
        /// A primitive data-passing operation (paper Tables 2–4 and 6).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u32)]
        pub enum Op {
            $( $(#[$doc])* $name, )+
        }

        impl Op {
            /// Every operation, in declaration order.
            pub const ALL: &'static [Op] = &[ $( Op::$name, )+ ];

            /// Calibration entry `(fixed_us, per_unit_us, kind)` on the
            /// base platform.
            pub const fn params(self) -> (f64, f64, OpKind) {
                match self {
                    $( Op::$name => ($fixed, $per_unit, OpKind::$kind), )+
                }
            }

            /// Stable short name for reports.
            pub const fn name(self) -> &'static str {
                match self {
                    $( Op::$name => stringify!($name), )+
                }
            }
        }
    };
}

ops! {
    /// Copy data from application buffer into a system buffer
    /// (output with copy semantics). Cache-dominated on warm caches.
    Copyin = (0.0, 1.0935, Cache);
    /// Copy data from a system buffer out to the application buffer
    /// (input with copy semantics). Memory-dominated.
    Copyout = (15.0, 0.96525, Memory);
    /// Zero-fill the unused part of a page (move-semantics protection).
    ZeroFill = (0.0, 1.0, Memory);
    /// Physically copy one page (TCOW/COW fault resolution, and the
    /// input-disabled-COW fallback).
    PageCopy = (2.0, 0.96525, Memory);
    /// Prepare an I/O descriptor: translate, check access, bump
    /// per-page input/output reference counts.
    Reference = (5.0, 1.4868, Cpu);
    /// Drop per-page I/O reference counts after completion.
    Unreference = (2.0, 0.4096, Cpu);
    /// Wire a region's pages (fault in + remove from pageout lists).
    Wire = (18.0, 5.7754, Cpu);
    /// Unwire a region's pages.
    Unwire = (10.0, 0.9708, Cpu);
    /// Remove write permission from the PTEs of the output pages (TCOW).
    ReadOnly = (2.0, 1.5032, CpuPte);
    /// Remove all access permissions from a region's PTEs.
    Invalidate = (2.0, 1.5278, CpuPte);
    /// Swap pages between system buffer and application buffer
    /// (updates both the memory object and the PTEs).
    Swap = (15.0, 6.6765, CpuPte);
    /// Allocate a fresh region in an address space.
    RegionCreate = (24.0, 0.0, Cpu);
    /// Remove a region from an address space.
    RegionRemove = (20.0, 0.0, Cpu);
    /// Fill a newly created region with input pages.
    RegionFill = (9.0, 1.6302, Cpu);
    /// Fill a region from overlay pages and refill the overlay pool
    /// (move semantics over pooled input buffering).
    RegionFillOverlayRefill = (11.0, 2.9327, Cpu);
    /// Map a filled region into the application page table.
    RegionMap = (6.0, 1.9415, CpuPte);
    /// Mark a region moving/moved out and enqueue it for reuse.
    RegionMarkOut = (3.0, 0.0, Cpu);
    /// Mark a region moved in.
    RegionMarkIn = (1.0, 0.0, Cpu);
    /// Check that a cached region is still present in the address space.
    RegionCheck = (5.0, 0.0, Cpu);
    /// Fused dispose for emulated move: check region, unreference,
    /// reinstate page access, mark moved in.
    RegionCheckUnrefReinstateMarkIn = (11.0, 2.0767, CpuPte);
    /// Fused dispose for emulated weak move: check region, unreference,
    /// mark moved in.
    RegionCheckUnrefMarkIn = (6.0, 0.7946, Cpu);
    /// Allocate an overlay buffer from an I/O module's private pool.
    OverlayAllocate = (7.0, 0.0, Cpu);
    /// Attach an overlay buffer to an input request.
    Overlay = (7.0, 0.0, Cpu);
    /// Return an overlay buffer to its pool.
    OverlayDeallocate = (12.0, 1.4090, Cpu);
    /// Allocate a system buffer (copy semantics; from a kernel pool).
    SysBufAllocate = (0.3, 0.0, Cpu);
    /// Release a system buffer.
    SysBufDeallocate = (0.3, 0.0, Cpu);
    /// Allocate a system buffer aligned to the application buffer
    /// (input alignment, Section 5.2).
    AlignedBufAllocate = (0.5, 0.0, Cpu);
    /// Release an aligned system buffer.
    AlignedBufDeallocate = (0.5, 0.0, Cpu);
    /// VM write-fault entry/exit overhead (TCOW fault handling).
    Fault = (8.0, 0.0, Cpu);
    /// Fixed OS path on output: system call, socket/protocol layer.
    OsFixedSend = (40.0, 0.0, Cpu);
    /// Fixed OS path on input: interrupt dispatch, protocol, wakeup.
    OsFixedRecv = (40.0, 0.0, Cpu);
    /// Adapter/DMA fixed datapath latency at the sender.
    DeviceFixedSend = (17.5, 0.0, Device);
    /// Adapter/DMA fixed datapath latency at the receiver.
    DeviceFixedRecv = (17.5, 0.0, Device);
    /// Posting a DMA descriptor to the adapter.
    DmaSetup = (1.5, 0.0, Device);
    /// Per-cell driver/adapter housekeeping at the sender (overlapped
    /// with transmission; contributes to CPU utilization, Figure 4).
    CellTx = (0.0, 0.145, Cpu);
    /// Per-cell driver/adapter housekeeping at the receiver.
    CellRx = (0.0, 0.145, Cpu);
    /// Per-byte checksum pass over data already passed by VM
    /// manipulation (Section 9 checksum-integration ablation): a read
    /// pass at roughly half the read+write copy cost.
    ChecksumRead = (1.0, 0.5, Memory);
    /// Per-byte fused copy-and-checksum (one-step scheme, Section 9):
    /// a copy plus checksum arithmetic in the same pass.
    CopyChecksum = (15.0, 1.2, Memory);
}

impl Op {
    /// Scaling class of this operation.
    pub fn kind(self) -> OpKind {
        self.params().2
    }

    /// Stable numeric id (used for deterministic per-op skew). The
    /// enum is `repr(u32)` with default discriminants, so the id is
    /// the declaration position — no table scan needed on the charge
    /// hot path.
    pub fn id(self) -> u32 {
        self as u32
    }
}

/// Memoized cost line for one operation on one platform: every cost is
/// `fixed + n * per_unit` for some unit (pages, cells, or bytes), so
/// the platform scaling factors are folded into two constants per op
/// when the model is built, leaving the per-charge hot path a table
/// lookup and one fused multiply-add.
#[derive(Clone, Copy, Debug)]
struct CostLine {
    /// Resolved fixed cost, µs.
    fixed_us: f64,
    /// Resolved per-unit cost (µs per page/cell for CPU ops, µs per
    /// byte for memory/cache/device ops).
    per_unit_us: f64,
    kind: OpKind,
}

/// Cost model for one platform: maps `(Op, bytes, units)` to simulated
/// time according to the scaling rules above.
#[derive(Clone, Debug)]
pub struct CostModel {
    machine: MachineSpec,
    /// Per-byte cost of an L1-resident copy, µs/B (cache-op model).
    l1_us_per_byte: f64,
    /// Resolved per-op cost lines, indexed by `Op::id()`.
    lines: Vec<CostLine>,
}

impl CostModel {
    /// Builds the cost model for `machine`, resolving every op's cost
    /// line against the platform's scaling factors up front.
    pub fn new(machine: MachineSpec) -> Self {
        let cpu_ratio = BASE_SPECINT / machine.effective_specint();
        let l1_us_per_byte = 8.0 / machine.l1_bw_mbps;
        let l2_us_per_byte = 8.0 / machine.l2_bw_mbps;
        let mem_us_per_byte = 8.0 / machine.mem_bw_mbps;
        let lines = Op::ALL
            .iter()
            .map(|&op| {
                let (fixed_us, per_unit_us, kind) = op.params();
                match kind {
                    OpKind::Cpu | OpKind::CpuPte => {
                        let skew = machine.op_skew.factor(op.id());
                        // Calibration per-unit constants are per 4 KB
                        // base page; VM work is per page regardless of
                        // page size, adapter work per cell.
                        let pte_mult = if kind == OpKind::CpuPte {
                            1.0 - PTE_SHARE + PTE_SHARE * machine.pte_factor
                        } else {
                            1.0
                        };
                        CostLine {
                            fixed_us: fixed_us * cpu_ratio * skew,
                            per_unit_us: per_unit_us
                                * cpu_ratio
                                * skew
                                * pte_mult
                                * machine.per_page_factor,
                            kind,
                        }
                    }
                    OpKind::Memory => CostLine {
                        // `per_unit_us` is the dimensionless
                        // coefficient on the inverse memory bandwidth
                        // (0.96525 for copyout: 0.96525 * 8/351 = the
                        // paper's 0.0220 µs/B on P166).
                        fixed_us: fixed_us * cpu_ratio,
                        per_unit_us: per_unit_us * mem_us_per_byte,
                        kind,
                    },
                    OpKind::Cache => CostLine {
                        // `per_unit_us` becomes the coefficient on the
                        // inverse L2 bandwidth (1.0935 * 8/486 = the
                        // paper's 0.0180 µs/B).
                        fixed_us: 0.0,
                        per_unit_us: per_unit_us * l2_us_per_byte,
                        kind,
                    },
                    OpKind::Device => CostLine {
                        fixed_us,
                        per_unit_us,
                        kind,
                    },
                }
            })
            .collect();
        CostModel {
            machine,
            l1_us_per_byte,
            lines,
        }
    }

    /// The platform this model is for.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Page size of the platform, in bytes.
    pub fn page_size(&self) -> usize {
        self.machine.page_size
    }

    /// Cost of one invocation of `op` covering `bytes` bytes and
    /// `units` units (pages for VM operations, cells for adapter
    /// operations; ignored by memory/cache/byte-scaled operations).
    pub fn cost(&self, op: Op, bytes: usize, units: usize) -> SimTime {
        let line = &self.lines[op.id() as usize];
        let us = match line.kind {
            OpKind::Cpu | OpKind::CpuPte => line.fixed_us + units as f64 * line.per_unit_us,
            OpKind::Memory => line.fixed_us + bytes as f64 * line.per_unit_us,
            OpKind::Cache => {
                // Piecewise warm-cache copy: the first bytes run at L1
                // speed, the rest at the op's L2-scaled rate.
                let b = bytes as f64;
                if b <= COPYIN_L1_BYTES {
                    b * self.l1_us_per_byte
                } else {
                    COPYIN_L1_BYTES * self.l1_us_per_byte + (b - COPYIN_L1_BYTES) * line.per_unit_us
                }
            }
            OpKind::Device => line.fixed_us + bytes as f64 * line.per_unit_us,
        };
        SimTime::from_us(us)
    }

    /// Cost of `op` over a byte range, deriving the page count from the
    /// range's page span on this platform.
    pub fn cost_range(&self, op: Op, page_offset: usize, bytes: usize) -> SimTime {
        let pages = self.machine.pages_spanned(page_offset, bytes);
        self.cost(op, bytes, pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p166() -> CostModel {
        CostModel::new(MachineSpec::micron_p166())
    }

    /// Checks an op against its Table 6 fit at page-multiple sizes.
    fn assert_table6(op: Op, slope_us_per_byte: f64, fixed_us: f64) {
        let m = p166();
        for pages in [1usize, 4, 15] {
            let b = pages * 4096;
            let want = slope_us_per_byte * b as f64 + fixed_us;
            let got = m.cost(op, b, pages).as_us();
            let err = (got - want).abs() / want.max(1.0);
            assert!(
                err < 0.02,
                "{}: got {got:.2}us want {want:.2}us at {b}B",
                op.name()
            );
        }
    }

    #[test]
    fn table6_cpu_ops_reproduced_on_p166() {
        assert_table6(Op::Reference, 0.000363, 5.0);
        assert_table6(Op::Unreference, 0.000100, 2.0);
        assert_table6(Op::Wire, 0.00141, 18.0);
        assert_table6(Op::Unwire, 0.000237, 10.0);
        assert_table6(Op::ReadOnly, 0.000367, 2.0);
        assert_table6(Op::Invalidate, 0.000373, 2.0);
        assert_table6(Op::Swap, 0.00163, 15.0);
        assert_table6(Op::RegionFill, 0.000398, 9.0);
        assert_table6(Op::RegionFillOverlayRefill, 0.000716, 11.0);
        assert_table6(Op::RegionMap, 0.000474, 6.0);
        assert_table6(Op::RegionCheckUnrefReinstateMarkIn, 0.000507, 11.0);
        assert_table6(Op::RegionCheckUnrefMarkIn, 0.000194, 6.0);
        assert_table6(Op::OverlayDeallocate, 0.000344, 12.0);
    }

    #[test]
    fn table6_fixed_only_ops() {
        let m = p166();
        assert_eq!(m.cost(Op::RegionCreate, 0, 0).as_us(), 24.0);
        assert_eq!(m.cost(Op::RegionMarkOut, 0, 0).as_us(), 3.0);
        assert_eq!(m.cost(Op::RegionMarkIn, 0, 0).as_us(), 1.0);
        assert_eq!(m.cost(Op::RegionCheck, 0, 0).as_us(), 5.0);
        assert_eq!(m.cost(Op::OverlayAllocate, 0, 0).as_us(), 7.0);
    }

    #[test]
    fn copyout_matches_table6() {
        let m = p166();
        // Table 6: Copyout = 0.0220 B + 15.
        let b = 61_440usize;
        let got = m.cost(Op::Copyout, b, 15).as_us();
        let want = 0.0220 * b as f64 + 15.0;
        assert!((got - want).abs() / want < 0.01, "got {got} want {want}");
    }

    #[test]
    fn copyin_fit_has_negative_intercept() {
        // Linear fit over page multiples must give ~0.0180 B - 3.
        let m = p166();
        let b1 = 4096.0;
        let b2 = 61_440.0;
        let c1 = m.cost(Op::Copyin, 4096, 1).as_us();
        let c2 = m.cost(Op::Copyin, 61_440, 15).as_us();
        let slope = (c2 - c1) / (b2 - b1);
        let intercept = c1 - slope * b1;
        assert!((slope - 0.0180).abs() < 0.0005, "slope {slope}");
        assert!(
            (-4.0..=-2.0).contains(&intercept),
            "intercept {intercept} not ~ -3"
        );
    }

    #[test]
    fn copyin_small_data_runs_at_l1_speed() {
        let m = p166();
        let c = m.cost(Op::Copyin, 128, 1).as_us();
        // 128 B at 445 B/us is ~0.29 us; far below the L2 slope cost.
        assert!(c < 0.5, "L1-resident copyin too expensive: {c}");
    }

    #[test]
    fn cpu_ops_scale_with_specint() {
        let base = p166();
        let slow = CostModel::new(MachineSpec {
            specint95: 2.26,
            cpu_derate: 1.0,
            op_skew: crate::spec::OpSkew::NONE,
            ..MachineSpec::micron_p166()
        });
        let b = base.cost(Op::Reference, 8192, 2);
        let s = slow.cost(Op::Reference, 8192, 2);
        let ratio = s.as_us() / b.as_us();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn memory_ops_scale_with_memory_bandwidth() {
        let base = p166();
        let gateway = CostModel::new(MachineSpec::gateway_p5_90());
        let b = 61_440usize;
        let rb = base.cost(Op::Copyout, b, 15).as_us() - 15.0 * 1.0;
        let rg = gateway.cost(Op::Copyout, b, 15).as_us() - 15.0 * (4.52 / (2.88 * 0.88));
        let ratio = rg / rb;
        // 351/146 = 2.404.
        assert!((ratio - 2.404).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn pte_factor_raises_pte_op_cost_only() {
        let mut spec = MachineSpec::micron_p166();
        spec.pte_factor = 3.0;
        let pte_heavy = CostModel::new(spec);
        let base = p166();
        let swap_ratio =
            pte_heavy.cost(Op::Swap, 61_440, 15).as_us() / base.cost(Op::Swap, 61_440, 15).as_us();
        let ref_ratio = pte_heavy.cost(Op::Reference, 61_440, 15).as_us()
            / base.cost(Op::Reference, 61_440, 15).as_us();
        assert!(swap_ratio > 1.5, "swap should get pricier: {swap_ratio}");
        assert!(
            (ref_ratio - 1.0).abs() < 1e-9,
            "reference must not: {ref_ratio}"
        );
    }

    #[test]
    fn device_ops_do_not_scale_with_cpu() {
        let base = p166();
        let gateway = CostModel::new(MachineSpec::gateway_p5_90());
        assert_eq!(
            base.cost(Op::DeviceFixedSend, 0, 0),
            gateway.cost(Op::DeviceFixedSend, 0, 0)
        );
    }

    #[test]
    fn cost_range_counts_spanned_pages() {
        let m = p166();
        // 2 bytes straddling a page boundary touch 2 pages.
        let straddle = m.cost_range(Op::Reference, 4095, 2);
        let within = m.cost_range(Op::Reference, 0, 2);
        assert!(straddle > within);
    }

    #[test]
    fn all_ops_have_unique_ids_and_names() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::ALL {
            assert!(seen.insert(op.name()), "duplicate name {}", op.name());
        }
        assert_eq!(Op::ALL.len(), seen.len());
    }

    #[test]
    fn zero_bytes_costs_fixed_term_only() {
        let m = p166();
        assert_eq!(m.cost(Op::Reference, 0, 0).as_us(), 5.0);
        assert_eq!(m.cost(Op::Copyin, 0, 0), SimTime::ZERO);
    }
}
