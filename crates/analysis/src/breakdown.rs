//! The latency breakdown model (paper Section 8, Table 7).
//!
//! End-to-end latency decomposes into a base latency (independent of
//! the buffering semantics) plus the costs of the prepare-time
//! operations at the sender and the ready/dispose-time operations at
//! the receiver that land on the critical path. [`estimate_line`]
//! composes those costs from the Table 6 cost model — producing the
//! "E" rows of Table 7 — while [`actual_line`] fits actual simulated
//! latencies — the "A" rows.

use genie::oplists::{self, OpUse, Scale};
use genie::{ExperimentPoint, ExperimentSetup, Semantics};
use genie_machine::{CostModel, LinkSpec, MachineSpec, Op};
use genie_net::{DmaModel, HEADER_LEN};

use crate::fit::{linfit, Fit};

/// The input-buffering configurations of the paper's latency figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferingScheme {
    /// Figure 3: early demultiplexing, page-aligned buffers.
    EarlyDemux,
    /// Figure 6: pooled input, application-aligned buffers.
    PooledAligned,
    /// Figure 7: pooled input, unaligned buffers.
    PooledUnaligned,
    /// Section 6.2.3: outboard buffering (simulated extension).
    Outboard,
}

impl BufferingScheme {
    /// The experiment setup measuring this scheme.
    pub fn setup(self, machine: MachineSpec, link: LinkSpec) -> ExperimentSetup {
        let mut s = match self {
            BufferingScheme::EarlyDemux => ExperimentSetup::early_demux(machine),
            BufferingScheme::PooledAligned => ExperimentSetup::pooled_aligned(machine),
            BufferingScheme::PooledUnaligned => ExperimentSetup::pooled_unaligned(machine),
            BufferingScheme::Outboard => ExperimentSetup::outboard(machine),
        };
        s.link = link;
        s
    }
}

/// Sums an op list's costs at buffer length `bytes` over `pages`
/// pages (page-aligned buffers span `ceil(bytes/page)` pages; pooled
/// overlay buffers hold the whole PDU, header included, and may span
/// one more).
fn ops_cost_us(model: &CostModel, ops: &[OpUse], bytes: usize, pages: usize) -> f64 {
    ops.iter()
        .map(|u| match u.scale {
            Scale::Fixed => model.cost(u.op, 0, 0).as_us(),
            Scale::Buffer => model.cost(u.op, bytes, pages).as_us(),
        })
        .sum()
}

/// Base latency at `bytes`: everything independent of the buffering
/// semantics (OS fixed paths, DMA setup, device datapath, wire time).
pub fn base_latency_us(model: &CostModel, link: &LinkSpec, bytes: usize) -> f64 {
    let total = bytes + HEADER_LEN;
    model.cost(Op::OsFixedSend, 0, 0).as_us()
        + model.cost(Op::DmaSetup, 0, 0).as_us()
        + model.cost(Op::DeviceFixedSend, 0, 0).as_us()
        + link.wire_time(total).as_us()
        + link.fixed_latency.as_us()
        + model.cost(Op::DeviceFixedRecv, 0, 0).as_us()
        + model.cost(Op::OsFixedRecv, 0, 0).as_us()
}

/// Estimated end-to-end latency in µs at `bytes` (a page multiple),
/// per the breakdown model: base + sender prepare + receiver
/// ready/dispose on the critical path.
pub fn estimate_latency_us(
    model: &CostModel,
    link: &LinkSpec,
    semantics: Semantics,
    scheme: BufferingScheme,
    bytes: usize,
) -> f64 {
    let base = base_latency_us(model, link, bytes);
    let buf_pages = bytes.div_ceil(model.page_size()).max(1);
    // Pooled overlays hold the raw PDU: its header spills page-multiple
    // datagrams into one extra page, which the per-page receiver
    // operations (and move's zero-completion) genuinely pay.
    let pdu_pages = (bytes + HEADER_LEN).div_ceil(model.page_size());
    let prepare = ops_cost_us(model, &oplists::output_prepare(semantics), bytes, buf_pages);
    let receiver = match scheme {
        BufferingScheme::EarlyDemux => {
            ops_cost_us(
                model,
                &oplists::input_ready_early(semantics),
                bytes,
                buf_pages,
            ) + ops_cost_us(
                model,
                &oplists::input_dispose_early(semantics),
                bytes,
                buf_pages,
            )
        }
        BufferingScheme::PooledAligned | BufferingScheme::PooledUnaligned => {
            let aligned = scheme == BufferingScheme::PooledAligned;
            let zero_complete = if semantics == Semantics::Move {
                let spill = pdu_pages * model.page_size() - bytes;
                model.cost(Op::ZeroFill, spill, pdu_pages).as_us()
            } else {
                0.0
            };
            ops_cost_us(
                model,
                &oplists::input_ready_pooled(semantics),
                bytes,
                pdu_pages,
            ) + ops_cost_us(
                model,
                &oplists::input_dispose_pooled(semantics, aligned),
                bytes,
                pdu_pages,
            ) + zero_complete
        }
        BufferingScheme::Outboard => {
            // Store-and-forward: a full host-side DMA on the critical
            // path for every semantics; emulated copy replaces its
            // aligned-buffer machinery with reference/unreference
            // around the outboard DMA (Section 6.2.3).
            let dma = DmaModel::pci32().transfer_time(bytes + HEADER_LEN).as_us();
            if semantics == Semantics::EmulatedCopy {
                dma + model.cost(Op::Reference, bytes, buf_pages).as_us()
                    + model.cost(Op::Unreference, bytes, buf_pages).as_us()
            } else {
                dma + ops_cost_us(
                    model,
                    &oplists::input_ready_early(semantics),
                    bytes,
                    buf_pages,
                ) + ops_cost_us(
                    model,
                    &oplists::input_dispose_early(semantics),
                    bytes,
                    buf_pages,
                )
            }
        }
    };
    base + prepare + receiver
}

/// Page-multiple sizes used for all fits (4 KB .. 60 KB on 4 KB-page
/// machines, scaled by page size elsewhere).
pub fn fit_sizes(page_size: usize) -> Vec<usize> {
    let max_pages = 61_440 / 4096; // 15 "reference" pages
    let pages = (max_pages * 4096) / page_size;
    (1..=pages.max(2)).map(|i| i * page_size).collect()
}

/// The estimated ("E") latency line (µs against bytes) for one
/// semantics and scheme.
pub fn estimate_line(
    model: &CostModel,
    link: &LinkSpec,
    semantics: Semantics,
    scheme: BufferingScheme,
) -> Fit {
    let sizes = fit_sizes(model.page_size());
    let xs: Vec<f64> = sizes.iter().map(|&b| b as f64).collect();
    let ys: Vec<f64> = sizes
        .iter()
        .map(|&b| estimate_latency_us(model, link, semantics, scheme, b))
        .collect();
    linfit(&xs, &ys)
}

/// The actual ("A") latency line: the fit (µs against bytes) through a
/// latency sweep over [`fit_sizes`] (`genie::latency_sweep`).
pub fn actual_line(points: &[ExperimentPoint]) -> Fit {
    let xs: Vec<f64> = points.iter().map(|p| p.bytes as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.latency.as_us()).collect();
    linfit(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie::latency_sweep;

    fn p166_model() -> CostModel {
        CostModel::new(MachineSpec::micron_p166())
    }

    /// The actual ("A") line of `semantics` under `scheme` on the P166.
    fn measure_line(semantics: Semantics, scheme: BufferingScheme) -> Fit {
        let setup = scheme.setup(MachineSpec::micron_p166(), LinkSpec::oc3());
        actual_line(&latency_sweep(&setup, semantics, &fit_sizes(4096)))
    }

    /// Paper Table 7 "E" rows, early demultiplexing.
    const TABLE7_E_EARLY: [(Semantics, f64, f64); 8] = [
        (Semantics::Copy, 0.0997, 141.0),
        (Semantics::EmulatedCopy, 0.0621, 153.0),
        (Semantics::Share, 0.0619, 165.0),
        (Semantics::EmulatedShare, 0.0602, 137.0),
        (Semantics::Move, 0.0628, 197.0),
        (Semantics::EmulatedMove, 0.0610, 151.0),
        (Semantics::WeakMove, 0.0620, 173.0),
        (Semantics::EmulatedWeakMove, 0.0603, 144.0),
    ];

    #[test]
    fn estimates_match_paper_table7_early_demux() {
        let model = p166_model();
        let link = LinkSpec::oc3();
        for (sem, slope, fixed) in TABLE7_E_EARLY {
            let line = estimate_line(&model, &link, sem, BufferingScheme::EarlyDemux);
            let slope_err = (line.slope - slope).abs() / slope;
            let fixed_err = (line.intercept - fixed).abs() / fixed;
            assert!(
                slope_err < 0.03,
                "{sem}: slope {} vs paper {slope}",
                line.slope
            );
            assert!(
                fixed_err < 0.06,
                "{sem}: fixed {} vs paper {fixed}",
                line.intercept
            );
        }
    }

    /// Paper Table 7 "E" rows, pooled schemes (spot checks).
    #[test]
    fn estimates_match_paper_table7_pooled() {
        let model = p166_model();
        let link = LinkSpec::oc3();
        let cases = [
            (
                Semantics::Copy,
                BufferingScheme::PooledAligned,
                0.100,
                166.0,
            ),
            (
                Semantics::EmulatedCopy,
                BufferingScheme::PooledAligned,
                0.0625,
                178.0,
            ),
            (
                Semantics::EmulatedCopy,
                BufferingScheme::PooledUnaligned,
                0.0828,
                177.0,
            ),
            (
                Semantics::EmulatedShare,
                BufferingScheme::PooledUnaligned,
                0.0825,
                175.0,
            ),
        ];
        for (sem, scheme, slope, fixed) in cases {
            let line = estimate_line(&model, &link, sem, scheme);
            assert!(
                (line.slope - slope).abs() / slope < 0.03,
                "{sem}/{:?}: slope {}",
                scheme,
                line.slope
            );
            assert!(
                (line.intercept - fixed).abs() / fixed < 0.08,
                "{sem}/{:?}: fixed {}",
                scheme,
                line.intercept
            );
        }
    }

    #[test]
    fn move_pooled_estimate_tracks_measurement_including_zero_completion() {
        // Our move-over-pooled path zero-completes the header-spill
        // page on every datagram (~93 us the paper's rig apparently
        // avoided at page multiples); the breakdown model must account
        // for it so E still tracks A.
        let model = p166_model();
        let link = LinkSpec::oc3();
        let e = estimate_line(
            &model,
            &link,
            Semantics::Move,
            BufferingScheme::PooledAligned,
        );
        let a = measure_line(Semantics::Move, BufferingScheme::PooledAligned);
        assert!(
            (e.intercept - a.intercept).abs() < 20.0,
            "E fixed {} vs A fixed {}",
            e.intercept,
            a.intercept
        );
        assert!((e.slope - a.slope).abs() / a.slope < 0.03);
    }

    #[test]
    fn measured_lines_agree_with_estimates() {
        // The paper's central modeling claim: the breakdown model fits
        // the actual latencies well.
        let model = p166_model();
        let link = LinkSpec::oc3();
        for sem in [Semantics::Copy, Semantics::EmulatedCopy, Semantics::Move] {
            let e = estimate_line(&model, &link, sem, BufferingScheme::EarlyDemux);
            let a = measure_line(sem, BufferingScheme::EarlyDemux);
            assert!(
                (e.slope - a.slope).abs() / e.slope < 0.05,
                "{sem}: E slope {} vs A slope {}",
                e.slope,
                a.slope
            );
            assert!(
                (e.intercept - a.intercept).abs() / e.intercept < 0.12,
                "{sem}: E fixed {} vs A fixed {}",
                e.intercept,
                a.intercept
            );
        }
    }

    #[test]
    fn fit_sizes_cover_paper_range() {
        let sizes = fit_sizes(4096);
        assert_eq!(sizes.first(), Some(&4096));
        assert_eq!(sizes.last(), Some(&61_440));
        // On 8 KB-page machines the largest page multiple under the
        // AAL5/60 KB cap is 56 KB.
        let sizes8k = fit_sizes(8192);
        assert_eq!(sizes8k.last(), Some(&57_344));
    }
}
