//! Regenerating Table 6: primitive-operation cost fits from
//! instrumented runs.
//!
//! The paper instrumented the Genie code with cycle-counter probes
//! while running the experiments of Figures 3, 6 and 7, recorded the
//! latency of each primitive operation against datagram length, and
//! least-squares fitted each, averaging over the semantics and
//! buffering schemes where the operation appears. We do exactly that:
//! the same experiments run with each measured round traced, every
//! charged operation is one op span of that trace
//! ([`genie::TraceSet::charges`]), and the fits below are computed
//! from those spans. The hosts' [`genie_machine::CostLedger`]s only
//! aggregate the same charges.

use genie::{Semantics, SeriesContext};
use genie_machine::{LinkSpec, MachineSpec, Op};

use crate::breakdown::{fit_sizes, BufferingScheme};
use crate::fit::{linfit, Fit};

/// A fitted primitive-operation cost line.
#[derive(Clone, Copy, Debug)]
pub struct OpFit {
    /// The operation.
    pub op: Op,
    /// Fit of cost (µs) against covered bytes.
    pub fit: Fit,
    /// Number of samples behind the fit.
    pub samples: usize,
}

/// One instrumented cell's charges: `(op, bytes, cost in µs)` for
/// every operation its measured rounds charged, in charge order.
pub type OpSamples = Vec<(Op, f64, f64)>;

/// The buffering schemes whose instrumented runs the fits average over:
/// those of Figures 3, 6 and 7.
pub const FIT_SCHEMES: [BufferingScheme; 3] = [
    BufferingScheme::EarlyDemux,
    BufferingScheme::PooledAligned,
    BufferingScheme::PooledUnaligned,
];

/// The (scheme, semantics) cells behind one platform's fits, in the
/// order [`fit_primitive_costs`] expects their samples.
pub fn fit_cells() -> Vec<(BufferingScheme, Semantics)> {
    FIT_SCHEMES
        .iter()
        .flat_map(|&sch| Semantics::ALL.iter().map(move |&sem| (sch, sem)))
        .collect()
}

/// Runs one (scheme, semantics) sweep over [`fit_sizes`] with every
/// measured round traced, and returns each charged operation's sample.
/// Copy-conversion is disabled so the pure op mix is observed at every
/// size.
pub fn instrument_cell(
    machine: &MachineSpec,
    link: &LinkSpec,
    scheme: BufferingScheme,
    semantics: Semantics,
) -> OpSamples {
    let sizes = fit_sizes(machine.page_size);
    let mut setup = scheme.setup(machine.clone(), link.clone());
    setup.genie = setup.genie.without_thresholds();
    let mut ctx = SeriesContext::new(&setup, &sizes);
    let mut samples = Vec::new();
    for &b in &sizes {
        let (_lat, trace) = ctx.measure_charges(semantics, b).expect("instrumented run");
        samples.extend(
            trace
                .charges()
                .map(|(op, e)| (op, e.bytes as f64, e.dur.as_us())),
        );
    }
    samples
}

/// Fits each primitive operation's recorded cost against its byte
/// count, over the samples of every [`fit_cells`] cell in that order.
///
/// Operations that are only ever invoked with a fixed (zero-byte)
/// footprint get a zero-slope fit through their mean cost.
pub fn fit_primitive_costs(cells: impl IntoIterator<Item = OpSamples>) -> Vec<OpFit> {
    // Group by op (indexed by `Op::id`), keeping cell order within
    // each op's points.
    let mut by_op = vec![(Vec::new(), Vec::new()); Op::ALL.len()];
    for (op, bytes, cost) in cells.into_iter().flatten() {
        let (xs, ys) = &mut by_op[op.id() as usize];
        xs.push(bytes);
        ys.push(cost);
    }
    let mut out = Vec::new();
    for (&op, (xs, ys)) in Op::ALL.iter().zip(by_op) {
        if xs.is_empty() {
            continue;
        }
        let all_same_x = xs.windows(2).all(|w| w[0] == w[1]);
        let fit = if xs.len() < 2 || all_same_x {
            Fit {
                slope: 0.0,
                intercept: ys.iter().sum::<f64>() / ys.len() as f64,
                r2: 1.0,
            }
        } else {
            linfit(&xs, &ys)
        };
        out.push(OpFit {
            op,
            fit,
            samples: xs.len(),
        });
    }
    out
}

/// Runs the Figure 3/6/7 experiments with instrumentation on, one
/// [`instrument_cell`] per pool cell, and fits the samples.
pub fn measure_primitive_costs(machine: MachineSpec, link: LinkSpec) -> Vec<OpFit> {
    fit_primitive_costs(genie_runner::map(&fit_cells(), |&(scheme, sem)| {
        instrument_cell(&machine, &link, scheme, sem)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_recovered_on_p166() {
        let fits = measure_primitive_costs(MachineSpec::micron_p166(), LinkSpec::oc3());
        let get = |op: Op| {
            fits.iter()
                .find(|f| f.op == op)
                .unwrap_or_else(|| panic!("{} missing", op.name()))
                .fit
        };
        // Spot-check against the paper's Table 6.
        let cases = [
            (Op::Reference, 0.000363, 5.0),
            (Op::Unreference, 0.000100, 2.0),
            (Op::Wire, 0.00141, 18.0),
            (Op::Copyout, 0.0220, 15.0),
        ];
        for (op, slope, fixed) in cases {
            let f = get(op);
            assert!(
                (f.slope - slope).abs() / slope < 0.05,
                "{}: slope {} want {slope}",
                op.name(),
                f.slope
            );
            assert!(
                (f.intercept - fixed).abs() < 2.0,
                "{}: fixed {} want {fixed}",
                op.name(),
                f.intercept
            );
        }
        // Copyin shows the paper's negative intercept.
        let copyin = get(Op::Copyin);
        assert!(
            copyin.intercept < 0.0,
            "copyin intercept {}",
            copyin.intercept
        );
        assert!((copyin.slope - 0.0180).abs() < 0.001, "{}", copyin.slope);
        // Fixed-cost ops fit as flat lines at their Table 6 values.
        let markout = get(Op::RegionMarkOut);
        assert_eq!(markout.slope, 0.0);
        assert!((markout.intercept - 3.0).abs() < 0.2);
    }
}
