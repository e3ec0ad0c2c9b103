//! The measurement plan: the latency sweeps and instrumented fits that
//! several exhibits share. [`measure`] runs every (scheme, semantics)
//! sweep and every (machine, scheme, semantics) instrumented cell of
//! the distinct [`Input`]s it is given in one `genie_runner::map`, and
//! exhibits render from the [`Measured`] results. Nothing outlives a
//! plan, so two plans measure everything twice.

use std::time::{Duration, Instant};

use genie::{latency_sweep, ExperimentPoint, Semantics};
use genie_analysis::breakdown::fit_sizes;
use genie_analysis::table6::{fit_cells, fit_primitive_costs, instrument_cell, OpSamples};
use genie_analysis::{BufferingScheme, OpFit};
use genie_machine::{LinkSpec, MachineSpec};

/// A size list a latency grid sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizes {
    /// Page multiples 4 KB..60 KB: Figures 3, 6 and 7, and Table 7's
    /// fit grid (`fit_sizes(4096)`).
    Figure,
    /// Figure 5's short datagrams, 64 B..8 KB.
    Short,
}

impl Sizes {
    fn list(self) -> Vec<usize> {
        match self {
            Sizes::Figure => fit_sizes(4096),
            Sizes::Short => vec![
                64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 6144, 8192,
            ],
        }
    }
}

/// An input that exhibits render from.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// Every semantics' latency sweep over one size list under one
    /// buffering scheme, on the Micron P166 over OC-3.
    Grid(BufferingScheme, Sizes),
    /// One platform's primitive-cost fits from instrumented Figure
    /// 3/6/7 runs over OC-3.
    Fits(MachineSpec),
}

impl Input {
    /// The input's row name in `report --profile` and `--json`.
    fn name(&self) -> String {
        match self {
            Input::Grid(scheme, sizes) => format!("plan:grid {scheme:?}/{sizes:?}"),
            Input::Fits(machine) => format!("plan:fits {}", machine.name),
        }
    }

    /// The (scheme, semantics) cells that measure this input, in order.
    fn cells(&self) -> Vec<(BufferingScheme, Semantics)> {
        match self {
            Input::Grid(scheme, _) => Semantics::ALL.iter().map(|&s| (*scheme, s)).collect(),
            Input::Fits(_) => fit_cells(),
        }
    }
}

/// A grid's sweeps, one per semantics in [`Semantics::ALL`] order.
type Sweeps = Vec<Vec<ExperimentPoint>>;

/// A plan's results: each distinct input measured once, in the order
/// first needed. Reading an input the plan did not measure panics.
#[derive(Default)]
pub struct Measured {
    grids: Vec<((BufferingScheme, Sizes), Sweeps)>,
    fits: Vec<(MachineSpec, Vec<OpFit>)>,
    /// One `(row name, wall ms)` per input: the summed wall clock of
    /// its cells plus its fit step.
    pub rows: Vec<(String, f64)>,
}

impl Measured {
    /// Every semantics' sweep of the grid, in [`Semantics::ALL`] order.
    pub fn grid(&self, scheme: BufferingScheme, sizes: Sizes) -> &[Vec<ExperimentPoint>] {
        self.grids
            .iter()
            .find(|(key, _)| *key == (scheme, sizes))
            .map(|(_, sweeps)| sweeps.as_slice())
            .unwrap_or_else(|| panic!("{} was not in the plan", Input::Grid(scheme, sizes).name()))
    }

    /// The primitive-cost fits of `machine`.
    pub fn fits(&self, machine: &MachineSpec) -> &[OpFit] {
        self.fits
            .iter()
            .find(|(m, _)| m == machine)
            .map(|(_, fits)| fits.as_slice())
            .unwrap_or_else(|| panic!("plan:fits {} was not in the plan", machine.name))
    }
}

/// Measures every distinct input of `needs` once: all of their cells
/// in one `genie_runner::map`, then each fit set's fit.
pub fn measure<'a>(needs: impl IntoIterator<Item = &'a Input>) -> Measured {
    let mut inputs: Vec<&Input> = Vec::new();
    for n in needs {
        if !inputs.contains(&n) {
            inputs.push(n);
        }
    }
    let cells: Vec<(usize, BufferingScheme, Semantics)> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, input)| input.cells().into_iter().map(move |(sch, s)| (i, sch, s)))
        .collect();
    let link = LinkSpec::oc3();
    // A grid cell sweeps and a fit cell instruments; each leaves the
    // other half of its result empty.
    let done = genie_runner::map(&cells, |&(i, scheme, sem)| {
        let t = Instant::now();
        let out = match inputs[i] {
            Input::Grid(_, sizes) => {
                let setup = scheme.setup(MachineSpec::micron_p166(), link.clone());
                (latency_sweep(&setup, sem, &sizes.list()), Vec::new())
            }
            Input::Fits(machine) => (Vec::new(), instrument_cell(machine, &link, scheme, sem)),
        };
        (out, t.elapsed())
    });
    // Each input's cells are contiguous and in its own cell order.
    let mut done = done.into_iter();
    let mut m = Measured::default();
    for input in inputs {
        let mut wall = Duration::ZERO;
        let (sweeps, samples): (Sweeps, Vec<OpSamples>) = done
            .by_ref()
            .take(input.cells().len())
            .map(|(out, d)| {
                wall += d;
                out
            })
            .unzip();
        let t = Instant::now();
        match input {
            Input::Grid(scheme, sizes) => m.grids.push(((*scheme, *sizes), sweeps)),
            Input::Fits(machine) => m.fits.push((machine.clone(), fit_primitive_costs(samples))),
        }
        m.rows
            .push((input.name(), (wall + t.elapsed()).as_secs_f64() * 1e3));
    }
    m
}
