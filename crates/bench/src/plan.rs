//! The measurement plan: every simulation the paper exhibits render
//! from. [`measure`] runs every cell of the distinct [`Input`]s it is
//! given (each latency sweep, instrumented fit cell and ping-pong) in
//! one `genie_runner::map`, and exhibits render from the [`Measured`]
//! results. Nothing outlives a plan, so two plans measure everything
//! twice.

use std::time::{Duration, Instant};

use genie::{latency_sweep, measure_ping_pong, ExperimentPoint, Semantics, TraceSet};
use genie_analysis::breakdown::fit_sizes;
use genie_analysis::table6::{fit_cells, fit_primitive_costs, instrument_cell, Instrumented};
use genie_analysis::{BufferingScheme, OpFit};
use genie_machine::{LinkSpec, MachineSpec, SimTime};

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

/// Figure 4's ping-pong sizes: 1, 3, 5, 8, 11 and 15 pages of 4 KB.
const PING_PONG_SIZES: [usize; 6] = [4096, 12_288, 20_480, 32_768, 45_056, 61_440];

/// An input that exhibits render from.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// Every semantics' latency sweep over one size list under one
    /// buffering scheme, on the Micron P166 over OC-3.
    Grid(BufferingScheme, Sizes),
    /// One platform's primitive-cost fits from instrumented Figure
    /// 3/6/7 runs over OC-3, and each run's largest traced round.
    Fits(MachineSpec),
    /// Figure 4: host A's CPU utilization over four early-demux
    /// ping-pong rounds on the P166 over OC-3, per semantics and size.
    PingPongs,
    /// Section 8: every semantics' 60 KB early-demux latency on the
    /// P166 over OC-12.
    Oc12,
    /// The ablation's "without" column: emulated copy's early-demux
    /// sweep of 256 B..2 KB with thresholds off, on the P166 over OC-3.
    Unthresholded,
}

/// What one cell measured. Each kind of cell fills its own fields and
/// leaves the rest empty.
#[derive(Default)]
struct Cell {
    /// A sweep's points, or a ping-pong's one exchange.
    points: Vec<ExperimentPoint>,
    /// An instrumented cell's samples and largest round.
    fit: Option<Instrumented>,
    /// A ping-pong's CPU utilization on host A.
    utilization: f64,
}

impl Input {
    /// The input's row name in `report --profile` and `--json`.
    fn name(&self) -> String {
        match self {
            Input::Grid(scheme, sizes) => format!("plan:grid {scheme:?}/{sizes:?}"),
            Input::Fits(machine) => format!("plan:fits {}", machine.name),
            Input::PingPongs => "plan:pingpongs EarlyDemux".to_string(),
            Input::Oc12 => "plan:oc12 EarlyDemux".to_string(),
            Input::Unthresholded => "plan:unthresholded EmulatedCopy".to_string(),
        }
    }

    /// How many cells measure this input.
    fn cells(&self) -> usize {
        match self {
            Input::Grid(..) | Input::Oc12 => Semantics::ALL.len(),
            Input::Fits(_) => fit_cells().len(),
            Input::PingPongs => Semantics::ALL.len() * PING_PONG_SIZES.len(),
            Input::Unthresholded => 1,
        }
    }

    /// Measures this input's cell `k`.
    fn measure(&self, k: usize) -> Cell {
        let p166 =
            |scheme: BufferingScheme| scheme.setup(MachineSpec::micron_p166(), LinkSpec::oc3());
        let mut setup = p166(BufferingScheme::EarlyDemux);
        let mut cell = Cell::default();
        match self {
            Input::Grid(scheme, sizes) => {
                cell.points = latency_sweep(&p166(*scheme), Semantics::ALL[k], &sizes.list());
            }
            Input::Fits(machine) => {
                let (scheme, sem) = fit_cells()[k];
                cell.fit = Some(instrument_cell(machine, &LinkSpec::oc3(), scheme, sem));
            }
            Input::PingPongs => {
                let n = PING_PONG_SIZES.len();
                let (sem, bytes) = (Semantics::ALL[k / n], PING_PONG_SIZES[k % n]);
                let (latency, util) = measure_ping_pong(&setup, sem, bytes, 4).expect("ping-pong");
                cell.points = vec![ExperimentPoint { bytes, latency }];
                cell.utilization = util;
            }
            Input::Oc12 => {
                setup.link = LinkSpec::oc12();
                cell.points = latency_sweep(&setup, Semantics::ALL[k], &[61_440]);
            }
            Input::Unthresholded => {
                setup.genie = setup.genie.without_thresholds();
                let sizes = [256, 512, 1024, 1536, 2048];
                cell.points = latency_sweep(&setup, Semantics::EmulatedCopy, &sizes);
            }
        }
        cell
    }
}

/// A plan's results: each distinct input measured once, in the order
/// first needed. Reading an input the plan did not measure panics.
#[derive(Default)]
pub struct Measured {
    /// Each input with its cells, in cell order, and their fits (empty
    /// but for a fit set).
    inputs: Vec<(Input, Vec<Cell>, Vec<OpFit>)>,
    /// One `(row name, wall ms)` per input: the summed wall clock of
    /// its cells plus its fit step.
    pub rows: Vec<(String, f64)>,
}

impl Measured {
    fn get(&self, input: &Input) -> &(Input, Vec<Cell>, Vec<OpFit>) {
        let found = self.inputs.iter().find(|(i, _, _)| i == input);
        found.unwrap_or_else(|| panic!("{} was not in the plan", input.name()))
    }

    /// A sweep input's sweeps, one per cell: every semantics' in
    /// [`Semantics::ALL`] order, or [`Input::Unthresholded`]'s one.
    pub fn sweeps(&self, input: &Input) -> Vec<&[ExperimentPoint]> {
        let cells = self.get(input).1.iter();
        cells.map(|c| c.points.as_slice()).collect()
    }

    /// The primitive-cost fits of `machine`.
    pub fn fits(&self, machine: &MachineSpec) -> &[OpFit] {
        &self.get(&Input::Fits(machine.clone())).2
    }

    /// The largest round (60 KB on 4 KB pages) of each of `machine`'s
    /// instrumented cells, in [`fit_cells`] order.
    pub fn largest_rounds(&self, machine: &MachineSpec) -> Vec<&(SimTime, TraceSet)> {
        let cells = self.get(&Input::Fits(machine.clone())).1.iter();
        cells
            .filter_map(|c| Some(&c.fit.as_ref()?.largest))
            .collect()
    }

    /// Figure 4's `(bytes, utilization)` series, one per semantics in
    /// [`Semantics::ALL`] order.
    pub fn utilization(&self) -> Vec<Vec<(usize, f64)>> {
        let cells = self.get(&Input::PingPongs).1.chunks(PING_PONG_SIZES.len());
        let point = |c: &Cell| (c.points[0].bytes, c.utilization);
        cells.map(|sem| sem.iter().map(point).collect()).collect()
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
    let cells: Vec<(&Input, usize)> = inputs
        .iter()
        .flat_map(|&input| (0..input.cells()).map(move |k| (input, k)))
        .collect();
    let done = genie_runner::map(&cells, |&(input, k)| {
        let t = Instant::now();
        (input.measure(k), t.elapsed())
    });
    // Each input's cells are contiguous and in its own cell order.
    let mut done = done.into_iter();
    let mut m = Measured::default();
    for input in inputs {
        let (cells, walls): (Vec<Cell>, Vec<Duration>) = done.by_ref().take(input.cells()).unzip();
        let t = Instant::now();
        let fits = fit_primitive_costs(cells.iter().filter_map(|c| c.fit.as_ref()));
        let wall = walls.into_iter().sum::<Duration>() + t.elapsed();
        m.rows.push((input.name(), wall.as_secs_f64() * 1e3));
        m.inputs.push((input.clone(), cells, fits));
    }
    m
}
