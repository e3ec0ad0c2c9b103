//! The measurement plan: every simulation `report` renders from.
//! [`measure`] runs every cell of the distinct [`Input`]s it is given
//! (each latency sweep, instrumented fit cell, ping-pong, fabric suite
//! run, CQ sweep, traced or faulted exchange set, and the scale tier)
//! in one `genie_runner::map`, and exhibits render from the
//! [`Measured`] results. Nothing outlives a plan, so two plans measure
//! everything twice.

use std::time::{Duration, Instant};

use genie::suites::{fabric_scale, ScalePoint};
use genie::{
    cluster_reduce, cq_saturation, latency_sweep, measure_ping_pong, multicast_stream, rpc_fanin,
    rpc_fanin_observed, CqSaturationPoint, CqSuiteConfig, ExperimentPoint, HostId, MetricsRegistry,
    Observation, OutputRequest, SampleConfig, Semantics, SeriesContext, SuitePoint, TraceSet,
    World, WorldConfig,
};
use genie_analysis::breakdown::fit_sizes;
use genie_analysis::table6::{fit_cells, fit_primitive_costs, instrument_cell, Instrumented};
use genie_analysis::{BufferingScheme, OpFit};
use genie_fault::FaultConfig;
use genie_machine::{LinkSpec, MachineSpec, SimTime};
use genie_net::Vc;

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

/// The canonical traced exchange's size: 60 KB, the largest point.
const INSPECT_BYTES: usize = 61_440;

/// Scale-tier hosts and payload: a 64-host star of 2 KB datagrams,
/// a contended fan-in the paper's two-host exhibits cannot reach.
pub(crate) const SCALE_HOSTS: u16 = 64;
pub(crate) const SCALE_BYTES: usize = 2048;

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
    /// `report fabric`'s three one-shot suites per semantics: RPC
    /// fan-in, cluster reduce and multicast.
    Suites,
    /// The 8-host star fan-in every flight-recorder view reads, per
    /// semantics, observed and sampled per the config.
    ObservedFanin(SampleConfig),
    /// The CQ saturation sweep per semantics (queue depth on the
    /// 8-host star, [`CqSuiteConfig`]'s defaults) under a fault plan.
    Cq(FaultConfig),
    /// `--trace` and `--metrics`: one 60 KB early-demux exchange per
    /// semantics on the P166, traced under the sampling config.
    Inspect(SampleConfig),
    /// `--json`'s fault counters: three faulted early-demux datagrams
    /// per semantics under the swarm fault plan of this seed.
    FaultStats(u64),
    /// The scale tier at this many datagrams per semantics: one cell
    /// runs the eight semantics in sequence, so no semantics' run
    /// shares the machine with another's.
    Scale(usize),
}

/// What one cell measured; every cell of an input is of one kind.
enum Cell {
    Sweep(Vec<ExperimentPoint>),
    Fit(Instrumented),
    /// A ping-pong's exchange and host A's CPU utilization.
    PingPong(ExperimentPoint, f64),
    Suite(SuitePoint),
    Observed(Observation<SuitePoint>),
    Cq(CqSaturationPoint),
    /// A traced exchange's latency, trace and metrics.
    Traced((SimTime, TraceSet, MetricsRegistry)),
    Faults(Vec<(&'static str, u64)>),
    /// The scale tier's points, one per semantics, and the process's
    /// peak resident memory after them.
    Scale(Vec<ScalePoint>, Option<f64>),
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
            Input::Suites => "plan:fabric suites".to_string(),
            Input::ObservedFanin(s) => format!("plan:observed fanin 1/{}", s.rate),
            Input::Cq(f) if f.active() => format!("plan:cq faults seed {}", f.seed),
            Input::Cq(_) => "plan:cq fault-free".to_string(),
            Input::Inspect(s) => format!("plan:inspect EarlyDemux 1/{}", s.rate),
            Input::FaultStats(seed) => format!("plan:faultstats seed {seed}"),
            Input::Scale(per) => format!("plan:scale {per}/semantics"),
        }
    }

    /// How many cells measure this input.
    fn cells(&self) -> usize {
        let n = Semantics::ALL.len();
        match self {
            Input::Grid(..) | Input::Oc12 => n,
            Input::ObservedFanin(_) | Input::Cq(_) | Input::Inspect(_) | Input::FaultStats(_) => n,
            Input::Fits(_) => fit_cells().len(),
            Input::PingPongs => n * PING_PONG_SIZES.len(),
            Input::Suites => 3 * n,
            Input::Unthresholded | Input::Scale(_) => 1,
        }
    }

    /// Measures this input's cell `k`.
    fn measure(&self, k: usize) -> Cell {
        let p166 =
            |scheme: BufferingScheme| scheme.setup(MachineSpec::micron_p166(), LinkSpec::oc3());
        let mut setup = p166(BufferingScheme::EarlyDemux);
        let sem = Semantics::ALL[k % Semantics::ALL.len()];
        match self {
            Input::Grid(scheme, sizes) => {
                Cell::Sweep(latency_sweep(&p166(*scheme), sem, &sizes.list()))
            }
            Input::Fits(machine) => {
                let (scheme, sem) = fit_cells()[k];
                Cell::Fit(instrument_cell(machine, &LinkSpec::oc3(), scheme, sem))
            }
            Input::PingPongs => {
                let n = PING_PONG_SIZES.len();
                let (sem, bytes) = (Semantics::ALL[k / n], PING_PONG_SIZES[k % n]);
                let (latency, util) = measure_ping_pong(&setup, sem, bytes, 4).expect("ping-pong");
                Cell::PingPong(ExperimentPoint { bytes, latency }, util)
            }
            Input::Oc12 => {
                setup.link = LinkSpec::oc12();
                Cell::Sweep(latency_sweep(&setup, sem, &[61_440]))
            }
            Input::Unthresholded => {
                setup.genie = setup.genie.without_thresholds();
                let sizes = [256, 512, 1024, 1536, 2048];
                Cell::Sweep(latency_sweep(&setup, Semantics::EmulatedCopy, &sizes))
            }
            Input::Suites => Cell::Suite(match k / Semantics::ALL.len() {
                0 => rpc_fanin(sem, 192, 4, 2048),
                1 => cluster_reduce(sem, 64, 4096, 2),
                _ => multicast_stream(sem, 96, 16, 8192),
            }),
            Input::ObservedFanin(sample) => {
                Cell::Observed(rpc_fanin_observed(sem, 7, 8, 2048, sample))
            }
            Input::Cq(fault) => {
                let cfg = CqSuiteConfig {
                    fault: *fault,
                    ..CqSuiteConfig::default()
                };
                Cell::Cq(cq_saturation(sem, &cfg))
            }
            Input::Inspect(sample) => {
                let mut series = SeriesContext::new(&setup, &[INSPECT_BYTES]);
                let run = series.measure_latency_sampled(sem, INSPECT_BYTES, sample);
                Cell::Traced(run.expect("traced exchange"))
            }
            Input::FaultStats(seed) => Cell::Faults(faulted_exchanges(sem, *seed)),
            Input::Scale(per) => {
                let run = |&s: &Semantics| fabric_scale(s, SCALE_HOSTS, *per, SCALE_BYTES);
                let points = Semantics::ALL.iter().map(run).collect();
                Cell::Scale(points, crate::timing::peak_rss_mb())
            }
        }
    }
}

/// Sends three seeded faulted datagrams (1,500, 3,000 and 4,000 B)
/// from host A to host B under `sem` with early demux, and returns
/// the world's fault counters once it has run dry.
fn faulted_exchanges(sem: Semantics, seed: u64) -> Vec<(&'static str, u64)> {
    const SIZES: [usize; 3] = [1_500, 3_000, 4_000];
    let mut w = World::new(WorldConfig {
        frames_per_host: 320,
        credit_limit: 256,
        fault: FaultConfig::swarm(seed),
        ..WorldConfig::default()
    });
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    for &bytes in &SIZES {
        w.post_receive(HostId::B, rx, sem, Vc(1), bytes, 0)
            .expect("input");
    }
    for (i, &bytes) in SIZES.iter().enumerate() {
        let byte = |b: usize| (b as u64).wrapping_mul(31).wrapping_add(i as u64) as u8;
        let data: Vec<u8> = (0..bytes).map(byte).collect();
        let src = w.alloc_source(HostId::A, tx, sem, &data).expect("source");
        w.output(HostId::A, OutputRequest::new(sem, Vc(1), tx, src, bytes))
            .expect("output");
    }
    w.run();
    w.fault_stats().fields().to_vec()
}

/// A plan's results: each distinct input measured once, in the order
/// first needed. Reading an input the plan did not measure panics.
#[derive(Default)]
pub struct Measured {
    /// Each input with its cells, in cell order, and their fits (empty
    /// but for a fit set).
    inputs: Vec<(Input, Vec<Cell>, Vec<OpFit>)>,
    /// One `(row name, wall ms)` per input: the summed wall clock of
    /// its cells plus collecting them and its fit step.
    pub rows: Vec<(String, f64)>,
}

/// Reads each cell of `$input` in plan `$m` through `$cell => $value`,
/// in cell order; every cell of an input is of one kind.
macro_rules! read {
    ($m:expr, $input:expr, $cell:pat => $value:expr) => {
        $m.get(&$input)
            .1
            .iter()
            .map(|c| match c {
                $cell => $value,
                _ => unreachable!("a cell of another kind"),
            })
            .collect::<Vec<_>>()
    };
}

impl Measured {
    fn get(&self, input: &Input) -> &(Input, Vec<Cell>, Vec<OpFit>) {
        let found = self.inputs.iter().find(|(i, _, _)| i == input);
        found.unwrap_or_else(|| panic!("{} was not in the plan", input.name()))
    }

    /// A sweep input's sweeps, one per cell: every semantics' in
    /// [`Semantics::ALL`] order, or [`Input::Unthresholded`]'s one.
    pub fn sweeps(&self, input: &Input) -> Vec<&[ExperimentPoint]> {
        read!(self, *input, Cell::Sweep(points) => points.as_slice())
    }

    /// The primitive-cost fits of `machine`.
    pub fn fits(&self, machine: &MachineSpec) -> &[OpFit] {
        &self.get(&Input::Fits(machine.clone())).2
    }

    /// The largest round (60 KB on 4 KB pages) of each of `machine`'s
    /// instrumented cells, in [`fit_cells`] order.
    pub(crate) fn largest_rounds(&self, machine: &MachineSpec) -> Vec<&(SimTime, TraceSet)> {
        read!(self, Input::Fits(machine.clone()), Cell::Fit(fit) => &fit.largest)
    }

    /// Figure 4's `(bytes, utilization)` series, one per semantics in
    /// [`Semantics::ALL`] order.
    pub(crate) fn utilization(&self) -> Vec<Vec<(usize, f64)>> {
        let points = read!(self, Input::PingPongs, Cell::PingPong(p, util) => (p.bytes, *util));
        let series = points.chunks(PING_PONG_SIZES.len());
        series.map(<[_]>::to_vec).collect()
    }

    /// The fabric suites' points: RPC fan-in, cluster reduce and
    /// multicast, each one per semantics in [`Semantics::ALL`] order.
    pub(crate) fn suites(&self) -> Vec<Vec<&SuitePoint>> {
        let points = read!(self, Input::Suites, Cell::Suite(p) => p);
        let suites = points.chunks(Semantics::ALL.len());
        suites.map(<[_]>::to_vec).collect()
    }

    /// The observed fan-in under `sample`, one run per semantics.
    pub(crate) fn observed(&self, sample: &SampleConfig) -> Vec<&Observation<SuitePoint>> {
        read!(self, Input::ObservedFanin(*sample), Cell::Observed(o) => o)
    }

    /// The CQ saturation sweep under `fault`, one per semantics.
    pub(crate) fn cq(&self, fault: &FaultConfig) -> Vec<&CqSaturationPoint> {
        read!(self, Input::Cq(*fault), Cell::Cq(p) => p)
    }

    /// The canonical traced exchange under `sample` per semantics: its
    /// latency, trace and metrics.
    pub(crate) fn inspected(
        &self,
        sample: &SampleConfig,
    ) -> Vec<&(SimTime, TraceSet, MetricsRegistry)> {
        read!(self, Input::Inspect(*sample), Cell::Traced(run) => run)
    }

    /// The fault counters of seed `seed`'s faulted exchanges, summed
    /// over the semantics.
    pub fn fault_stats(&self, seed: u64) -> Vec<(&'static str, u64)> {
        let cells = read!(self, Input::FaultStats(seed), Cell::Faults(fields) => fields);
        let sum = |i: usize| cells.iter().map(|fields| fields[i].1).sum();
        let names = cells[0].iter().enumerate();
        names.map(|(i, (name, _))| (*name, sum(i))).collect()
    }

    /// The scale tier at `per` datagrams per semantics: one point per
    /// semantics and the peak resident memory after them, in MiB.
    pub(crate) fn scale(&self, per: usize) -> (&[ScalePoint], Option<f64>) {
        read!(self, Input::Scale(per), Cell::Scale(points, rss) => (points.as_slice(), *rss))[0]
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
        let t = Instant::now();
        let (cells, walls): (Vec<Cell>, Vec<Duration>) = done.by_ref().take(input.cells()).unzip();
        let fits = fit_primitive_costs(cells.iter().filter_map(|c| match c {
            Cell::Fit(fit) => Some(fit),
            _ => None,
        }));
        m.inputs.push((input.clone(), cells, fits));
        let wall = walls.into_iter().sum::<Duration>() + t.elapsed();
        m.rows.push((input.name(), wall.as_secs_f64() * 1e3));
    }
    m
}
