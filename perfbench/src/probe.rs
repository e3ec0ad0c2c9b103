//! Host-time probes around the calls the driver makes into genie.
//!
//! Every step of the timed loop is timed (two clock reads per step).
//! In traced episodes each call into a layer is also timed and kept as
//! a span: the per-layer totals cover every call, while the span list
//! itself is capped so a long traced run stays small in memory. Spans
//! are written to a file only when the run ends.

use std::io::Write;
use std::time::Instant;

/// A layer of the simulator, named after the module the driver calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `World::new`, `SeriesContext::new` and process creation.
    WorldNew,
    /// `SeriesContext::measure_latency`.
    ExperimentMeasure,
    /// Buffer allocation plus the application write that fills it.
    VmAllocFill,
    /// `World::input`, with its `preferred_alignment` query.
    InputPost,
    /// `World::output`.
    OutputSend,
    /// `World::run` and draining its completion streams.
    WorldRun,
    /// `World::app_matches`.
    VmVerify,
    /// `Host::free_buffer`.
    VmFree,
    /// `QueuePair::post`.
    CqPost,
    /// `QueuePair::submit`.
    CqSubmit,
    /// `cq::harvest`.
    CqHarvest,
    /// `QueuePair::poll`.
    CqPoll,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::WorldNew,
        Layer::ExperimentMeasure,
        Layer::VmAllocFill,
        Layer::InputPost,
        Layer::OutputSend,
        Layer::WorldRun,
        Layer::VmVerify,
        Layer::VmFree,
        Layer::CqPost,
        Layer::CqSubmit,
        Layer::CqHarvest,
        Layer::CqPoll,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::WorldNew => "world.new",
            Layer::ExperimentMeasure => "experiment.measure",
            Layer::VmAllocFill => "vm.alloc_fill",
            Layer::InputPost => "input.post",
            Layer::OutputSend => "output.send",
            Layer::WorldRun => "world.run",
            Layer::VmVerify => "vm.verify",
            Layer::VmFree => "vm.free",
            Layer::CqPost => "cq.post",
            Layer::CqSubmit => "cq.submit",
            Layer::CqHarvest => "cq.harvest",
            Layer::CqPoll => "cq.poll",
        }
    }
}

/// Span name of a whole step (the parent of every call span in it).
const STEP: &str = "step";
/// Parent id of a span that belongs to no step (set-up calls).
const NO_PARENT: u32 = u32::MAX;
/// Spans kept in memory per run; totals keep counting past the cap.
const SPAN_CAP: usize = 400_000;

/// One recorded span. Times are nanoseconds since the probe's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of this span in the kept list.
    pub id: u32,
    /// Id of the enclosing step span, or [`NO_PARENT`].
    pub parent: u32,
    /// Step number within the run, or [`NO_PARENT`] for set-up.
    pub step: u32,
    /// `Some(layer)` for a call, `None` for a step.
    pub layer: Option<Layer>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Step timing plus, when tracing, per-call spans and per-layer totals.
pub struct Probe {
    origin: Instant,
    tracing: bool,
    in_step: bool,
    step_no: u32,
    /// Index of the first span kept in the current step.
    step_first: usize,
    /// Host time per layer over traced steps (and traced set-up for
    /// [`Layer::WorldNew`]), in ns.
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Calls per layer, counted like `layer_ns`.
    pub layer_calls: [u64; Layer::ALL.len()],
    /// `World::run` time accumulated in the current step.
    step_run_ns: u64,
    /// Kept spans (calls and steps), in end order.
    pub spans: Vec<Span>,
    /// Spans not kept because the cap was reached.
    pub spans_dropped: u64,
}

impl Probe {
    /// A probe with tracing off.
    pub fn new() -> Self {
        Probe {
            origin: Instant::now(),
            tracing: false,
            in_step: false,
            step_no: 0,
            step_first: 0,
            layer_ns: [0; Layer::ALL.len()],
            layer_calls: [0; Layer::ALL.len()],
            step_run_ns: 0,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Turns per-call tracing on or off (step timing is always on).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Runs `f` as one call into `layer`, timing it when tracing.
    /// Set-up calls are only counted for [`Layer::WorldNew`]; other
    /// layers count inside steps only, so warm-up work stays out of
    /// the per-op figures.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.in_step || layer == Layer::WorldNew {
            let ns = (t1 - t0).as_nanos() as u64;
            let i = layer as usize;
            self.layer_ns[i] += ns;
            self.layer_calls[i] += 1;
            if layer == Layer::WorldRun {
                self.step_run_ns += ns;
            }
            let step = if self.in_step {
                self.step_no
            } else {
                NO_PARENT
            };
            self.keep(NO_PARENT, step, Some(layer), t0, t1);
        }
        r
    }

    /// Marks the start of a step; returns its start time.
    pub fn begin_step(&mut self) -> Instant {
        self.in_step = true;
        self.step_run_ns = 0;
        self.step_first = self.spans.len();
        Instant::now()
    }

    /// Marks the end of a step that began at `t0`; returns its duration
    /// in ns and the step's `World::run` time in ns.
    pub fn end_step(&mut self, t0: Instant) -> (u64, u64) {
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        if self.tracing {
            // Children end before their step, so they were kept first;
            // they learn their parent's id now.
            if let Some(id) = self.keep(NO_PARENT, self.step_no, None, t0, t1) {
                for s in &mut self.spans[self.step_first..id as usize] {
                    s.parent = id;
                }
            }
        }
        self.in_step = false;
        self.step_no += 1;
        (ns, self.step_run_ns)
    }

    fn keep(
        &mut self,
        parent: u32,
        step: u32,
        layer: Option<Layer>,
        t0: Instant,
        t1: Instant,
    ) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            step,
            layer,
            start: (t0 - self.origin).as_nanos() as u64,
            end: (t1 - self.origin).as_nanos() as u64,
        });
        Some(id)
    }

    /// Self times recomputed from the kept spans: per layer, and for
    /// the steps themselves (step duration minus the union of its
    /// children's intervals — the driver's own time). Returns
    /// `(per-layer self ns, step self ns, step wall ns)` over the
    /// complete steps among the kept spans.
    pub fn self_times(&self) -> ([u64; Layer::ALL.len()], u64, u64) {
        let mut layer = [0u64; Layer::ALL.len()];
        let (mut step_self, mut step_wall) = (0u64, 0u64);
        let mut children: Vec<(u64, u64, Layer)> = Vec::new();
        for s in &self.spans {
            match s.layer {
                Some(l) if s.parent != NO_PARENT => children.push((s.start, s.end, l)),
                Some(_) => {}
                None => {
                    // A step's children are the spans kept since the
                    // previous step.
                    children.sort_unstable_by_key(|c| c.0);
                    let mut covered = 0u64;
                    let mut reach = s.start;
                    for &(a, b, l) in &children {
                        layer[l as usize] += b.saturating_sub(a);
                        let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                    children.clear();
                    let wall = s.end - s.start;
                    step_wall += wall;
                    step_self += wall.saturating_sub(covered);
                }
            }
        }
        (layer, step_self, step_wall)
    }

    /// Writes the kept spans as tab-separated lines:
    /// `id parent step name start_ns end_ns`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tstep\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let name = s.layer.map_or(STEP, Layer::name);
            let opt = |v: u32| {
                if v == NO_PARENT {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{name}\t{}\t{}",
                s.id,
                opt(s.parent),
                opt(s.step),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
