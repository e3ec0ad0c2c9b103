//! Experiment drivers for the paper's Section 7 measurements.
//!
//! [`latency_sweep`] reproduces the latency figures (3, 5, 6, 7):
//! one-way datagram latency for a (semantics, input-buffering,
//! alignment) combination over a range of sizes. [`utilization_sweep`]
//! reproduces Figure 4's CPU utilization using a ping-pong exchange.
//! Every measured exchange also verifies the received bytes equal the
//! sent bytes, so the performance experiments double as end-to-end
//! integrity checks.
//!
//! Each measured cell drives its own single-threaded `World`
//! (deterministic by design); the sweeps fan independent cells out to
//! the `genie-runner` worker pool and collect results by cell index,
//! so sweep output is byte-identical at any thread count. Within one
//! worker's share of a sweep, a [`SeriesContext`] reuses one `World`
//! across sizes instead of rebuilding (and re-zeroing) its physical
//! memory per point; every exchange starts from a quiesced world with
//! freshly allocated buffers and a warm-up round, so a reused world
//! measures exactly what a fresh one does.

use genie_machine::{LinkSpec, MachineSpec, SimTime};
use genie_net::{InputBuffering, Vc, HEADER_LEN};
use genie_vm::SpaceId;

use crate::config::GenieConfig;
use crate::error::GenieError;
use crate::input::InputRequest;
use crate::output::OutputRequest;
use crate::semantics::{Allocation, Semantics};
use crate::world::{HostId, World, WorldConfig};

/// An experiment configuration: platform, link, input buffering, and
/// receiver buffer alignment.
#[derive(Clone, Debug)]
pub struct ExperimentSetup {
    /// Machine on both hosts.
    pub machine: MachineSpec,
    /// The link.
    pub link: LinkSpec,
    /// Receive-side input buffering.
    pub rx_buffering: InputBuffering,
    /// Receiver application-buffer page offset (application-allocated
    /// semantics): [`HEADER_LEN`] for application-aligned pooled
    /// buffers, 0 for page-aligned/unaligned-to-PDU buffers.
    pub recv_page_off: usize,
    /// Genie parameters.
    pub genie: GenieConfig,
}

impl ExperimentSetup {
    /// Figure 3/5 setup: early demultiplexing, page-aligned buffers.
    pub fn early_demux(machine: MachineSpec) -> Self {
        ExperimentSetup {
            machine,
            link: LinkSpec::oc3(),
            rx_buffering: InputBuffering::EarlyDemux,
            recv_page_off: 0,
            genie: GenieConfig::default(),
        }
    }

    /// Figure 6 setup: pooled input buffering, application buffers
    /// aligned to the PDU data offset.
    pub fn pooled_aligned(machine: MachineSpec) -> Self {
        ExperimentSetup {
            rx_buffering: InputBuffering::Pooled,
            recv_page_off: HEADER_LEN,
            ..Self::early_demux(machine)
        }
    }

    /// Figure 7 setup: pooled input buffering, unaligned application
    /// buffers.
    pub fn pooled_unaligned(machine: MachineSpec) -> Self {
        ExperimentSetup {
            rx_buffering: InputBuffering::Pooled,
            recv_page_off: 0,
            ..Self::early_demux(machine)
        }
    }

    /// Section 6.2.3 setup: outboard buffering (the paper could not
    /// measure this; we simulate it).
    pub fn outboard(machine: MachineSpec) -> Self {
        ExperimentSetup {
            rx_buffering: InputBuffering::Outboard,
            recv_page_off: 0,
            ..Self::early_demux(machine)
        }
    }

    /// Builds the world configuration.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            machine_a: self.machine.clone(),
            machine_b: self.machine.clone(),
            link: self.link.clone(),
            rx_buffering: self.rx_buffering,
            genie: self.genie,
            // Ample headroom over the 15-page maximum datagram. The
            // budget costs nothing up front (frames are built as they
            // are first allocated), but it is the limit `free_per_mille`
            // divides by and the point a leak runs out of frames.
            frames_per_host: 768,
            ..WorldConfig::default()
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentPoint {
    /// Datagram length in bytes.
    pub bytes: usize,
    /// One-way end-to-end latency.
    pub latency: SimTime,
    /// CPU utilization in [0, 1] (zero for pure latency sweeps).
    pub utilization: f64,
}

/// Deterministic payload pattern.
fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(seed as u64) as u8)
        .collect()
}

thread_local! {
    /// The seed-0 payload pattern, grown on demand to the longest
    /// length asked for plus one 256-byte period. A sweep measures
    /// thousands of points at dozens of sizes, so regenerating the
    /// pattern byte by byte per call was a visible slice of host
    /// wall-clock; at steady state every call is a slice of this one
    /// buffer.
    static PATTERN: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The inverse of 31 modulo 256. Byte `i` of seed `s`'s pattern is
/// `31*i + s = 31*(i + s*INV31)` (mod 256), so every seed's pattern is
/// the seed-0 pattern read from offset `s*INV31 mod 256`.
const INV31: usize = 223;

/// Runs `f` over the deterministic payload pattern (same bytes as
/// [`payload`]), sliced from a shared buffer: no allocation and no
/// per-byte generation at steady state.
fn with_payload<R>(len: usize, seed: u8, f: impl FnOnce(&[u8]) -> R) -> R {
    // Taken out (not borrowed) for the call, so `f` may call
    // `with_payload` itself.
    let mut buf = PATTERN.take();
    let need = len + 255;
    if buf.len() < need {
        let have = buf.len();
        buf.extend((have..need).map(|i| (i as u64).wrapping_mul(31) as u8));
    }
    let off = usize::from(seed) * INV31 % 256;
    let data = &buf[off..off + len];
    debug_assert_eq!(data, payload(len, seed));
    let r = f(data);
    PATTERN.with_borrow_mut(|p| {
        if p.len() < buf.len() {
            *p = buf;
        }
    });
    r
}

/// A reusable measurement context: one `World` (with its sender and
/// receiver processes) shared by consecutive measurements of a series.
///
/// Reuse skips rebuilding both hosts (VM, adapter, overlay pool and
/// cost ledger) for every point of a series, and keeps the pages the
/// first measurement wrote backed for the next. Reuse is
/// measurement-neutral: every exchange quiesces the world
/// first, each size allocates fresh buffers, and each measurement runs
/// its own warm-up round — so a reused world reports the same latency
/// as a fresh one (the determinism tests and the committed report
/// baseline both check this).
pub struct SeriesContext {
    setup: ExperimentSetup,
    w: World,
    tx: SpaceId,
    rx: SpaceId,
}

impl SeriesContext {
    /// Builds a context sized to measure any one of `sizes` at a time.
    /// Each measurement frees its application buffers when it
    /// completes (and the system-allocated semantics recycle regions
    /// through the region cache), so the frame budget only has to
    /// cover the largest single point — with generous headroom — not
    /// the whole series. Small worlds matter twice over: building one
    /// touches less memory, and a compact live frame set keeps the
    /// per-exchange data copies cache-warm.
    pub fn new(setup: &ExperimentSetup, sizes: &[usize]) -> Self {
        let mut cfg = setup.world_config();
        cfg.frames_per_host += sizes
            .iter()
            .map(|&b| 8 * (b / cfg.machine_a.page_size + 2))
            .max()
            .unwrap_or(0);
        let mut w = World::new(cfg);
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        SeriesContext {
            setup: setup.clone(),
            w,
            tx,
            rx,
        }
    }

    /// Measures one-way latency at one size (one warm-up round so
    /// region caches and buffer pages are warm, then the measured
    /// round).
    pub fn measure_latency(
        &mut self,
        semantics: Semantics,
        bytes: usize,
    ) -> Result<SimTime, GenieError> {
        let mut last = SimTime::ZERO;
        let mut app_bufs: Option<(u64, u64)> = None;
        for round in 0..2u8 {
            last = with_payload(bytes, round, |data| {
                one_exchange_between(
                    &mut self.w,
                    semantics,
                    Vc(1),
                    HostId::A,
                    self.tx,
                    HostId::B,
                    self.rx,
                    self.setup.recv_page_off,
                    data,
                    &mut app_bufs,
                )
            })?;
        }
        self.free_app_bufs(app_bufs);
        Ok(last)
    }

    /// Returns a completed measurement's application buffers to the
    /// world. Purely host-side (no simulated charge), but essential
    /// for wall-clock: without it every measured point leaks one
    /// (send, receive) buffer pair, the world's live frame set grows
    /// for the whole series, and every data copy runs against
    /// cache-cold memory.
    fn free_app_bufs(&mut self, app_bufs: Option<(u64, u64)>) {
        if let Some((src, dst)) = app_bufs {
            self.w
                .host_mut(HostId::A)
                .free_buffer(self.tx, src)
                .expect("free send buffer");
            self.w
                .host_mut(HostId::B)
                .free_buffer(self.rx, dst)
                .expect("free receive buffer");
        }
    }

    /// Like [`SeriesContext::measure_latency`], but traces the
    /// measured round: the warm-up round runs untraced, both ledgers
    /// are reset, then the measured exchange runs with tracing on, so
    /// the returned trace and metrics cover exactly the measured
    /// round's charges.
    pub fn measure_latency_traced(
        &mut self,
        semantics: Semantics,
        bytes: usize,
    ) -> Result<
        (
            SimTime,
            genie_trace::TraceSet,
            genie_trace::metrics::MetricsRegistry,
        ),
        GenieError,
    > {
        let mut app_bufs: Option<(u64, u64)> = None;
        let (tx, rx, page_off) = (self.tx, self.rx, self.setup.recv_page_off);
        let exchange = |w: &mut World, seed: u8, bufs: &mut Option<(u64, u64)>| {
            with_payload(bytes, seed, |data| {
                one_exchange_between(
                    w,
                    semantics,
                    Vc(1),
                    HostId::A,
                    tx,
                    HostId::B,
                    rx,
                    page_off,
                    data,
                    bufs,
                )
            })
        };
        exchange(&mut self.w, 0, &mut app_bufs)?;
        for h in [HostId::A, HostId::B] {
            self.w.host_mut(h).ledger.reset();
        }
        self.w.enable_tracing(true);
        let latency = exchange(&mut self.w, 1, &mut app_bufs)?;
        let trace = self.w.take_trace();
        let metrics = self.w.metrics();
        self.w.enable_tracing(false);
        self.free_app_bufs(app_bufs);
        Ok((latency, trace, metrics))
    }

    /// Like [`SeriesContext::measure_latency`], but records the ledger
    /// samples of the measured round on both hosts (the warm-up round
    /// is unrecorded, exactly as in the standalone
    /// [`measure_latency_recorded`]).
    pub fn measure_latency_recorded(
        &mut self,
        semantics: Semantics,
        bytes: usize,
    ) -> Result<(SimTime, Vec<genie_machine::Sample>), GenieError> {
        let mut app_bufs: Option<(u64, u64)> = None;
        let (tx, rx, page_off) = (self.tx, self.rx, self.setup.recv_page_off);
        let exchange = |w: &mut World, seed: u8, bufs: &mut Option<(u64, u64)>| {
            with_payload(bytes, seed, |data| {
                one_exchange_between(
                    w,
                    semantics,
                    Vc(1),
                    HostId::A,
                    tx,
                    HostId::B,
                    rx,
                    page_off,
                    data,
                    bufs,
                )
            })
        };
        exchange(&mut self.w, 0, &mut app_bufs)?;
        self.w.host_mut(HostId::A).ledger.record_samples(true);
        self.w.host_mut(HostId::B).ledger.record_samples(true);
        let latency = exchange(&mut self.w, 1, &mut app_bufs)?;
        let mut samples = self.w.host(HostId::A).ledger.samples().to_vec();
        samples.extend_from_slice(self.w.host(HostId::B).ledger.samples());
        for h in [HostId::A, HostId::B] {
            let ledger = &mut self.w.host_mut(h).ledger;
            ledger.record_samples(false);
            ledger.clear_samples();
        }
        self.free_app_bufs(app_bufs);
        Ok((latency, samples))
    }
}

/// Drives one measured exchange (with one warm-up round so region
/// caches and buffer pages are warm) and returns the measured latency.
pub fn measure_latency(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
) -> Result<SimTime, GenieError> {
    SeriesContext::new(setup, &[bytes]).measure_latency(semantics, bytes)
}

/// Latency sweep over datagram sizes (Figures 3, 5, 6, 7).
///
/// Sizes are split into contiguous chunks, one per worker thread; each
/// chunk reuses a single [`SeriesContext`]. Results come back in size
/// order regardless of thread count.
///
/// Sweeps are memoized on `(setup, semantics, sizes)`: several
/// exhibits fit or re-plot the very same deterministic points (the
/// Figure 3/6/7 sweeps are also Table 7's "A" lines), and a full
/// report run should simulate each distinct sweep once.
pub fn latency_sweep(
    setup: &ExperimentSetup,
    semantics: Semantics,
    sizes: &[usize],
) -> Vec<ExperimentPoint> {
    if sizes.is_empty() {
        return Vec::new();
    }
    static CACHE: std::sync::Mutex<Vec<(String, Vec<ExperimentPoint>)>> =
        std::sync::Mutex::new(Vec::new());
    let key = format!("{setup:?}|{semantics:?}|{sizes:?}");
    if let Some((_, pts)) = CACHE.lock().unwrap().iter().find(|(k, _)| *k == key) {
        return pts.clone();
    }
    let pts = latency_sweep_uncached(setup, semantics, sizes);
    CACHE.lock().unwrap().push((key, pts.clone()));
    pts
}

/// The uncached sweep behind [`latency_sweep`].
fn latency_sweep_uncached(
    setup: &ExperimentSetup,
    semantics: Semantics,
    sizes: &[usize],
) -> Vec<ExperimentPoint> {
    let threads = genie_runner::configured_threads().clamp(1, sizes.len());
    let chunks: Vec<&[usize]> = sizes.chunks(sizes.len().div_ceil(threads)).collect();
    genie_runner::map(&chunks, |chunk| {
        let mut ctx = SeriesContext::new(setup, chunk);
        chunk
            .iter()
            .map(|&bytes| ExperimentPoint {
                bytes,
                latency: ctx.measure_latency(semantics, bytes).expect("experiment"),
                utilization: 0.0,
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// CPU utilization via ping-pong exchange (Figure 4): each host
/// alternately sends and receives; utilization is host A's busy time
/// over elapsed time, after a warm-up round. Each size is an
/// independent cell on the worker pool.
pub fn utilization_sweep(
    setup: &ExperimentSetup,
    semantics: Semantics,
    sizes: &[usize],
    rounds: usize,
) -> Vec<ExperimentPoint> {
    genie_runner::map(sizes, |&bytes| {
        let (latency, utilization) =
            measure_ping_pong(setup, semantics, bytes, rounds).expect("experiment");
        ExperimentPoint {
            bytes,
            latency,
            utilization,
        }
    })
}

/// Runs `rounds` ping-pong rounds and returns (one-way latency of the
/// last exchange, CPU utilization of host A).
pub fn measure_ping_pong(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
    rounds: usize,
) -> Result<(SimTime, f64), GenieError> {
    let mut w = World::new(setup.world_config());
    let pa = w.create_process(HostId::A);
    let pb = w.create_process(HostId::B);
    let mut bufs_ab: Option<(u64, u64)> = None;
    let mut bufs_ba: Option<(u64, u64)> = None;

    let mut half_round = |w: &mut World, dir: bool, seed: u8| -> Result<SimTime, GenieError> {
        if dir {
            with_payload(bytes, seed, |data| {
                one_exchange_between(
                    w,
                    semantics,
                    Vc(1),
                    HostId::A,
                    pa,
                    HostId::B,
                    pb,
                    setup.recv_page_off,
                    data,
                    &mut bufs_ab,
                )
            })
        } else {
            with_payload(bytes, seed, |data| {
                one_exchange_between(
                    w,
                    semantics,
                    Vc(2),
                    HostId::B,
                    pb,
                    HostId::A,
                    pa,
                    setup.recv_page_off,
                    data,
                    &mut bufs_ba,
                )
            })
        }
    };

    // Warm-up round.
    half_round(&mut w, true, 0)?;
    half_round(&mut w, false, 1)?;
    let busy0 = w.host(HostId::A).ledger.busy();
    let t0 = w.now();
    let mut last = SimTime::ZERO;
    for r in 0..rounds {
        last = half_round(&mut w, true, r as u8)?;
        half_round(&mut w, false, r as u8 + 128)?;
    }
    let busy1 = w.host(HostId::A).ledger.busy();
    let t1 = w.now();
    let elapsed = (t1 - t0).as_us().max(1e-9);
    Ok((last, (busy1 - busy0).as_us() / elapsed))
}

/// Generalized exchange between arbitrary endpoints (used by the
/// ping-pong driver).
#[allow(clippy::too_many_arguments)]
fn one_exchange_between(
    w: &mut World,
    semantics: Semantics,
    vc: Vc,
    from: HostId,
    tx_space: SpaceId,
    to: HostId,
    rx_space: SpaceId,
    recv_page_off: usize,
    data: &[u8],
    app_bufs: &mut Option<(u64, u64)>,
) -> Result<SimTime, GenieError> {
    let bytes = data.len();
    // Both hosts idle before a measured exchange, as in the paper's
    // isolated runs.
    w.quiesce();
    match semantics.allocation() {
        Allocation::Application => {
            if app_bufs.is_none() {
                let src = w.host_mut(from).alloc_buffer(tx_space, bytes, 0)?;
                let dst = w
                    .host_mut(to)
                    .alloc_buffer(rx_space, bytes, recv_page_off)?;
                *app_bufs = Some((src, dst));
            }
            let (src, dst) = app_bufs.expect("buffers");
            w.input(to, InputRequest::app(semantics, vc, rx_space, dst, bytes))?;
            w.app_write(from, tx_space, src, data)?;
            w.output(
                from,
                OutputRequest::new(semantics, vc, tx_space, src, bytes),
            )?;
        }
        Allocation::System => {
            w.input(to, InputRequest::system(semantics, vc, rx_space, bytes))?;
            let (_, src) = w.host_mut(from).alloc_io_buffer(tx_space, bytes)?;
            w.app_write(from, tx_space, src, data)?;
            w.output(
                from,
                OutputRequest::new(semantics, vc, tx_space, src, bytes),
            )?;
        }
    }
    w.run();
    let done = w.take_completed_inputs();
    let _ = w.take_completed_outputs();
    assert_eq!(done.len(), 1);
    let c = done[0];
    assert_eq!(c.len, data.len(), "short delivery under {semantics}");
    if !w.app_matches(to, rx_space, c.vaddr, data)? {
        // Materialize the received bytes only on the failure path,
        // where the diff in the panic message is worth the copy.
        let got = w.read_app(to, rx_space, c.vaddr, c.len)?;
        assert_eq!(got, data, "corrupted delivery under {semantics}");
    }
    if let Some(region) = c.region {
        w.release_input_region(to, region, semantics)?;
    }
    Ok(c.latency)
}

/// Streams `count` back-to-back datagrams A→B and returns the
/// aggregate goodput in Mbit/s plus the receiver's CPU utilization
/// over the stream.
///
/// With the wire serializing transmissions, the pipeline is
/// link-bound for every semantics — which is exactly why the paper
/// reports latencies rather than throughput ("to simplify analysis");
/// the semantics reappear in the CPU utilization.
pub fn measure_stream(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
    count: usize,
) -> Result<(f64, f64), GenieError> {
    let mut cfg = setup.world_config();
    // Streams keep several datagrams' buffers alive at once.
    cfg.frames_per_host = (count + 4) * (bytes / 4096 + 2) + 256;
    let mut w = World::new(cfg);
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);

    // Prepost all inputs.
    let mut dsts = Vec::new();
    for _ in 0..count {
        match semantics.allocation() {
            Allocation::Application => {
                let dst = w
                    .host_mut(HostId::B)
                    .alloc_buffer(rx, bytes, setup.recv_page_off)?;
                w.input(
                    HostId::B,
                    InputRequest::app(semantics, Vc(1), rx, dst, bytes),
                )?;
                dsts.push(dst);
            }
            Allocation::System => {
                w.input(HostId::B, InputRequest::system(semantics, Vc(1), rx, bytes))?;
            }
        }
    }
    let start = w.host(HostId::A).clock;
    let busy0 = w.host(HostId::B).ledger.busy();
    // Fire all outputs back to back; prepare stages serialize on the
    // sender CPU, transmissions on the wire.
    for i in 0..count {
        let src = match semantics.allocation() {
            Allocation::Application => w.host_mut(HostId::A).alloc_buffer(tx, bytes, 0)?,
            Allocation::System => w.host_mut(HostId::A).alloc_io_buffer(tx, bytes)?.1,
        };
        with_payload(bytes, i as u8, |data| w.app_write(HostId::A, tx, src, data))?;
        w.output(
            HostId::A,
            OutputRequest::new(semantics, Vc(1), tx, src, bytes),
        )?;
    }
    w.run();
    let done = w.take_completed_inputs();
    assert_eq!(done.len(), count, "stream must deliver everything");
    let mut last = SimTime::ZERO;
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.seq as usize, i, "in-order delivery");
        let got = w.read_app(HostId::B, rx, c.vaddr, c.len)?;
        assert_eq!(got, payload(bytes, i as u8), "datagram {i} corrupted");
        last = last.max(c.completed_at);
    }
    let elapsed = last - start;
    let goodput = (count * bytes) as f64 * 8.0 / elapsed.as_us();
    let util = (w.host(HostId::B).ledger.busy() - busy0).as_us() / elapsed.as_us();
    Ok((goodput, util))
}

/// Runs the two-round exchange of [`measure_latency`] with ledger
/// sample recording enabled during the measured round, returning the
/// latency plus the recorded operation samples of both hosts (the
/// equivalent of the paper's cycle-counter instrumentation used to
/// build Table 6).
pub fn measure_latency_recorded(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
) -> Result<(SimTime, Vec<genie_machine::Sample>), GenieError> {
    SeriesContext::new(setup, &[bytes]).measure_latency_recorded(semantics, bytes)
}

/// Runs the two-round exchange of [`measure_latency`] with tracing
/// enabled during the measured round, returning the latency, the
/// structured trace, and a metrics snapshot — both covering exactly
/// the measured round (the ledger is reset after warm-up).
pub fn measure_latency_traced(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
) -> Result<
    (
        SimTime,
        genie_trace::TraceSet,
        genie_trace::metrics::MetricsRegistry,
    ),
    GenieError,
> {
    SeriesContext::new(setup, &[bytes]).measure_latency_traced(semantics, bytes)
}

/// Equivalent throughput in Mbit/s of a single datagram of `bytes`
/// delivered in `latency` (how the paper reports Figures 3/6/7 in
/// prose).
pub fn throughput_mbps(bytes: usize, latency: SimTime) -> f64 {
    (bytes as f64 * 8.0) / latency.as_us()
}

/// Summary of a latency sample set: the distribution shape the N-host
/// contention suites report per semantics (the paper's two-host runs
/// are deterministic point measurements; under fan-in contention the
/// *spread* carries the signal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyDistribution {
    /// Number of samples summarized.
    pub count: usize,
    /// Smallest sample.
    pub min: SimTime,
    /// Median (nearest-rank).
    pub p50: SimTime,
    /// 99th percentile (nearest-rank).
    pub p99: SimTime,
    /// Largest sample.
    pub max: SimTime,
    /// Arithmetic mean.
    pub mean: SimTime,
}

impl LatencyDistribution {
    /// Summarizes a sample set. Returns `None` for an empty set.
    pub fn from_samples(samples: &[SimTime]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| {
            // Nearest-rank percentile: ceil(p * n) clamped to [1, n].
            let n = sorted.len();
            let r = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[r - 1]
        };
        let sum: u64 = sorted.iter().map(|t| t.0).sum();
        Some(LatencyDistribution {
            count: sorted.len(),
            min: sorted[0],
            p50: rank(0.50),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
            mean: SimTime(sum / sorted.len() as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_conversion() {
        // 61440 bytes in 3932 us ~ 125 Mbps.
        let t = throughput_mbps(61_440, SimTime::from_us(3932.0));
        assert!((t - 125.0).abs() < 1.0, "{t}");
    }

    /// Every seed's window into the shared pattern buffer holds exactly
    /// that seed's bytes, at lengths below, at and across the 256-byte
    /// period, asked for in growing and shrinking order.
    #[test]
    fn shared_pattern_matches_payload_for_every_seed() {
        for len in [0, 1, 255, 256, 257, 4097, 300, 2] {
            for seed in 0..=255u8 {
                with_payload(len, seed, |data| assert_eq!(data, payload(len, seed)));
            }
        }
    }
}
