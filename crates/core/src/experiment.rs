//! Experiment drivers for the paper's Section 7 measurements.
//!
//! [`latency_sweep`] reproduces the latency figures (3, 5, 6, 7):
//! one-way datagram latency for a (semantics, input-buffering,
//! alignment) combination over a range of sizes. [`measure_ping_pong`]
//! measures Figure 4's CPU utilization using a ping-pong exchange.
//! Every measured exchange also verifies the received bytes equal the
//! sent bytes, so the performance experiments double as end-to-end
//! integrity checks.
//!
//! Each measured cell drives its own single-threaded `World`
//! (deterministic by design). A latency sweep is one such cell: a
//! [`SeriesContext`] reuses one `World` across the sweep's sizes
//! instead of rebuilding (and re-zeroing) its physical memory per
//! point; every exchange starts from a quiesced world with freshly
//! allocated buffers and a warm-up round, so a reused world measures
//! exactly what a fresh one does. Callers fan whole sweeps out to the
//! `genie-runner` worker pool, which collects results by cell index,
//! so output is byte-identical at any thread count.

use genie_machine::{LinkSpec, MachineSpec, SimTime};
use genie_net::{InputBuffering, Vc, HEADER_LEN};
use genie_trace::metrics::MetricsRegistry;
use genie_trace::{SampleConfig, TraceSet};
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
            // are first allocated), but it is the point a leak runs out
            // of frames.
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
    /// through region caches that keep no more than each space asks
    /// back for), so the frame budget only has to cover the largest
    /// single point — with generous headroom — not the whole series,
    /// however often it is measured. Small worlds matter twice over:
    /// building one touches less memory, and a compact live frame set
    /// keeps the per-exchange data copies cache-warm.
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
        let mut app_bufs = None;
        self.exchange(semantics, bytes, 0, &mut app_bufs)?;
        let latency = self.exchange(semantics, bytes, 1, &mut app_bufs)?;
        self.free_app_bufs(app_bufs);
        Ok(latency)
    }

    /// One exchange of `bytes` (payload pattern `seed`) from the
    /// context's sender to its receiver, reusing `app_bufs` when the
    /// semantics uses application buffers.
    fn exchange(
        &mut self,
        semantics: Semantics,
        bytes: usize,
        seed: u8,
        app_bufs: &mut Option<(u64, u64)>,
    ) -> Result<SimTime, GenieError> {
        with_payload(bytes, seed, |data| {
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
                app_bufs,
            )
        })
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
    ) -> Result<(SimTime, TraceSet, MetricsRegistry), GenieError> {
        self.measure_latency_sampled(semantics, bytes, &SampleConfig::default())
    }

    /// [`SeriesContext::measure_latency_traced`] under a flight-recorder
    /// sampling policy, for trace exports that ask for one.
    pub fn measure_latency_sampled(
        &mut self,
        semantics: Semantics,
        bytes: usize,
        sample: &SampleConfig,
    ) -> Result<(SimTime, TraceSet, MetricsRegistry), GenieError> {
        self.traced_round(semantics, bytes, sample, World::metrics)
    }

    /// The measured round's latency and complete trace, without the
    /// metrics snapshot: [`TraceSet::charges`] then yields every
    /// operation both hosts charged, in order. Table 6's fits and the
    /// latency waterfall read it.
    pub fn measure_charges(
        &mut self,
        semantics: Semantics,
        bytes: usize,
    ) -> Result<(SimTime, TraceSet), GenieError> {
        let (latency, trace, ()) =
            self.traced_round(semantics, bytes, &SampleConfig::default(), |_| ())?;
        Ok((latency, trace))
    }

    /// The traced measured round behind every traced measurement: the
    /// warm-up round runs untraced, both ledgers are reset, the
    /// measured exchange runs traced under `sample`, and `read`
    /// observes the world before the round's buffers are freed. Under
    /// the keep-all config the trace must hold every charge — an
    /// evicted or sampled-out span would silently truncate a fit — so
    /// losing one panics.
    fn traced_round<R>(
        &mut self,
        semantics: Semantics,
        bytes: usize,
        sample: &SampleConfig,
        read: impl FnOnce(&World) -> R,
    ) -> Result<(SimTime, TraceSet, R), GenieError> {
        let mut app_bufs = None;
        self.exchange(semantics, bytes, 0, &mut app_bufs)?;
        for h in [HostId::A, HostId::B] {
            self.w.host_mut(h).ledger.reset();
        }
        self.w.set_sampling(sample);
        self.w.enable_tracing(true);
        let latency = self.exchange(semantics, bytes, 1, &mut app_bufs)?;
        let evicted =
            self.w.host(HostId::A).tracer.dropped() + self.w.host(HostId::B).tracer.dropped();
        let trace = self.w.take_trace();
        assert!(
            sample.is_active() || evicted + trace.dropped_spans_total() == 0,
            "traced round lost {evicted} evicted and {} sampled-out spans",
            trace.dropped_spans_total()
        );
        let read = read(&self.w);
        self.w.enable_tracing(false);
        self.free_app_bufs(app_bufs);
        Ok((latency, trace, read))
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

/// Latency sweep over datagram sizes (Figures 3, 5, 6, 7): one
/// [`SeriesContext`] measures every size in order, and the points come
/// back in size order. A sweep is one serial unit of work; a caller
/// that wants parallelism runs independent sweeps as pool cells.
pub fn latency_sweep(
    setup: &ExperimentSetup,
    semantics: Semantics,
    sizes: &[usize],
) -> Vec<ExperimentPoint> {
    let mut ctx = SeriesContext::new(setup, sizes);
    sizes
        .iter()
        .map(|&bytes| ExperimentPoint {
            bytes,
            latency: ctx.measure_latency(semantics, bytes).expect("experiment"),
        })
        .collect()
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
    // Direction 0 sends A -> B on VC 1, direction 1 B -> A on VC 2,
    // each reusing its own application buffer pair.
    let ends = [(HostId::A, pa), (HostId::B, pb)];
    let mut bufs: [Option<(u64, u64)>; 2] = [None, None];
    let mut half_round = |w: &mut World, dir: usize, seed: u8| -> Result<SimTime, GenieError> {
        let ((from, tx), (to, rx)) = (ends[dir], ends[1 - dir]);
        with_payload(bytes, seed, |data| {
            one_exchange_between(
                w,
                semantics,
                Vc(1 + dir as u32),
                from,
                tx,
                to,
                rx,
                setup.recv_page_off,
                data,
                &mut bufs[dir],
            )
        })
    };

    // Warm-up round.
    half_round(&mut w, 0, 0)?;
    half_round(&mut w, 1, 1)?;
    let busy0 = w.host(HostId::A).ledger.busy();
    let t0 = w.now();
    let mut last = SimTime::ZERO;
    for r in 0..rounds {
        last = half_round(&mut w, 0, r as u8)?;
        half_round(&mut w, 1, (r as u8).wrapping_add(128))?;
    }
    let busy1 = w.host(HostId::A).ledger.busy();
    let t1 = w.now();
    let elapsed = (t1 - t0).as_us().max(1e-9);
    Ok((last, (busy1 - busy0).as_us() / elapsed))
}

/// Generalized exchange between arbitrary endpoints (used by the
/// ping-pong driver and `SeriesContext::exchange`).
///
/// Application-allocated semantics reuse one buffer pair, held in
/// `app_bufs`, across the warm-up and the measured round, so this
/// keeps its own allocation branch instead of calling
/// [`World::alloc_source`] and [`World::post_receive`]: fresh buffers
/// would add zero-fill faults and move the measured latencies.
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
    let src = match semantics.allocation() {
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
            src
        }
        Allocation::System => {
            w.input(to, InputRequest::system(semantics, vc, rx_space, bytes))?;
            w.host_mut(from).alloc_io_buffer(tx_space, bytes)?.1
        }
    };
    w.app_write(from, tx_space, src, data)?;
    w.output(
        from,
        OutputRequest::new(semantics, vc, tx_space, src, bytes),
    )?;
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
    for _ in 0..count {
        w.post_receive(HostId::B, rx, semantics, Vc(1), bytes, setup.recv_page_off)?;
    }
    let start = w.host(HostId::A).clock;
    let busy0 = w.host(HostId::B).ledger.busy();
    // Fire all outputs back to back; prepare stages serialize on the
    // sender CPU, transmissions on the wire.
    for i in 0..count {
        let src = with_payload(bytes, i as u8, |data| {
            w.alloc_source(HostId::A, tx, semantics, data)
        })?;
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

/// Runs the two-round exchange of [`measure_latency`] with tracing
/// enabled during the measured round, returning the latency, the
/// structured trace, and a metrics snapshot — both covering exactly
/// the measured round (the ledger is reset after warm-up).
pub fn measure_latency_traced(
    setup: &ExperimentSetup,
    semantics: Semantics,
    bytes: usize,
) -> Result<(SimTime, TraceSet, MetricsRegistry), GenieError> {
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

    /// Past 128 rounds the return half's payload seed wraps instead of
    /// overflowing a `u8` (a panic in debug builds).
    #[test]
    fn ping_pong_runs_past_128_rounds() {
        let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
        let (lat, util) = measure_ping_pong(&setup, Semantics::Copy, 1024, 130).unwrap();
        assert!(lat > SimTime::ZERO && util > 0.0);
    }
}
