//! Observability surface of a [`World`]: tracing control, trace
//! extraction, and the unified metrics registry.
//!
//! Tracing is off by default and every instrumentation point is gated
//! on the tracer's enabled flag, so an untraced world runs the exact
//! byte-for-byte simulation it always did. All trace timestamps are
//! *simulated* time, which makes traces a pure function of the
//! experiment configuration: the same seed and topology produce the
//! same bytes at any host thread count.

use genie_machine::Op;
use genie_mem::Fnv64;
use genie_trace::metrics::{Histogram, MetricsRegistry};
use genie_trace::{SampleConfig, TraceSet};
use genie_vm::{PagePeek, RegionMark, SpaceId};

use crate::world::{HostId, World};

/// Owner id the wire tracer uses in the flow-selection hash (disjoint
/// from any host index).
const WIRE_SAMPLE_OWNER: u32 = u32::MAX;

/// How many VCs get individual `vc.<n>.latency_ns` rollup entries;
/// the rest merge into `vc.other.latency_ns`. Selection is by sample
/// count (ties broken by VC number), so the busiest circuits of a
/// fan-in suite surface first.
pub const TOP_K_VCS: usize = 16;

/// One region of one address space, as an application could observe
/// it: geometry, move-state mark, and a digest of the bytes every page
/// would yield if touched (or markers for zero-fill / denied pages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionObservation {
    /// Owning address space.
    pub space: SpaceId,
    /// First virtual page number.
    pub start_vpn: u64,
    /// Length in pages.
    pub npages: u64,
    /// The region's move-state mark.
    pub mark: RegionMark,
    /// FNV-1a digest of the region's observable page contents.
    pub digest: u64,
}

/// The externally observable memory state of one host: every region of
/// every process, with content digests, plus one combined digest.
///
/// Extraction is *cheap* and *side-effect free*: frame bytes are
/// hashed in place via [`genie_vm::Vm::peek_page`] — nothing is
/// cloned, faulted in, or allocated per page, and the world's pooled
/// payload buffers are never touched. That keeps the PR-4 zero-copy
/// fast path untouched (the datapath never calls this) and makes the
/// digest safe to take after every step of a differential run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservableState {
    /// Which host this snapshot describes.
    pub host: HostId,
    /// Per-region observations, ordered by (space, start_vpn).
    pub regions: Vec<RegionObservation>,
    /// Digest of the whole host state (all regions, in order).
    pub digest: u64,
}

impl World {
    /// Enables (or disables) structured tracing on every host and the
    /// link. Enabling also applies the environment's sampling policy
    /// (`GENIE_TRACE_SAMPLE` / `GENIE_TRACE_BUDGET`) and, in switched
    /// worlds, turns on switch port observation.
    pub fn enable_tracing(&mut self, on: bool) {
        if on {
            self.set_sampling(&SampleConfig::from_env());
        }
        for h in &mut self.hosts {
            h.tracer.set_enabled(on);
        }
        self.wire_tracer.set_enabled(on);
        if let Some(sw) = &mut self.switch {
            sw.set_observe(on);
        }
    }

    /// Applies a flight-recorder sampling policy to every tracer.
    /// Each host samples with its own index as the hash owner, so the
    /// kept flows differ per host but are a pure function of the
    /// configuration — byte-identical across thread counts.
    pub fn set_sampling(&mut self, cfg: &SampleConfig) {
        for (i, h) in self.hosts.iter_mut().enumerate() {
            h.tracer.set_sampling(i as u32, cfg);
        }
        self.wire_tracer.set_sampling(WIRE_SAMPLE_OWNER, cfg);
    }

    /// Whether tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.wire_tracer.enabled()
    }

    /// Drains every recorded trace event into one [`TraceSet`] with one
    /// owner per host plus the link. Tracing stays enabled. In a
    /// switched world each host's Wire track carries its egress-port
    /// spans, so the per-port timelines ride on the host owners.
    pub fn take_trace(&mut self) -> TraceSet {
        let mut owners = Vec::with_capacity(self.hosts.len() + 1);
        let mut dropped = Vec::new();
        for i in 0..self.hosts.len() {
            let name = self.fault.site_names[i].clone();
            let sampled_out = self.hosts[i].tracer.dropped_spans_total();
            if sampled_out > 0 {
                dropped.push((name.clone(), sampled_out));
            }
            owners.push((name, self.hosts[i].tracer.take()));
        }
        let wire_dropped = self.wire_tracer.dropped_spans_total();
        if wire_dropped > 0 {
            dropped.push(("link".to_string(), wire_dropped));
        }
        owners.push(("link".to_string(), self.wire_tracer.take()));
        TraceSet {
            owners,
            dropped_spans: dropped,
        }
    }

    /// Builds the unified metrics registry: per-host ledger statistics
    /// (every charged operation), adapter, VM and frame-allocator
    /// counters, plus world-level fault-injection (and, in switched
    /// worlds, switch) counters. Keys are stable and sorted, so the
    /// JSON dump is deterministic.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for (i, h) in self.hosts.iter().enumerate() {
            let prefix = match i {
                0 => "host_a".to_string(),
                1 => "host_b".to_string(),
                i => format!("host_{i}"),
            };
            r.set_gauge(&format!("{prefix}.busy_us"), h.ledger.busy().as_us());
            r.set_gauge(&format!("{prefix}.clock_us"), h.clock.as_us());
            r.set_counter(
                &format!("{prefix}.ledger.samples_dropped"),
                h.ledger.samples_dropped(),
            );
            for &op in Op::ALL {
                let s = h.ledger.stats(op);
                if s.count == 0 {
                    continue;
                }
                let name = op.name();
                r.set_counter(&format!("{prefix}.ops.{name}.count"), s.count);
                r.set_counter(&format!("{prefix}.ops.{name}.bytes"), s.bytes);
                r.set_gauge(&format!("{prefix}.ops.{name}.total_us"), s.total.as_us());
                let dropped = h.ledger.samples_dropped_for(op);
                if dropped > 0 {
                    r.set_counter(&format!("{prefix}.ops.{name}.samples_dropped"), dropped);
                }
            }
            let a = h.adapter.stats();
            r.set_counter(&format!("{prefix}.adapter.pdus_received"), a.pdus_received);
            r.set_counter(&format!("{prefix}.adapter.posted_hits"), a.posted_hits);
            r.set_counter(
                &format!("{prefix}.adapter.pooled_fallbacks"),
                a.pooled_fallbacks,
            );
            r.set_counter(&format!("{prefix}.adapter.pool_takes"), a.pool_takes);
            r.set_counter(
                &format!("{prefix}.adapter.pool_exhausted_drops"),
                a.pool_exhausted_drops,
            );
            r.set_counter(
                &format!("{prefix}.adapter.truncated_drops"),
                a.truncated_drops,
            );
            r.set_counter(
                &format!("{prefix}.adapter.outboard_stores"),
                a.outboard_stores,
            );
            r.set_counter(&format!("{prefix}.adapter.drops"), h.adapter.drops());
            if a.pdus_received > 0 {
                // Frame-pool hit rate: PDUs that avoided the pool.
                r.set_gauge(
                    &format!("{prefix}.adapter.posted_hit_rate"),
                    a.posted_hits as f64 / a.pdus_received as f64,
                );
            }
            let v = h.vm.stats();
            r.set_counter(&format!("{prefix}.vm.faults_handled"), v.faults_handled);
            r.set_counter(&format!("{prefix}.vm.tcow_copies"), v.tcow_copies);
            r.set_counter(&format!("{prefix}.vm.cow_copies"), v.cow_copies);
            r.set_counter(&format!("{prefix}.vm.zero_fills"), v.zero_fills);
            r.set_counter(&format!("{prefix}.vm.pages_paged_in"), v.pages_paged_in);
            r.set_counter(&format!("{prefix}.vm.page_swaps"), v.page_swaps);
            r.set_counter(&format!("{prefix}.vm.region_wires"), v.region_wires);
            r.set_counter(&format!("{prefix}.vm.region_unwires"), v.region_unwires);
            r.set_counter(
                &format!("{prefix}.vm.region_invalidations"),
                v.region_invalidations,
            );
            r.set_counter(
                &format!("{prefix}.vm.region_reinstates"),
                v.region_reinstates,
            );
            // Overlay pool residency.
            r.set_counter(
                &format!("{prefix}.adapter.pool_frames"),
                h.adapter.pool_len() as u64,
            );
            let m = &h.vm.phys;
            r.set_counter(&format!("{prefix}.mem.frame_allocs"), m.alloc_count());
            r.set_counter(&format!("{prefix}.mem.frame_deallocs"), m.dealloc_count());
            r.set_counter(
                &format!("{prefix}.mem.deferred_frees"),
                m.deferred_free_count(),
            );
            r.set_counter(
                &format!("{prefix}.mem.peak_frames_in_use"),
                m.peak_in_use() as u64,
            );
            r.set_counter(&format!("{prefix}.mem.free_frames"), m.free_frames() as u64);
            // Frames holding page storage: what the host's simulated
            // memory actually keeps resident.
            r.set_counter(
                &format!("{prefix}.mem.backed_frames"),
                m.backed_frames() as u64,
            );
        }
        for (name, v) in self.fault_stats().fields() {
            r.set_counter(&format!("fault.{name}"), v);
        }
        if self.fault.hold_depth.count() > 0 {
            r.set_histogram("fault.hold_queue_depth", self.fault.hold_depth.clone());
        }
        if let Some(s) = self.switch_stats() {
            r.set_counter("switch.pdus_ingress", s.pdus_ingress);
            r.set_counter("switch.pdus_replicated", s.pdus_replicated);
            r.set_counter("switch.pdus_dispatched", s.pdus_dispatched);
            r.set_counter("switch.credit_stalls", s.credit_stalls);
            r.set_counter("switch.max_port_depth", s.max_port_depth);
            let sw = self.switch().expect("switched world");
            for port in 0..sw.ports() {
                r.set_counter(
                    &format!("switch.port_{port}.dispatched"),
                    sw.port_dispatched(port),
                );
                r.set_counter(
                    &format!("switch.port_{port}.credit_stalls"),
                    sw.port_credit_stalls(port),
                );
                r.set_counter(
                    &format!("switch.port_{port}.max_depth"),
                    sw.port_max_depth(port),
                );
                if sw.observing() {
                    let series = sw.port_series(port);
                    if series.depth.count() > 0 {
                        r.set_histogram(&format!("switch.port_{port}.depth"), series.depth.clone());
                    }
                    if series.credit_occupancy.count() > 0 {
                        r.set_histogram(
                            &format!("switch.port_{port}.credit_occupancy"),
                            series.credit_occupancy.clone(),
                        );
                    }
                    if series.points_dropped > 0 {
                        r.set_counter(
                            &format!("switch.port_{port}.series_points_dropped"),
                            series.points_dropped,
                        );
                    }
                }
            }
            r.rollup("switch.port_", "rollup.port");
        }
        // Per-VC delivery-latency rollups (recorded while tracing):
        // the busiest TOP_K_VCS circuits individually, the rest merged.
        if !self.vc_latency.is_empty() {
            let mut by_count: Vec<(&u32, &Histogram)> = self.vc_latency.iter().collect();
            by_count.sort_by(|a, b| b.1.count().cmp(&a.1.count()).then(a.0.cmp(b.0)));
            let mut other = Histogram::new();
            let mut others = 0u64;
            for (i, (vc, h)) in by_count.iter().enumerate() {
                if i < TOP_K_VCS {
                    r.set_histogram(&format!("vc.{vc}.latency_ns"), (*h).clone());
                } else {
                    other.merge(h);
                    others += 1;
                }
            }
            r.set_counter("vc.tracked", self.vc_latency.len() as u64);
            if others > 0 {
                r.set_counter("vc.other.circuits", others);
                r.set_histogram("vc.other.latency_ns", other);
            }
            r.rollup("vc.", "rollup.vc");
        }
        // Completion-queue series (recorded by `cq::harvest` while
        // tracing): ring occupancy and adaptive-window size per host,
        // rolled up across hosts.
        if !self.cq_depth.is_empty() {
            for (host, h) in &self.cq_depth {
                r.set_histogram(&format!("cq_{host}.depth"), h.clone());
            }
            for (host, h) in &self.cq_window {
                r.set_histogram(&format!("cq_{host}.window"), h.clone());
            }
            r.rollup("cq_", "rollup.cq");
        }
        // Per-host rollup: fabric-scale worlds have too many host_*
        // keys to eyeball; two-host worlds get it for free.
        r.rollup("host_", "rollup.host");
        r
    }

    /// The bytes an application read of `[vaddr, vaddr + len)` in
    /// `space` would observe, without side effects (no faults are
    /// taken, no pages materialize, no costs are charged). `None`
    /// means the access would fault unrecoverably — e.g. the buffer
    /// was moved out or its region removed.
    ///
    /// This is the probe primitive of the model-differential harness.
    pub fn peek_app(
        &self,
        host: HostId,
        space: SpaceId,
        vaddr: u64,
        len: usize,
    ) -> Option<Vec<u8>> {
        self.host(host).vm.peek(space, vaddr, len)
    }

    /// Extracts the observable memory state of `host`: one entry per
    /// region of every process, each with a content digest, plus a
    /// combined digest. See [`ObservableState`] for the cost contract.
    pub fn observable_state(&self, host: HostId) -> ObservableState {
        let h = self.host(host);
        let mut regions = Vec::new();
        let mut all = Fnv64::new();
        for si in 0..h.vm.space_count() {
            let space = SpaceId(si);
            for r in h.vm.space(space).regions() {
                let mut f = Fnv64::new();
                for vpn in r.start_vpn..r.end_vpn() {
                    match h.vm.peek_page(space, vpn) {
                        PagePeek::Bytes(b) => {
                            f.write_u8(1);
                            f.write(b);
                        }
                        PagePeek::Zeros => f.write_u8(2),
                        PagePeek::Denied => f.write_u8(3),
                    }
                }
                let obs = RegionObservation {
                    space,
                    start_vpn: r.start_vpn,
                    npages: r.npages,
                    mark: r.mark,
                    digest: f.finish(),
                };
                all.write_u64(u64::from(obs.space.0));
                all.write_u64(obs.start_vpn);
                all.write_u64(obs.npages);
                all.write_u8(mark_tag(obs.mark));
                all.write_u64(obs.digest);
                regions.push(obs);
            }
        }
        ObservableState {
            host,
            regions,
            digest: all.finish(),
        }
    }

    /// The combined observable-state digest of `host` — equivalent to
    /// `observable_state(host).digest` but without building the
    /// per-region vector.
    pub fn observable_digest(&self, host: HostId) -> u64 {
        let h = self.host(host);
        let mut all = Fnv64::new();
        for si in 0..h.vm.space_count() {
            let space = SpaceId(si);
            for r in h.vm.space(space).regions() {
                let mut f = Fnv64::new();
                for vpn in r.start_vpn..r.end_vpn() {
                    match h.vm.peek_page(space, vpn) {
                        PagePeek::Bytes(b) => {
                            f.write_u8(1);
                            f.write(b);
                        }
                        PagePeek::Zeros => f.write_u8(2),
                        PagePeek::Denied => f.write_u8(3),
                    }
                }
                all.write_u64(u64::from(space.0));
                all.write_u64(r.start_vpn);
                all.write_u64(r.npages);
                all.write_u8(mark_tag(r.mark));
                all.write_u64(f.finish());
            }
        }
        all.finish()
    }

    /// Records a model-vs-simulator divergence as an instant event on
    /// every trace track (both hosts and the link), so an exported
    /// Perfetto trace of a failing differential run shows exactly
    /// which step disagreed. No-op while tracing is disabled.
    pub fn note_model_divergence(&mut self, step: usize) {
        let now = self.now();
        for h in &mut self.hosts {
            if h.tracer.enabled() {
                h.tracer
                    .instant(genie_trace::Track::Events, "model.divergence", now, step);
            }
        }
        if self.wire_tracer.enabled() {
            self.wire_tracer
                .instant(genie_trace::Track::Events, "model.divergence", now, step);
        }
    }
}

/// Stable tag for folding a region mark into a digest.
fn mark_tag(mark: RegionMark) -> u8 {
    match mark {
        RegionMark::Unmovable => 0,
        RegionMark::MovedIn => 1,
        RegionMark::MovingOut => 2,
        RegionMark::MovedOut => 3,
        RegionMark::WeaklyMovedOut => 4,
        RegionMark::MovingIn => 5,
    }
}

#[cfg(test)]
mod tests {
    use crate::world::{HostId, World, WorldConfig};
    use genie_machine::Op;

    #[test]
    fn tracing_is_off_by_default_and_toggles() {
        let mut w = World::new(WorldConfig::default());
        assert!(!w.tracing_enabled());
        w.enable_tracing(true);
        assert!(w.tracing_enabled());
        w.host_mut(HostId::A).charge_latency(Op::Copyin, 100, 1);
        let t = w.take_trace();
        assert_eq!(t.len(), 1);
        assert_eq!(t.owners[0].0, "host A");
    }

    #[test]
    fn untraced_charges_record_nothing() {
        let mut w = World::new(WorldConfig::default());
        w.host_mut(HostId::A).charge_latency(Op::Copyin, 100, 1);
        assert!(w.take_trace().is_empty());
    }

    #[test]
    fn peek_app_matches_read_app_and_is_side_effect_free() {
        let mut w = World::new(WorldConfig::default());
        let space = w.create_process(HostId::A);
        let vaddr = w.alloc_buffer(HostId::A, space, 10_000, 0).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        w.app_write(HostId::A, space, vaddr, &data).unwrap();
        let before = w.observable_digest(HostId::A);
        let peeked = w.peek_app(HostId::A, space, vaddr, data.len()).unwrap();
        assert_eq!(peeked, data);
        // Probing must not move any observable state.
        assert_eq!(w.observable_digest(HostId::A), before);
    }

    #[test]
    fn observable_state_digest_matches_streaming_digest() {
        let mut w = World::new(WorldConfig::default());
        let space = w.create_process(HostId::A);
        let vaddr = w.alloc_buffer(HostId::A, space, 5_000, 64).unwrap();
        w.app_write(HostId::A, space, vaddr, b"observable").unwrap();
        let st = w.observable_state(HostId::A);
        assert_eq!(st.digest, w.observable_digest(HostId::A));
        assert!(!st.regions.is_empty());
    }

    #[test]
    fn observable_digest_tracks_content_changes() {
        let mut w = World::new(WorldConfig::default());
        let space = w.create_process(HostId::A);
        let vaddr = w.alloc_buffer(HostId::A, space, 100, 0).unwrap();
        let before = w.observable_digest(HostId::A);
        w.app_write(HostId::A, space, vaddr, &[0xab]).unwrap();
        assert_ne!(w.observable_digest(HostId::A), before);
    }

    #[test]
    fn divergence_note_emits_instant_events() {
        let mut w = World::new(WorldConfig::default());
        w.note_model_divergence(3); // untraced: no-op
        assert!(w.take_trace().is_empty());
        w.enable_tracing(true);
        w.note_model_divergence(7);
        let t = w.take_trace();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn metrics_expose_op_stats_and_busy_time() {
        let mut w = World::new(WorldConfig::default());
        let c = w.host_mut(HostId::A).charge_latency(Op::Copyin, 100, 1);
        let r = w.metrics();
        assert_eq!(r.counter("host_a.ops.Copyin.count"), 1);
        assert_eq!(r.counter("host_a.ops.Copyin.bytes"), 100);
        let j = r.to_json(0);
        assert!(
            j.contains(&format!("\"host_a.busy_us\": {:.6}", c.as_us())),
            "{j}"
        );
        // Uncharged ops are omitted.
        assert!(r.get("host_a.ops.Swap.count").is_none());
    }

    /// Metrics expose each host's overlay-pool residency, and
    /// [`World::trim_pools`] releases process-level scratch memory
    /// between back-to-back worlds without touching simulated state:
    /// the second world's observable digest is identical whether or
    /// not the first was trimmed.
    #[test]
    fn pool_residency_gauge_and_trim_between_runs() {
        use crate::{InputRequest, OutputRequest, Semantics};
        use genie_net::Vc;

        let drive = |trim: bool| -> u64 {
            let mut w = World::new(WorldConfig::default());
            let tx = w.create_process(HostId::A);
            let rx = w.create_process(HostId::B);
            for i in 0..8usize {
                w.input(
                    HostId::B,
                    InputRequest::system(Semantics::Move, Vc(1), rx, 1500),
                )
                .expect("input");
                let (_r, src) = w
                    .host_mut(HostId::A)
                    .alloc_io_buffer(tx, 1500)
                    .expect("alloc");
                w.app_write(HostId::A, tx, src, &vec![i as u8; 1500])
                    .expect("write");
                w.output(
                    HostId::A,
                    OutputRequest::new(Semantics::Move, Vc(1), tx, src, 1500),
                )
                .expect("output");
            }
            w.run();
            let m = w.metrics();
            assert!(
                m.get("host_b.adapter.pool_frames").is_some(),
                "pool residency gauge missing"
            );
            if trim {
                w.trim_pools(0);
                assert!(
                    w.trim_pools(0) == 0 || genie_mem::pooled_page_storage() == 0,
                    "second trim finds nothing new"
                );
            }
            let d = w.observable_digest(HostId::B);
            drop(w);
            d
        };
        let untrimmed = drive(false);
        // Dropping the world recycles its page storage on this thread;
        // trimming to zero releases all of it.
        assert!(genie_mem::pooled_page_storage() > 0);
        genie_mem::trim_page_storage(0);
        assert_eq!(genie_mem::pooled_page_storage(), 0);
        let trimmed = drive(true);
        assert_eq!(untrimmed, trimmed, "trimming must not change simulation");
        // The world's own frames recycle at drop; a final trim leaves
        // the thread with no resident page storage at all.
        genie_mem::trim_page_storage(0);
        assert_eq!(genie_mem::pooled_page_storage(), 0);
    }

    /// The backed-frames gauge counts written frames only: a fresh
    /// world's allocated-but-unwritten overlay pool holds no pages.
    #[test]
    fn backed_frames_gauge_counts_only_written_frames() {
        let mut w = World::new(WorldConfig::default());
        let tx = w.create_process(HostId::A);
        let m = w.metrics();
        assert!(m.counter("host_a.mem.peak_frames_in_use") > 0);
        assert_eq!(m.counter("host_a.mem.backed_frames"), 0);
        let (_r, buf) = w
            .host_mut(HostId::A)
            .alloc_io_buffer(tx, 6000)
            .expect("alloc");
        w.app_write(HostId::A, tx, buf, &[7u8; 10]).expect("write");
        assert_eq!(w.metrics().counter("host_a.mem.backed_frames"), 1);
    }
}
