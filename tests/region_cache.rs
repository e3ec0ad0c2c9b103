//! The region cache gives frames back.
//!
//! Region caching (paper Section 2.2) keeps moved-out regions so that a
//! later system-allocated input can reuse one. Each address space's
//! cache is bounded, per mark, by that space's own input demand — the
//! most regions its system-allocated inputs held at once, and at least
//! one — and an allocation that finds physical memory exhausted
//! reclaims cached regions host-wide before it fails. These tests pin
//! both rules end to end: a measurement context can be reused for as
//! many passes as wanted, a fault succeeds while released regions sit
//! in another space's cache, and a reclaimed buffer behaves like a
//! hidden one.

use genie::{
    ExperimentSetup, GenieError, HostId, InputRequest, OutputRequest, Semantics, SeriesContext,
    World, WorldConfig,
};
use genie_fault::XorShift64;
use genie_machine::{MachineSpec, SimTime};
use genie_net::Vc;
use genie_vm::VmError;

/// `pair_sweep`'s sizes: Figure 5's short sizes, then Figure 3's 4 KB
/// steps to 60 KB.
const SIZES: [usize; 25] = [
    64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 6144, 8192, 12288, 16384, 20480, 24576,
    28672, 32768, 36864, 40960, 45056, 49152, 53248, 57344, 61440,
];

/// Passes each context measures.
const PASSES: usize = 20;

fn setups() -> [(&'static str, ExperimentSetup); 4] {
    let m = MachineSpec::micron_p166;
    [
        ("early demux", ExperimentSetup::early_demux(m())),
        ("pooled aligned", ExperimentSetup::pooled_aligned(m())),
        ("pooled unaligned", ExperimentSetup::pooled_unaligned(m())),
        ("outboard", ExperimentSetup::outboard(m())),
    ]
}

/// One context per (setup, semantics) measures the whole sweep again
/// and again. Its frame budget covers one point, so every pass must
/// fit in what the previous passes gave back, and reuse must not move
/// a simulated number: each pass returns the first pass's latencies.
#[test]
fn one_context_measures_the_sweep_twenty_times_with_identical_latencies() {
    let mut failures = Vec::new();
    for (name, setup) in setups() {
        for sem in Semantics::ALL {
            let mut ctx = SeriesContext::new(&setup, &SIZES);
            let mut first: Vec<SimTime> = Vec::new();
            'passes: for pass in 0..PASSES {
                for (i, &bytes) in SIZES.iter().enumerate() {
                    let latency = match ctx.measure_latency(sem, bytes) {
                        Ok(l) => l,
                        Err(e) => {
                            failures
                                .push(format!("{name}/{sem}: pass {}, {bytes} B: {e:?}", pass + 1));
                            break 'passes;
                        }
                    };
                    if pass == 0 {
                        first.push(latency);
                    } else if latency != first[i] {
                        failures.push(format!(
                            "{name}/{sem}: pass {}, {bytes} B: {latency:?}, first pass {:?}",
                            pass + 1,
                            first[i]
                        ));
                        break 'passes;
                    }
                }
            }
            if sem != Semantics::EmulatedMove || !failures.is_empty() {
                continue;
            }
            // Neither host ever holds more than one cached region: the
            // sender never takes one back, and the receiver holds one
            // input region at a time.
            let (latency, _, metrics) = ctx
                .measure_latency_traced(sem, SIZES[0])
                .expect("traced point");
            assert_eq!(latency, first[0], "{name}: tracing moved the latency");
            for host in ["host_a", "host_b"] {
                assert_eq!(
                    metrics.counter(&format!("{host}.vm.cached_regions_peak")),
                    1,
                    "{name}: {host} cached more than one region"
                );
            }
            assert!(
                metrics.counter("host_a.vm.regions_reclaimed") >= (PASSES * SIZES.len()) as u64,
                "{name}: the sender must give back every moved-out source but its latest"
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A receiver that held many input regions at once keeps them all
/// cached once released (its cache bound is its own demand). A fault
/// in another space on the same host must still find a frame: the
/// allocation reclaims cached regions, oldest first, instead of
/// failing with `OutOfFrames`.
#[test]
fn a_fault_reclaims_cached_regions_before_running_out_of_frames() {
    for seed in 1..=8u64 {
        let mut rng = XorShift64::new(seed);
        let mut w = World::new(WorldConfig {
            frames_per_host: 160,
            ..WorldConfig::default()
        });
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let other = w.create_process(HostId::B);
        let page = w.host(HostId::B).page_size();
        let vc = Vc(1);

        // Hold many regions at once: every input is posted before any
        // completes, then all are released.
        let lens: Vec<usize> = (0..12)
            .map(|_| page * (1 + rng.below(4) as usize) - 64)
            .collect();
        for &len in &lens {
            w.input(
                HostId::B,
                InputRequest::system(Semantics::EmulatedMove, vc, rx, len),
            )
            .expect("input");
        }
        for (k, &len) in lens.iter().enumerate() {
            let (_, src) = w
                .host_mut(HostId::A)
                .alloc_io_buffer(tx, len)
                .expect("source");
            w.app_write(HostId::A, tx, src, &vec![k as u8; len])
                .expect("fill");
            w.output(
                HostId::A,
                OutputRequest::new(Semantics::EmulatedMove, vc, tx, src, len),
            )
            .expect("output");
        }
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(done.len(), lens.len(), "seed {seed}: every input completes");
        for c in &done {
            let region = c.region.expect("system-allocated delivery");
            w.release_input_region(HostId::B, region, Semantics::EmulatedMove)
                .expect("release");
        }
        let cached = w.host(HostId::B).vm.space(rx).cached_region_count();
        assert_eq!(cached, lens.len(), "seed {seed}: the bound keeps them all");

        // Touch more fresh pages than the host has free.
        let free = w.host(HostId::B).vm.phys.free_frames();
        let len = (free + 8) * page;
        let buf = w
            .host_mut(HostId::B)
            .alloc_buffer(other, len, 0)
            .expect("buffer");
        w.app_write(HostId::B, other, buf, &vec![0xa5; len])
            .unwrap_or_else(|e| panic!("seed {seed}: fault failed with cached regions: {e:?}"));
        let reclaimed = w.metrics().counter("host_b.vm.regions_reclaimed");
        assert!(reclaimed > 0, "seed {seed}: nothing was reclaimed");
        assert!(
            w.host(HostId::B).vm.space(rx).cached_region_count() < cached,
            "seed {seed}: reclaim must shrink the cache"
        );
        assert!(w.host(HostId::B).vm.validate().is_empty(), "seed {seed}");
    }
}

/// A sender keeps only its latest weakly-moved-out source. The older
/// ones are reclaimed: touching one faults unrecoverably, as touching a
/// hidden region does, and freeing one succeeds.
#[test]
fn a_sender_keeps_only_its_latest_weakly_moved_out_source() {
    const LEN: usize = 3000;
    for sem in [Semantics::WeakMove, Semantics::EmulatedWeakMove] {
        let mut w = World::new(WorldConfig::default());
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let mut srcs = Vec::new();
        for k in 0..3u8 {
            w.input(HostId::B, InputRequest::system(sem, Vc(1), rx, LEN))
                .expect("input");
            let (_, src) = w
                .host_mut(HostId::A)
                .alloc_io_buffer(tx, LEN)
                .expect("source");
            w.app_write(HostId::A, tx, src, &[k; LEN]).expect("fill");
            w.output(HostId::A, OutputRequest::new(sem, Vc(1), tx, src, LEN))
                .expect("output");
            w.run();
            srcs.push(src);
        }
        assert_eq!(w.take_completed_outputs().len(), 3);
        let latest = *srcs.last().expect("sources");
        assert_eq!(
            w.read_app(HostId::A, tx, latest, LEN)
                .expect("latest stays mapped"),
            vec![2; LEN],
            "{sem}"
        );
        for &src in &srcs[..2] {
            assert!(w.peek_app(HostId::A, tx, src, LEN).is_none(), "{sem}");
            let err = w.app_write(HostId::A, tx, src, &[9]).unwrap_err();
            assert!(
                matches!(err, GenieError::Vm(VmError::UnrecoverableFault { .. })),
                "{sem}: {err:?}"
            );
        }
        for &src in &srcs {
            w.host_mut(HostId::A)
                .free_buffer(tx, src)
                .expect("free source");
        }
        // Freed once, a reclaimed range is gone like any other.
        assert!(w.host_mut(HostId::A).free_buffer(tx, srcs[0]).is_err());
        assert_eq!(w.host(HostId::A).vm.space(tx).cached_region_count(), 0);
    }
}
