//! What every workload shares: the episode context (probe plus op
//! accounting), seeded payload patterns, output fingerprints, and the
//! work counts read from the world after the timed loop.

use std::collections::BTreeMap;

use genie::{MetricsRegistry, World};

use crate::probe::Probe;

/// An episode that cannot go on: the world refused a call or broke an
/// invariant, so every op it had not yet verified counts as failed.
#[derive(Debug)]
pub struct Abort(pub String);

impl From<genie::GenieError> for Abort {
    fn from(e: genie::GenieError) -> Self {
        Abort(format!("{e:?}"))
    }
}

/// State one episode reports into.
pub struct Cx {
    /// Host-time probes.
    pub probe: Probe,
    /// Ops delivered and verified in the current episode.
    pub ok_ops: u64,
    /// Extra failures in the current episode (duplicate completions),
    /// beyond ops that never verified.
    pub extra_failures: u64,
    /// First failure of the run, for the report.
    pub first_failure: Option<String>,
    /// Index of the current episode within the run.
    pub episode: usize,
    /// Whether the episode should read work counts after its loop.
    pub read_counts: bool,
    /// Work counts of the episodes that read them.
    pub counts: Counts,
}

impl Cx {
    /// A fresh context.
    pub fn new() -> Self {
        Cx {
            probe: Probe::new(),
            ok_ops: 0,
            extra_failures: 0,
            first_failure: None,
            episode: 0,
            read_counts: false,
            counts: Counts::default(),
        }
    }

    /// Records a failure that does not stop the episode.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.extra_failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Records an op that fails to verify (it is not counted as ok).
    pub fn note(&mut self, what: impl FnOnce() -> String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// A seeded byte source: every payload is a window into one block of
/// pseudo-random bytes, so the timed loop generates no bytes at all.
pub struct Patterns {
    seed: u64,
    bytes: Vec<u8>,
}

/// Distinct window offsets in the pattern block.
const WINDOW: usize = 1 << 16;

impl Patterns {
    /// Pattern block for payloads of up to `max_len` bytes.
    pub fn new(seed: u64, max_len: usize) -> Self {
        let mut x = splitmix(seed);
        let bytes = (0..WINDOW + max_len)
            .map(|_| {
                x = splitmix(x);
                x as u8
            })
            .collect();
        Patterns { seed, bytes }
    }

    /// Payload `k` of stream `stream`.
    pub fn get(&self, stream: u32, k: u64, len: usize) -> &[u8] {
        let off = splitmix(self.seed ^ (u64::from(stream) << 40) ^ k) as usize % WINDOW;
        &self.bytes[off..off + len]
    }
}

/// The splitmix64 step: a cheap, well-mixed 64-bit hash.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the fingerprint of an episode's
/// simulated output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The empty fingerprint.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Work counts summed over the episodes that read them.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Ops of those episodes (the base of every per-op count).
    pub ops: u64,
    /// Datagrams delivered in those episodes (the base of the switch
    /// and fault counts).
    pub datagrams: u64,
    /// Summed counters by metric name.
    pub sums: BTreeMap<&'static str, u64>,
    /// Largest value seen, for high-water marks.
    pub peaks: BTreeMap<&'static str, u64>,
}

/// Host-summed world counters reported per op: (metric name, suffix of
/// the `host_*` key in `World::metrics()`).
pub const HOST_COUNTERS: [(&str, &str); 10] = [
    ("vm.tcow_copies", ".vm.tcow_copies"),
    ("vm.cow_copies", ".vm.cow_copies"),
    ("vm.page_swaps", ".vm.page_swaps"),
    ("vm.zero_fills", ".vm.zero_fills"),
    ("vm.faults_handled", ".vm.faults_handled"),
    ("mem.frame_allocs", ".mem.frame_allocs"),
    ("adapter.pdus_received", ".adapter.pdus_received"),
    ("adapter.posted_hits", ".adapter.posted_hits"),
    ("adapter.pool_takes", ".adapter.pool_takes"),
    ("adapter.pooled_fallbacks", ".adapter.pooled_fallbacks"),
];

/// World-level counters reported per delivered datagram, by their
/// `World::metrics()` key.
pub const WORLD_COUNTERS: [&str; 5] = [
    "switch.credit_stalls",
    "fault.pdus_damaged",
    "fault.retransmits",
    "fault.crc_drops",
    "fault.held_for_reorder",
];

impl Counts {
    /// Adds `v` to the sum named `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Raises the high-water mark named `name` to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: u64) {
        let p = self.peaks.entry(name).or_default();
        *p = (*p).max(v);
    }

    /// One world's counters now.
    pub fn of_world(w: &World) -> Counts {
        Counts::of_metrics(&w.metrics())
    }

    /// The counters in a `World::metrics()` registry.
    pub fn of_metrics(m: &MetricsRegistry) -> Counts {
        let mut c = Counts::default();
        let mut peak_frames = 0;
        for (key, metric) in m.iter() {
            let genie::Metric::Counter(v) = metric else {
                continue;
            };
            if key.starts_with("host_") {
                for (name, suffix) in HOST_COUNTERS {
                    if key.ends_with(suffix) {
                        c.add(name, *v);
                    }
                }
                if key.ends_with(".mem.peak_frames_in_use") {
                    peak_frames += *v;
                }
            }
        }
        c.peak("mem.peak_frames_in_use", peak_frames);
        for name in WORLD_COUNTERS {
            c.add(name, m.counter(name));
        }
        c.peak("switch.max_port_depth", m.counter("switch.max_port_depth"));
        c
    }

    /// Adds the work done between two snapshots of one world (`before`
    /// is `None` for a world that did no untimed work), and keeps the
    /// high-water marks of `after`.
    pub fn add_delta(&mut self, after: &Counts, before: Option<&Counts>) {
        for (&name, &v) in &after.sums {
            let base = before.and_then(|b| b.sums.get(name)).copied().unwrap_or(0);
            self.add(name, v - base);
        }
        for (&name, &v) in &after.peaks {
            self.peak(name, v);
        }
    }
}
