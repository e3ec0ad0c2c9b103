//! `pair_sweep`: the two-host latency sweeps behind `report all`'s
//! figures, without its memo cache. An episode is one pass: one fresh
//! `SeriesContext` per (buffering setup, semantics), built in set-up,
//! then one step per measured point. An op is one measured point.
//!
//! Contexts are never reused past one pass: a context sized for one
//! sweep runs out of frames when it measures the same sweep again.

use genie::{ExperimentSetup, SeriesContext, ALL_SEMANTICS};
use genie_machine::{MachineSpec, SimTime};

use crate::cx::{splitmix, Abort, Counts, Cx, Fingerprint};
use crate::probe::Layer;
use crate::workload::{Episode, Workload};

/// Figure 5's short sizes, then Figure 3's 4 KB steps to 60 KB.
pub const SIZES: [usize; 25] = [
    64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 6144, 8192, 12288, 16384, 20480, 24576,
    28672, 32768, 36864, 40960, 45056, 49152, 53248, 57344, 61440,
];

/// The buffering setups, in context order.
fn setups() -> [ExperimentSetup; 4] {
    let m = MachineSpec::micron_p166;
    [
        ExperimentSetup::early_demux(m()),
        ExperimentSetup::pooled_aligned(m()),
        ExperimentSetup::pooled_unaligned(m()),
        ExperimentSetup::outboard(m()),
    ]
}

/// Contexts per pass: setups times semantics.
const CONTEXTS: usize = 4 * 8;

/// The 61440-byte rows of Figures 3, 6 and 7 in `report_output.txt`
/// (early demultiplexing, application-aligned pooled, unaligned
/// pooled), in µs at the report's precision, semantics in
/// `ALL_SEMANTICS` order.
pub const REPORT_60K: [[&str; 8]; 3] = [
    [
        "6225.6", "3923.1", "3919.8", "3790.6", "4008.8", "3852.5", "3928.8", "3803.3",
    ],
    [
        "6273.5", "3986.4", "4100.5", "3970.4", "4176.9", "3995.3", "4100.5", "3970.3",
    ],
    [
        "6273.5", "5222.2", "5335.0", "5205.8", "4176.9", "3995.3", "4100.5", "3970.3",
    ],
];

/// Fingerprint of one pass's simulated latencies, in canonical order.
pub const FINGERPRINT: u64 = 0x7f1e_2216_4c45_a5a2;

/// The pair sweep.
pub struct PairSweep {
    /// Order in which a pass visits the contexts (a seeded shuffle;
    /// each context is independent, so results do not depend on it).
    order: Vec<usize>,
    /// Required fingerprint of a pass.
    pub fingerprint: Option<u64>,
}

impl PairSweep {
    /// The sweep for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<usize> = (0..CONTEXTS).collect();
        let mut x = seed;
        for i in (1..order.len()).rev() {
            x = splitmix(x);
            order.swap(i, x as usize % (i + 1));
        }
        PairSweep {
            order,
            fingerprint: Some(FINGERPRINT),
        }
    }
}

impl Workload for PairSweep {
    type Episode = Pass;

    fn ops_per_episode(&self) -> u64 {
        (CONTEXTS * SIZES.len()) as u64
    }

    fn setup(&self, cx: &mut Cx) -> Result<Pass, Abort> {
        let setups = setups();
        let contexts = self
            .order
            .iter()
            .map(|&c| {
                let setup = &setups[c / 8];
                cx.probe
                    .time(Layer::WorldNew, || SeriesContext::new(setup, &SIZES))
            })
            .collect();
        Ok(Pass {
            order: self.order.clone(),
            contexts,
            next: 0,
            latency: vec![0; CONTEXTS * SIZES.len()],
            fingerprint: self.fingerprint,
        })
    }
}

/// One pass of the sweep.
pub struct Pass {
    order: Vec<usize>,
    /// Contexts in visiting order.
    contexts: Vec<SeriesContext>,
    /// Next point, in visiting order.
    next: usize,
    /// Measured latencies (raw `SimTime`) by canonical index
    /// (context, size).
    latency: Vec<u64>,
    fingerprint: Option<u64>,
}

impl Episode for Pass {
    fn step(&mut self, cx: &mut Cx) -> Result<bool, Abort> {
        let (pos, s) = (self.next / SIZES.len(), self.next % SIZES.len());
        let c = self.order[pos];
        let ctx = &mut self.contexts[pos];
        // `measure_latency` checks every delivered byte itself and
        // panics on a mismatch, so a returned latency is a verified op
        // and a panic is a failed one.
        let measured = cx.probe.time(Layer::ExperimentMeasure, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.measure_latency(ALL_SEMANTICS[c % 8], SIZES[s])
            }))
        });
        let lat = measured.map_err(|_| Abort("measure_latency panicked".into()))??;
        self.latency[c * SIZES.len() + s] = lat.0;
        cx.ok_ops += 1;
        self.next += 1;
        Ok(self.next < self.latency.len())
    }

    fn finish(self, cx: &mut Cx) -> Result<(), String> {
        let mut fp = Fingerprint::new();
        for &v in &self.latency {
            fp.add(v);
        }
        if let Some(want) = self.fingerprint {
            if fp.0 != want {
                return Err(format!(
                    "simulated-output fingerprint {:#018x}, expected {want:#018x}",
                    fp.0
                ));
            }
        }
        check_report_60k(&self.latency)?;
        drop(self.contexts);
        if cx.read_counts && cx.counts.ops == 0 {
            cx.counts = count_pass(&self.latency)?;
        }
        Ok(())
    }
}

/// Cross-checks the 60 KB points against `report_output.txt`'s.
fn check_report_60k(latency: &[u64]) -> Result<(), String> {
    for (setup, row) in REPORT_60K.iter().enumerate() {
        for (sem, want) in row.iter().enumerate() {
            let c = setup * 8 + sem;
            let got = SimTime(latency[c * SIZES.len() + SIZES.len() - 1]).as_us();
            let got = format!("{got:.1}");
            if got != *want {
                return Err(format!(
                    "{} under setup {setup} at 61440 B: {got} us, report says {want} us",
                    ALL_SEMANTICS[sem]
                ));
            }
        }
    }
    Ok(())
}

/// The work counts of one pass. A `SeriesContext` keeps its world to
/// itself, so this repeats the pass untimed, measuring each context's
/// last point through `measure_latency_traced`, whose metrics carry the
/// context world's cumulative counters. Tracing only observes, so every
/// latency must equal the timed pass's.
fn count_pass(latency: &[u64]) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let setups = setups();
    for c in 0..CONTEXTS {
        let (setup, sem) = (&setups[c / 8], ALL_SEMANTICS[c % 8]);
        let mut ctx = SeriesContext::new(setup, &SIZES);
        for (s, &bytes) in SIZES.iter().enumerate() {
            let lat = if s + 1 < SIZES.len() {
                ctx.measure_latency(sem, bytes)
                    .map_err(|e| format!("{e:?}"))?
            } else {
                let (lat, _, metrics) = ctx
                    .measure_latency_traced(sem, bytes)
                    .map_err(|e| format!("{e:?}"))?;
                counts.add_delta(&Counts::of_metrics(&metrics), None);
                lat
            };
            if lat.0 != latency[c * SIZES.len() + s] {
                return Err(format!(
                    "{sem} at {bytes} B measured differently when counted"
                ));
            }
        }
    }
    counts.ops = (CONTEXTS * SIZES.len()) as u64;
    // Each point is a warm-up exchange plus the measured one.
    counts.datagrams = 2 * counts.ops;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_60k_table_matches_report_output() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../report_output.txt");
        let report = std::fs::read_to_string(path).expect("report_output.txt");
        let rows: Vec<Vec<&str>> = report
            .lines()
            .filter(|l| l.starts_with("61440  "))
            .map(|l| l.split_whitespace().skip(1).collect())
            .collect();
        // Figures 3, 6 and 7 are the first three 60 KB latency rows
        // (Figure 4's row in between is CPU utilization).
        let latency_rows: Vec<&Vec<&str>> = rows.iter().filter(|r| r[0].len() > 5).collect();
        for (want, got) in REPORT_60K.iter().zip(latency_rows) {
            assert_eq!(&want[..], &got[..]);
        }
    }
}
