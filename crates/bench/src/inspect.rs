//! The canonical traced run behind `report --trace` / `--metrics`.
//!
//! One 60 KB early-demux exchange per semantics on the Micron P166,
//! traced over exactly the measured round (warm-up untraced, ledgers
//! reset) under the caller's sampling policy. Each semantics renders
//! as one Chrome-trace process with one thread per `(owner, track)`
//! timeline, so a single export shows all eight datapaths side by side
//! in Perfetto.
//!
//! Runs are driven serially on purpose: every timestamp is simulated
//! time and every world is single-threaded, so the export is
//! byte-identical no matter what `--threads` says — the determinism
//! tests compare exports across thread counts with `cmp`.

use genie::{
    ChromeTrace, ExperimentSetup, MetricsRegistry, SampleConfig, Semantics, SeriesContext, TraceSet,
};
use genie_machine::MachineSpec;
use genie_trace::json::{Layout, Writer};

/// The headline datagram size (60 KB, the paper's largest point).
pub const INSPECT_BYTES: usize = 61_440;

/// One traced semantics: its measured latency, trace and metrics.
pub struct InspectRun {
    /// Semantics label (e.g. "emulated copy").
    pub label: &'static str,
    /// Measured one-way latency in microseconds.
    pub latency_us: f64,
    /// The measured round's structured trace.
    pub trace: TraceSet,
    /// The measured round's metrics snapshot.
    pub metrics: MetricsRegistry,
}

/// Traces the canonical 60 KB exchange for every semantics.
pub fn inspect_all(sample: &SampleConfig) -> Vec<InspectRun> {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    Semantics::ALL
        .iter()
        .map(|&sem| {
            let (latency, trace, metrics) = SeriesContext::new(&setup, &[INSPECT_BYTES])
                .measure_latency_sampled(sem, INSPECT_BYTES, sample)
                .expect("traced exchange");
            InspectRun {
                label: sem.label(),
                latency_us: latency.as_us(),
                trace,
                metrics,
            }
        })
        .collect()
}

/// Renders the canonical runs as one Chrome trace-event JSON document
/// (one process per semantics), ready for Perfetto.
pub fn trace_json(sample: &SampleConfig) -> String {
    let mut chrome = ChromeTrace::new();
    for run in inspect_all(sample) {
        chrome.add_process(run.label, run.trace);
    }
    chrome.to_json()
}

/// Renders the canonical runs' metrics as one JSON object keyed by
/// semantics label.
pub fn metrics_json(sample: &SampleConfig) -> String {
    let mut w = Writer::new(2);
    w.object(Layout::Pretty);
    for run in inspect_all(sample) {
        w.key(run.label).object(Layout::Pretty);
        w.key("latency_us")
            .num(format_args!("{:.6}", run.latency_us));
        w.key("metrics");
        run.metrics.write_json(&mut w);
        w.end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_export_has_tracks_and_is_deterministic() {
        let keep_all = SampleConfig::default();
        let mut chrome = ChromeTrace::new();
        for run in inspect_all(&keep_all) {
            assert!(!run.trace.is_empty(), "{} produced no events", run.label);
            chrome.add_process(run.label, run.trace);
        }
        assert!(chrome.track_count() >= 4, "{}", chrome.track_count());
        assert_eq!(trace_json(&keep_all), trace_json(&keep_all));
    }

    #[test]
    fn metrics_json_covers_every_semantics() {
        let j = metrics_json(&SampleConfig::default());
        for sem in Semantics::ALL {
            assert!(j.contains(&format!("\"{}\"", sem.label())), "{}", sem);
        }
        assert!(j.contains("host_a.busy_us"));
    }
}
