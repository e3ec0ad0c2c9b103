//! The canonical traced run's exports: `report --trace` and
//! `report --metrics`.
//!
//! Both render [`Input::Inspect`]: one 60 KB early-demux exchange per
//! semantics on the Micron P166, traced over exactly the measured
//! round (warm-up untraced, ledgers reset) under the caller's sampling
//! policy. Each semantics renders as one Chrome-trace process with one
//! thread per `(owner, track)` timeline, so a single export shows all
//! eight datapaths side by side in Perfetto. Every timestamp is
//! simulated time and every world is single-threaded, so the exports
//! are byte-identical no matter what `--threads` says.

use genie::{ChromeTrace, SampleConfig, Semantics};
use genie_trace::json::{Layout, Writer};

use crate::{Exhibit, Input, Measured};

/// `report --trace`: the trace export under `sample`.
pub fn trace_view(sample: SampleConfig) -> Exhibit {
    let needs = vec![Input::Inspect(sample)];
    Exhibit::new("--trace", needs, move |m| trace_json(m, &sample))
}

/// `report --metrics`: the metrics export under `sample`.
pub fn metrics_view(sample: SampleConfig) -> Exhibit {
    let needs = vec![Input::Inspect(sample)];
    Exhibit::new("--metrics", needs, move |m| metrics_json(m, &sample))
}

/// Renders the canonical runs as one Chrome trace-event JSON document
/// (one process per semantics), ready for Perfetto.
pub fn trace_json(m: &Measured, sample: &SampleConfig) -> String {
    let mut chrome = ChromeTrace::new();
    for (sem, (_, trace, _)) in Semantics::ALL.iter().zip(m.inspected(sample)) {
        chrome.add_process(sem.label(), trace.clone());
    }
    chrome.to_json()
}

/// Renders the canonical runs' metrics as one JSON object keyed by
/// semantics label.
pub fn metrics_json(m: &Measured, sample: &SampleConfig) -> String {
    let mut w = Writer::new(2);
    w.object(Layout::Pretty);
    for (sem, (latency, _, metrics)) in Semantics::ALL.iter().zip(m.inspected(sample)) {
        w.key(sem.label()).object(Layout::Pretty);
        w.key("latency_us")
            .num(format_args!("{:.6}", latency.as_us()));
        w.key("metrics");
        metrics.write_json(&mut w);
        w.end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;

    #[test]
    fn trace_export_has_tracks_and_is_deterministic() {
        let keep_all = SampleConfig::default();
        let measure = || plan::measure([&Input::Inspect(keep_all)]);
        let m = measure();
        let mut chrome = ChromeTrace::new();
        for (sem, (_, trace, _)) in Semantics::ALL.iter().zip(m.inspected(&keep_all)) {
            assert!(!trace.is_empty(), "{sem} produced no events");
            chrome.add_process(sem.label(), trace.clone());
        }
        assert!(chrome.track_count() >= 4, "{}", chrome.track_count());
        assert_eq!(trace_json(&m, &keep_all), trace_json(&measure(), &keep_all));
    }

    #[test]
    fn metrics_json_covers_every_semantics() {
        let keep_all = SampleConfig::default();
        let m = plan::measure([&Input::Inspect(keep_all)]);
        let j = metrics_json(&m, &keep_all);
        for sem in Semantics::ALL {
            assert!(j.contains(&format!("\"{}\"", sem.label())), "{}", sem);
        }
        assert!(j.contains("host_a.busy_us"));
    }
}
