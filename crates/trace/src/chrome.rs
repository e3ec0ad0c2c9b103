//! Chrome trace-event JSON export (the Perfetto-compatible "JSON
//! array" flavor).
//!
//! Simulated time maps directly onto trace time: one simulated
//! microsecond is one trace microsecond, with picosecond precision
//! preserved in the fractional part. Every process is one traced
//! world (one semantics under inspection); every thread is one
//! `(owner, track)` timeline — host A/B × phase/cpu/vm/adapter/
//! overlap/events, plus the link's wire track.
//!
//! Output is deterministic: timestamps are exact decimals derived from
//! integer picoseconds, events are emitted in recording order, and
//! track/process metadata is emitted in a fixed order. `cmp` on two
//! exports is therefore a valid regression test.

use crate::json::{Layout, Writer};
use crate::{EventKind, TraceSet, Track};
use genie_machine::SimTime;

/// Formats a simulated time as exact microseconds (`ps / 1e6` with all
/// six fractional digits), avoiding float formatting entirely.
fn us(t: SimTime) -> String {
    format!("{}.{:06}", t.0 / 1_000_000, t.0 % 1_000_000)
}

/// Builds a Chrome trace-event JSON document from one or more traced
/// worlds, each rendered as one process.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    processes: Vec<(String, TraceSet)>,
}

impl ChromeTrace {
    /// An empty export.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Adds one traced world as a process named `label`.
    pub fn add_process(&mut self, label: impl Into<String>, trace: TraceSet) {
        self.processes.push((label.into(), trace));
    }

    /// Number of distinct `(process, track)` timelines that carry at
    /// least one event.
    pub fn track_count(&self) -> usize {
        let mut n = 0;
        for (_, set) in &self.processes {
            for (_, events) in &set.owners {
                for track in Track::ALL {
                    if events.iter().any(|e| e.track == *track) {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Renders the JSON document: one event object per line.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(0);
        w.array(Layout::Pretty);
        for (pid, (label, set)) in self.processes.iter().enumerate() {
            // Every event opens with the same keys; `tid` is omitted
            // for process-wide metadata.
            let head = |w: &mut Writer, ph: &str, tid: Option<u32>, name: &str| {
                w.object(Layout::Line).key("ph").str(ph).key("pid").num(pid);
                if let Some(tid) = tid {
                    w.key("tid").num(tid);
                }
                w.key("name").str(name);
            };
            head(&mut w, "M", None, "process_name");
            w.key("args").object(Layout::Line).key("name").str(label);
            w.end().end();
            for (owner_idx, (owner, events)) in set.owners.iter().enumerate() {
                for track in Track::ALL {
                    if !events.iter().any(|e| e.track == *track) {
                        continue;
                    }
                    let tid = tid(owner_idx, *track);
                    head(&mut w, "M", Some(tid), "thread_name");
                    w.key("args").object(Layout::Line);
                    w.key("name").str(&format!("{owner} {}", track.name()));
                    w.end().end();
                    head(&mut w, "M", Some(tid), "thread_sort_index");
                    w.key("args").object(Layout::Line);
                    w.key("sort_index").num(tid).end().end();
                }
                for e in events {
                    let tid = Some(tid(owner_idx, e.track));
                    match e.kind {
                        EventKind::Span => {
                            head(&mut w, "X", tid, e.name);
                            w.key("ts").num(us(e.start)).key("dur").num(us(e.dur));
                        }
                        EventKind::Instant => {
                            head(&mut w, "i", tid, e.name);
                            w.key("ts").num(us(e.start)).key("s").str("t");
                        }
                    }
                    w.key("args").object(Layout::Line);
                    w.key("bytes").num(e.bytes).key("units").num(e.units);
                    w.end().end();
                }
            }
            // Surface the sampling ledger (only when something was
            // sampled out, so unsampled exports are byte-unchanged).
            for (owner, n) in &set.dropped_spans {
                if *n > 0 {
                    head(&mut w, "M", None, "dropped_spans");
                    w.key("args").object(Layout::Line);
                    w.key("owner").str(owner).key("count").num(n);
                    w.end().end();
                }
            }
        }
        w.end();
        w.finish()
    }
}

/// Stable thread id for an `(owner, track)` timeline.
fn tid(owner_idx: usize, track: Track) -> u32 {
    owner_idx as u32 * 16 + track.id() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, Tracer};
    use genie_machine::Op;

    fn sample_set() -> TraceSet {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.span(
            Track::Phase,
            "output.prepare",
            SimTime::from_us(1.5),
            SimTime::from_us(10.0),
            61_440,
            15,
        );
        t.op_span(
            Op::Copyin,
            SimTime::from_us(2.0),
            SimTime::from_us(5.0),
            4096,
            1,
        );
        t.instant(Track::Events, "credit.stall", SimTime::from_us(3.0), 1);
        TraceSet {
            owners: vec![("host A".to_string(), t.take())],
            ..TraceSet::default()
        }
    }

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(us(SimTime::ZERO), "0.000000");
        assert_eq!(us(SimTime::from_ps(1)), "0.000001");
        assert_eq!(us(SimTime::from_us(1.5)), "1.500000");
        assert_eq!(us(SimTime::from_ps(123_456_789)), "123.456789");
    }

    #[test]
    fn export_contains_metadata_spans_and_instants() {
        let mut c = ChromeTrace::new();
        c.add_process("emulated copy", sample_set());
        let json = c.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("host A phase"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":10.000000"));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let mut c = ChromeTrace::new();
            c.add_process("p", sample_set());
            c.to_json()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn track_count_counts_nonempty_tracks() {
        let mut c = ChromeTrace::new();
        c.add_process("p", sample_set());
        // phase, cpu, events.
        assert_eq!(c.track_count(), 3);
    }

    #[test]
    fn empty_tracks_emit_no_metadata() {
        let set = TraceSet {
            owners: vec![(
                "host A".to_string(),
                vec![TraceEvent {
                    track: Track::Wire,
                    name: "wire",
                    start: SimTime::ZERO,
                    dur: SimTime::from_us(1.0),
                    kind: EventKind::Span,
                    bytes: 0,
                    units: 0,
                    op: None,
                }],
            )],
            ..TraceSet::default()
        };
        let mut c = ChromeTrace::new();
        c.add_process("p", set);
        let json = c.to_json();
        assert!(json.contains("host A wire"));
        assert!(!json.contains("host A phase"));
    }
}
