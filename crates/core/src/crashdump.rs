//! Crash dumps: when the invariant oracle trips mid-run, the world
//! serializes its flight-recorder state — the last events in every
//! tracer ring, the dropped-span ledger, the switch port series and
//! the full metrics registry — to a JSON artifact. The dump sits next
//! to the `.ops` counterexample the differential harness emits, so a
//! failure can be inspected (or replayed from the recorded reproduce
//! line) without re-running the whole swarm.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use genie_trace::{EventKind, TraceEvent};

use crate::world::World;
use genie_machine::SimTime;

/// How many trailing trace events each owner contributes to a dump.
/// The rings can hold far more; the dump wants the moments just
/// before the violation, not the whole run.
pub const DUMP_EVENTS_PER_OWNER: usize = 64;

/// Minimal JSON string escaping (the dump is hand-rolled JSON like
/// every other exporter in the workspace).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn event_json(ev: &TraceEvent) -> String {
    format!(
        "{{\"track\":\"{}\",\"name\":\"{}\",\"kind\":\"{}\",\"start_ps\":{},\"dur_ps\":{},\"bytes\":{},\"units\":{}}}",
        esc(ev.track.name()),
        esc(ev.name),
        match ev.kind {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        },
        ev.start.0,
        ev.dur.0,
        ev.bytes,
        ev.units,
    )
}

impl World {
    /// Writes one crash dump the first time the oracle reports a
    /// violation (one dump per run: the first violation is the
    /// interesting one; later sweeps re-report the same corruption).
    /// The directory comes from `GENIE_CRASH_DUMP_DIR` (default
    /// `target/crash-dumps`); `GENIE_CRASH_DUMP=0` disables the path
    /// entirely.
    pub(crate) fn maybe_crash_dump(&mut self, now: SimTime) {
        if self.crash_dumped {
            return;
        }
        let violated = self
            .fault
            .oracle
            .as_ref()
            .is_some_and(|o| !o.violations().is_empty());
        if !violated {
            return;
        }
        self.crash_dumped = true;
        if std::env::var("GENIE_CRASH_DUMP").as_deref() == Ok("0") {
            return;
        }
        let dir = std::env::var("GENIE_CRASH_DUMP_DIR")
            .unwrap_or_else(|_| "target/crash-dumps".to_string());
        let stem = format!("crash_seed{}_t{}", self.fault_config().seed, now.0);
        match self.write_crash_dump(Path::new(&dir), &stem, "invariant oracle violation", now) {
            Ok(path) => eprintln!("genie: crash dump written to {}", path.display()),
            Err(e) => eprintln!("genie: crash dump failed: {e}"),
        }
    }

    /// Serializes the current flight-recorder state to
    /// `{dir}/{stem}.dump.json` and returns the path.
    pub fn write_crash_dump(
        &self,
        dir: &Path,
        stem: &str,
        reason: &str,
        now: SimTime,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.dump.json"));
        std::fs::write(&path, self.crash_dump_json(reason, now))?;
        Ok(path)
    }

    /// The crash-dump document: reason, a reproduce line, the oracle's
    /// verdicts, the trailing window of every tracer ring (snapshot,
    /// not drain — the run can continue), the dropped-span ledger,
    /// per-port switch series and the full metrics registry.
    pub fn crash_dump_json(&self, reason: &str, now: SimTime) -> String {
        let cfg = self.fault_config();
        let reproduce = format!("GENIE_FAULT_SEED={}; fault config: {:?}", cfg.seed, cfg);
        let mut s = String::with_capacity(16 * 1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"reason\": \"{}\",", esc(reason));
        let _ = writeln!(s, "  \"reproduce\": \"{}\",", esc(&reproduce));
        let _ = writeln!(s, "  \"sim_time_ps\": {},", now.0);

        let (checks, violations): (u64, Vec<String>) = match self.fault.oracle.as_ref() {
            Some(o) => (
                o.checks_run(),
                o.violations().iter().map(|v| v.what.clone()).collect(),
            ),
            None => (0, Vec::new()),
        };
        let _ = writeln!(s, "  \"oracle_checks_run\": {checks},");
        s.push_str("  \"violations\": [");
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{}\"", esc(v));
        }
        if violations.is_empty() {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }

        // Flight recorder: trailing window per owner, plus the
        // sampling ledger so a sparse window is explainable.
        s.push_str("  \"flight_recorder\": {");
        let mut first_owner = true;
        let mut owners: Vec<(String, Vec<TraceEvent>, u64)> =
            Vec::with_capacity(self.hosts.len() + 1);
        for (i, h) in self.hosts.iter().enumerate() {
            owners.push((
                self.fault.site_names[i].clone(),
                h.tracer.snapshot(),
                h.tracer.dropped_spans_total(),
            ));
        }
        owners.push((
            "link".to_string(),
            self.wire_tracer.snapshot(),
            self.wire_tracer.dropped_spans_total(),
        ));
        for (name, events, dropped) in &owners {
            if events.is_empty() && *dropped == 0 {
                continue;
            }
            if !first_owner {
                s.push(',');
            }
            first_owner = false;
            let tail = events.len().saturating_sub(DUMP_EVENTS_PER_OWNER);
            let _ = write!(
                s,
                "\n    \"{}\": {{\"events_held\": {}, \"events_elided\": {}, \"dropped_spans\": {}, \"last_events\": [",
                esc(name),
                events.len(),
                tail,
                dropped,
            );
            for (i, ev) in events[tail..].iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\n      {}", event_json(ev));
            }
            if events.len() > tail {
                s.push_str("\n    ]}");
            } else {
                s.push_str("]}");
            }
        }
        if first_owner {
            s.push_str("},\n");
        } else {
            s.push_str("\n  },\n");
        }

        // Switch port series: the bounded recent window per output
        // port (only meaningful when the switch was observing).
        s.push_str("  \"switch_ports\": [");
        let mut first_port = true;
        if let Some(sw) = &self.switch {
            if sw.observing() {
                for p in 0..sw.ports() {
                    let series = sw.port_series(p);
                    if series.recent.is_empty() && series.points_dropped == 0 {
                        continue;
                    }
                    if !first_port {
                        s.push(',');
                    }
                    first_port = false;
                    let _ = write!(
                        s,
                        "\n    {{\"port\": {}, \"points_dropped\": {}, \"recent\": [",
                        p, series.points_dropped
                    );
                    for (i, pt) in series.recent.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        let kind = match pt.kind {
                            genie_net::switch::PortSampleKind::Depth => "depth",
                            genie_net::switch::PortSampleKind::CreditOccupancy => {
                                "credit_occupancy"
                            }
                            genie_net::switch::PortSampleKind::HolStall => "hol_stall",
                        };
                        let _ = write!(
                            s,
                            "\n      {{\"at_ps\": {}, \"kind\": \"{}\", \"value\": {}}}",
                            pt.at.0, kind, pt.value
                        );
                    }
                    if series.recent.is_empty() {
                        s.push_str("]}");
                    } else {
                        s.push_str("\n    ]}");
                    }
                }
            }
        }
        if first_port {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }

        // Full metrics snapshot (already deterministic JSON).
        s.push_str("  \"metrics\": ");
        let metrics = self.metrics().to_json(2);
        s.push_str(&metrics);
        s.push_str("\n}\n");
        s
    }
}
