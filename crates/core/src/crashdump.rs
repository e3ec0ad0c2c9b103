//! Crash dumps: when the invariant oracle trips mid-run, the world
//! serializes its flight-recorder state — the last events in every
//! tracer ring, the dropped-span ledger, the switch port series and
//! the full metrics registry — to a JSON artifact. The dump sits next
//! to the `.ops` counterexample the differential harness emits, so a
//! failure can be inspected (or replayed from the recorded reproduce
//! line) without re-running the whole swarm.

use std::path::{Path, PathBuf};

use genie_net::switch::PortSampleKind;
use genie_trace::json::{Layout, Writer};
use genie_trace::EventKind;

use crate::world::World;
use genie_machine::SimTime;

/// How many trailing trace events each owner contributes to a dump.
/// The rings can hold far more; the dump wants the moments just
/// before the violation, not the whole run.
pub const DUMP_EVENTS_PER_OWNER: usize = 64;

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
        let oracle = self.fault.oracle.as_ref();
        let mut w = Writer::new(2);
        w.object(Layout::Pretty).key("reason").str(reason);
        w.key("reproduce").str(&format!(
            "GENIE_FAULT_SEED={}; fault config: {:?}",
            cfg.seed, cfg
        ));
        w.key("sim_time_ps").num(now.0);
        w.key("oracle_checks_run")
            .num(oracle.map_or(0, |o| o.checks_run()));
        w.key("violations").array(Layout::Pretty);
        for v in oracle.map_or(&[][..], |o| o.violations()) {
            w.str(&v.what);
        }
        w.end();

        // Flight recorder: trailing window per owner, plus the
        // sampling ledger so a sparse window is explainable.
        w.key("flight_recorder").object(Layout::Pretty);
        let tracers = self.hosts.iter().map(|h| &h.tracer);
        let names = self.fault.site_names.iter().map(String::as_str);
        let owners = names
            .zip(tracers)
            .chain(std::iter::once(("link", &self.wire_tracer)));
        for (name, tracer) in owners {
            let events = tracer.snapshot();
            let dropped = tracer.dropped_spans_total();
            if events.is_empty() && dropped == 0 {
                continue;
            }
            let tail = events.len().saturating_sub(DUMP_EVENTS_PER_OWNER);
            w.key(name).object(Layout::Line);
            w.key("events_held").num(events.len());
            w.key("events_elided").num(tail);
            w.key("dropped_spans").num(dropped);
            w.key("last_events").array(Layout::Pretty);
            for ev in &events[tail..] {
                let kind = match ev.kind {
                    EventKind::Span => "span",
                    EventKind::Instant => "instant",
                };
                w.object(Layout::Line).key("track").str(ev.track.name());
                w.key("name").str(ev.name).key("kind").str(kind);
                w.key("start_ps")
                    .num(ev.start.0)
                    .key("dur_ps")
                    .num(ev.dur.0);
                w.key("bytes").num(ev.bytes).key("units").num(ev.units);
                w.end();
            }
            w.end().end();
        }
        w.end();

        // Switch port series: the bounded recent window per output
        // port (only meaningful when the switch was observing).
        w.key("switch_ports").array(Layout::Pretty);
        if let Some(sw) = self.switch.as_ref().filter(|sw| sw.observing()) {
            for p in 0..sw.ports() {
                let series = sw.port_series(p);
                if series.recent.is_empty() && series.points_dropped == 0 {
                    continue;
                }
                w.object(Layout::Line).key("port").num(p);
                w.key("points_dropped").num(series.points_dropped);
                w.key("recent").array(Layout::Pretty);
                for pt in &series.recent {
                    let kind = match pt.kind {
                        PortSampleKind::Depth => "depth",
                        PortSampleKind::CreditOccupancy => "credit_occupancy",
                        PortSampleKind::HolStall => "hol_stall",
                    };
                    w.object(Layout::Line).key("at_ps").num(pt.at.0);
                    w.key("kind").str(kind).key("value").num(pt.value);
                    w.end();
                }
                w.end().end();
            }
        }
        w.end();

        w.key("metrics");
        self.metrics().write_json(&mut w);
        w.end();
        w.finish()
    }
}
