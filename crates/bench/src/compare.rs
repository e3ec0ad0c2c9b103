//! Comparing two `report --json` snapshots.
//!
//! `report --compare A.json B.json` reads two `BENCH_report.json`
//! files (typically one committed from an earlier revision and one
//! freshly generated) and prints, side by side, the per-semantics
//! simulated 60 KB latencies and the wall-clock timings, with
//! absolute and relative deltas. Simulated deltas flag behavioral
//! drift; wall deltas show what a perf change actually bought.
//!
//! The parser is line-oriented and matches the known shape emitted by
//! the report binary's hand-rolled JSON writer (this workspace takes
//! no JSON dependency).

/// The comparable slice of one `report --json` snapshot.
#[derive(Debug, Default, PartialEq)]
pub struct ReportSummary {
    /// Wall clock of the whole report run, if recorded.
    pub total_wall_ms: Option<f64>,
    /// Per-exhibit wall clock, in file order.
    pub exhibits: Vec<(String, f64)>,
    /// Per-semantics simulated 60 KB latency (µs), in file order.
    pub simulated_us: Vec<(String, f64)>,
    /// Fabric fan-in suite rows (`report --json fabric`), in file
    /// order: per-semantics p50/p99/stalls.
    pub fabric: Vec<(String, f64)>,
    /// Aggregate-over-hosts rollup rows (`report --json fabric`).
    pub host_rollup: Vec<(String, f64)>,
    /// Scale-tier rows (`report --json fabric --scale`): simulated
    /// distribution plus wall clocks (snapshots from before the
    /// sharded engine's removal also carry shard and speedup rows).
    pub scale: Vec<(String, f64)>,
}

/// Extracts the string value of a `"key": "value"` fragment on `line`.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts the numeric value of a `"key": 1.23` fragment on `line`.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Which flat `"label": number` section the parser is inside.
#[derive(Clone, Copy, PartialEq)]
enum Section {
    None,
    Simulated,
    Fabric,
    HostRollup,
    Scale,
}

/// Parses the comparable fields out of a `report --json` document.
pub fn parse_summary(json: &str) -> ReportSummary {
    let mut out = ReportSummary::default();
    let mut section = Section::None;
    for line in json.lines() {
        if let Some(v) = num_field(line, "total_wall_ms") {
            out.total_wall_ms = Some(v);
        }
        if let (Some(name), Some(ms)) = (str_field(line, "name"), num_field(line, "wall_ms")) {
            out.exhibits.push((name.to_string(), ms));
        }
        if line.contains("\"simulated_latency_60kb_us\"") {
            section = Section::Simulated;
            continue;
        }
        if line.contains("\"fabric\":") {
            section = Section::Fabric;
            continue;
        }
        if line.contains("\"host_rollup\":") {
            section = Section::HostRollup;
            continue;
        }
        if line.contains("\"scale\":") {
            section = Section::Scale;
            continue;
        }
        if section != Section::None {
            let t = line.trim();
            if t.starts_with('}') {
                section = Section::None;
                continue;
            }
            // `"label": 123.456,` — label first, value after the colon.
            if let Some(rest) = t.strip_prefix('"') {
                if let Some((label, tail)) = rest.split_once("\": ") {
                    if let Ok(v) = tail.trim_end_matches(',').parse::<f64>() {
                        let dst = match section {
                            Section::Simulated => &mut out.simulated_us,
                            Section::Fabric => &mut out.fabric,
                            Section::HostRollup => &mut out.host_rollup,
                            Section::Scale => &mut out.scale,
                            Section::None => unreachable!(),
                        };
                        dst.push((label.to_string(), v));
                    }
                }
            }
        }
    }
    out
}

/// One comparison row: label, old, new.
fn row(label: &str, a: f64, b: f64) -> String {
    let delta = b - a;
    let pct = if a != 0.0 { delta / a * 100.0 } else { 0.0 };
    format!("  {label:<22} {a:>12.3} {b:>12.3} {delta:>+12.3} {pct:>+8.1}%\n")
}

/// Renders the comparison of two parsed snapshots.
pub fn render_comparison(
    a_name: &str,
    a: &ReportSummary,
    b_name: &str,
    b: &ReportSummary,
) -> String {
    let mut out = format!("# Report comparison: A = {a_name}, B = {b_name}\n\n");
    out.push_str("simulated 60 KB latency (us) — nonzero deltas are behavioral drift\n");
    out.push_str(&format!(
        "  {:<22} {:>12} {:>12} {:>12} {:>9}\n",
        "semantics", "A", "B", "delta", "%"
    ));
    for (label, av) in &a.simulated_us {
        match b.simulated_us.iter().find(|(l, _)| l == label) {
            Some((_, bv)) => out.push_str(&row(label, *av, *bv)),
            None => out.push_str(&format!("  {label:<22} {av:>12.3} {:>12}\n", "absent")),
        }
    }
    for (label, bv) in &b.simulated_us {
        if !a.simulated_us.iter().any(|(l, _)| l == label) {
            out.push_str(&format!("  {label:<22} {:>12} {bv:>12.3}\n", "absent"));
        }
    }
    let flat_section =
        |out: &mut String, title: &str, col: &str, av: &[(String, f64)], bv: &[(String, f64)]| {
            if av.is_empty() && bv.is_empty() {
                return;
            }
            out.push_str(&format!("\n{title}\n"));
            out.push_str(&format!(
                "  {:<28} {:>12} {:>12} {:>12} {:>9}\n",
                col, "A", "B", "delta", "%"
            ));
            for (label, a) in av {
                match bv.iter().find(|(l, _)| l == label) {
                    Some((_, b)) => {
                        let delta = b - a;
                        let pct = if *a != 0.0 { delta / a * 100.0 } else { 0.0 };
                        out.push_str(&format!(
                            "  {label:<28} {a:>12.3} {b:>12.3} {delta:>+12.3} {pct:>+8.1}%\n"
                        ));
                    }
                    None => out.push_str(&format!("  {label:<28} {a:>12.3} {:>12}\n", "absent")),
                }
            }
            for (label, b) in bv {
                if !av.iter().any(|(l, _)| l == label) {
                    out.push_str(&format!("  {label:<28} {:>12} {b:>12.3}\n", "absent"));
                }
            }
        };
    flat_section(
        &mut out,
        "fabric fan-in (simulated, `report --json fabric`) — drift is behavioral",
        "row",
        &a.fabric,
        &b.fabric,
    );
    flat_section(
        &mut out,
        "host rollup (aggregate over hosts, copy fan-in)",
        "metric",
        &a.host_rollup,
        &b.host_rollup,
    );
    flat_section(
        &mut out,
        "scale tier (64-host star; *_us/sim_* rows are behavioral, wall rows are host time)",
        "row",
        &a.scale,
        &b.scale,
    );
    out.push_str("\nwall clock (ms) — host time, noisy on shared machines\n");
    out.push_str(&format!(
        "  {:<22} {:>12} {:>12} {:>12} {:>9}\n",
        "exhibit", "A", "B", "delta", "%"
    ));
    if let (Some(at), Some(bt)) = (a.total_wall_ms, b.total_wall_ms) {
        out.push_str(&row("total", at, bt));
    }
    for (label, av) in &a.exhibits {
        if let Some((_, bv)) = b.exhibits.iter().find(|(l, _)| l == label) {
            out.push_str(&row(label, *av, *bv));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_A: &str = r#"{
  "threads": 1,
  "total_wall_ms": 90.000,
  "exhibits": [
    {"name": "fig3", "wall_ms": 8.000},
    {"name": "table8", "wall_ms": 30.000}
  ],
  "fault_stats": {
    "seed": 42,
    "crc_drops": 4
  },
  "simulated_latency_60kb_us": {
    "copy": 3932.044,
    "weak move": 1317.401
  }
}
"#;

    const SAMPLE_B: &str = r#"{
  "threads": 1,
  "total_wall_ms": 45.000,
  "exhibits": [
    {"name": "fig3", "wall_ms": 4.000},
    {"name": "table8", "wall_ms": 15.000}
  ],
  "simulated_latency_60kb_us": {
    "copy": 3932.044,
    "weak move": 1300.000
  }
}
"#;

    #[test]
    fn parses_the_report_json_shape() {
        let s = parse_summary(SAMPLE_A);
        assert_eq!(s.total_wall_ms, Some(90.0));
        assert_eq!(
            s.exhibits,
            vec![("fig3".to_string(), 8.0), ("table8".to_string(), 30.0)]
        );
        assert_eq!(
            s.simulated_us,
            vec![
                ("copy".to_string(), 3932.044),
                ("weak move".to_string(), 1317.401)
            ]
        );
    }

    #[test]
    fn comparison_shows_simulated_and_wall_deltas() {
        let a = parse_summary(SAMPLE_A);
        let b = parse_summary(SAMPLE_B);
        let text = render_comparison("old.json", &a, "new.json", &b);
        // Identical simulated latency: zero delta.
        assert!(text.contains("copy"), "{text}");
        let copy_line = text.lines().find(|l| l.trim().starts_with("copy")).unwrap();
        assert!(copy_line.contains("+0.000"), "{copy_line}");
        // Drifted simulated latency shows the signed delta.
        let wm = text
            .lines()
            .find(|l| l.trim().starts_with("weak move"))
            .unwrap();
        assert!(wm.contains("-17.401"), "{wm}");
        // Wall-clock total halves: about -50%.
        let total = text
            .lines()
            .find(|l| l.trim().starts_with("total"))
            .unwrap();
        assert!(total.contains("-50.0%"), "{total}");
    }

    // Committed `report --json fabric` snapshots: same shape the
    // report binary emits, with the fabric and host_rollup sections.
    const FIXTURE_A: &str = include_str!("../testdata/compare_fabric_a.json");
    const FIXTURE_B: &str = include_str!("../testdata/compare_fabric_b.json");

    #[test]
    fn compares_fabric_and_host_rollup_sections() {
        let a = parse_summary(FIXTURE_A);
        let b = parse_summary(FIXTURE_B);
        assert_eq!(a.fabric.len(), 6);
        assert_eq!(a.fabric[0], ("rpc_fanin.copy.p50_us".to_string(), 118.25));
        assert_eq!(a.host_rollup.len(), 3);
        // The fabric section must not bleed into the simulated one.
        assert_eq!(a.simulated_us.len(), 2);

        let text = render_comparison("a.json", &a, "b.json", &b);
        // p99 drifted down by 6.75 µs between the fixtures.
        let p99 = text
            .lines()
            .find(|l| l.trim().starts_with("rpc_fanin.copy.p99_us"))
            .expect("fabric row rendered");
        assert!(p99.contains("-6.750"), "{p99}");
        // Unchanged fabric rows show a zero delta.
        let p50 = text
            .lines()
            .find(|l| l.trim().starts_with("rpc_fanin.copy.p50_us"))
            .unwrap();
        assert!(p50.contains("+0.000"), "{p50}");
        // Host-rollup section renders with its own header.
        assert!(text.contains("host rollup"), "{text}");
        let busy = text
            .lines()
            .find(|l| l.trim().starts_with("busy_us"))
            .unwrap();
        assert!(busy.contains("-22.500"), "{busy}");
    }

    #[test]
    fn compares_the_scale_tier_section() {
        let a = parse_summary(FIXTURE_A);
        let b = parse_summary(FIXTURE_B);
        // Scale rows parse into their own section (fixture A has no
        // speedup probe — it ran serial).
        assert_eq!(a.scale.len(), 9);
        assert_eq!(b.scale.len(), 12);
        assert_eq!(a.scale[0], ("shards".to_string(), 1.0));
        // ...and do not bleed into the fabric/host_rollup sections.
        assert_eq!(a.fabric.len(), 6);
        assert_eq!(a.host_rollup.len(), 3);

        let text = render_comparison("a.json", &a, "b.json", &b);
        assert!(text.contains("scale tier"), "{text}");
        // Simulated scale rows are identical across shard counts.
        let p50 = text
            .lines()
            .find(|l| l.trim().starts_with("copy.p50_us"))
            .expect("scale row rendered");
        assert!(p50.contains("+0.000"), "{p50}");
        // The wall clock dropped: 4-shard run is ~3x faster.
        let wall = text
            .lines()
            .find(|l| l.trim().starts_with("copy.wall_s"))
            .unwrap();
        assert!(wall.contains("-66.7%"), "{wall}");
        // Speedup only exists in B; rendered as absent-in-A.
        let sp = text
            .lines()
            .find(|l| l.trim().starts_with("speedup_vs_serial"))
            .unwrap();
        assert!(sp.contains("absent"), "{sp}");
    }

    #[test]
    fn missing_sections_do_not_panic() {
        let empty = parse_summary("{}");
        assert_eq!(empty, ReportSummary::default());
        let text = render_comparison("a", &empty, "b", &empty);
        assert!(text.contains("Report comparison"));
    }
}
