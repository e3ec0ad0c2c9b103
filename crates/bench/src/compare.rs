//! Comparing two `report --json` snapshots.
//!
//! `report --compare A.json B.json` reads two `BENCH_report.json`
//! files (typically one committed from an earlier revision and one
//! freshly generated) and prints, side by side, every numeric section
//! — simulated 60 KB latencies, fault counters, fabric, host rollup,
//! scale tier, CQ saturation and datapath microbenchmarks — and the
//! wall-clock timings, with absolute and relative deltas. Simulated
//! deltas flag behavioral drift; wall deltas show what a perf change
//! actually bought.

use genie_trace::json::{self, Json, JsonError};

/// The comparable slice of one `report --json` snapshot.
#[derive(Debug, Default, PartialEq)]
pub struct ReportSummary {
    /// Source revision the snapshot was produced from, if stamped.
    pub revision: Option<String>,
    /// Wall clock of the whole report run, if recorded.
    pub total_wall_ms: Option<f64>,
    /// Per-exhibit wall clock, in file order.
    pub exhibits: Vec<(String, f64)>,
    /// Every top-level object of numbers, in file order, with one
    /// level of nesting flattened to `name.field` rows (so
    /// `datapath_ns` yields `crc32_60k.mean`, `crc32_60k.min`, ...).
    pub sections: Vec<(String, Vec<(String, f64)>)>,
}

impl ReportSummary {
    /// The rows of the section named `name`, if the snapshot has one.
    pub fn section(&self, name: &str) -> Option<&[(String, f64)]> {
        self.sections
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, rows)| rows.as_slice())
    }
}

/// Parses the comparable fields out of a `report --json` document.
/// Anything that is not a JSON object is an error.
pub fn parse_summary(text: &str) -> Result<ReportSummary, JsonError> {
    let Json::Obj(members) = json::parse(text)? else {
        return Err(JsonError {
            offset: 0,
            what: "expected a JSON object",
        });
    };
    let mut out = ReportSummary::default();
    for (key, v) in members {
        match (key.as_str(), v) {
            ("revision", v) => out.revision = v.as_str().map(str::to_string),
            ("total_wall_ms", v) => out.total_wall_ms = v.as_f64(),
            ("exhibits", Json::Arr(items)) => {
                out.exhibits = items
                    .iter()
                    .filter_map(|e| {
                        let name = e.get("name")?.as_str()?;
                        Some((name.to_string(), e.get("wall_ms")?.as_f64()?))
                    })
                    .collect();
            }
            (_, Json::Obj(fields)) => {
                let mut rows = Vec::new();
                for (name, v) in fields {
                    match v {
                        Json::Obj(inner) => rows.extend(
                            inner
                                .iter()
                                .filter_map(|(k, v)| Some((format!("{name}.{k}"), v.as_f64()?))),
                        ),
                        v => rows.extend(v.as_f64().map(|x| (name, x))),
                    }
                }
                if !rows.is_empty() {
                    out.sections.push((key, rows));
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// The heading a section renders under.
fn title(key: &str) -> &str {
    match key {
        "simulated_latency_60kb_us" => {
            "simulated 60 KB latency (us) — nonzero deltas are behavioral drift"
        }
        "fault_stats" => "fault counters (seeded faulted exchanges) — drift is behavioral",
        "fabric" => "fabric fan-in (simulated, `report --json fabric`) — drift is behavioral",
        "host_rollup" => "host rollup (aggregate over hosts, copy fan-in)",
        "scale" => {
            "scale tier (64-host star; *_us/sim_* rows are behavioral, wall rows are host time)"
        }
        "cq_saturation" => "CQ saturation (`report --json fabric --cq`) — knee drift is behavioral",
        "datapath_ns" => "datapath microbenchmarks (ns) — host time, noisy on shared machines",
        other => other,
    }
}

/// Renders one table: every row of `a` then the rows only `b` has,
/// with deltas where both have the row.
fn table(out: &mut String, title: &str, col: &str, a: &[(String, f64)], b: &[(String, f64)]) {
    out.push_str(&format!("\n{title}\n"));
    out.push_str(&format!(
        "  {col:<28} {:>12} {:>12} {:>12} {:>9}\n",
        "A", "B", "delta", "%"
    ));
    let find = |rows: &[(String, f64)], label: &str| {
        rows.iter().find(|(l, _)| l == label).map(|(_, v)| *v)
    };
    let b_only = b.iter().filter(|(l, _)| find(a, l).is_none());
    for (label, _) in a.iter().chain(b_only) {
        match (find(a, label), find(b, label)) {
            (Some(x), Some(y)) => {
                let delta = y - x;
                let pct = if x != 0.0 { delta / x * 100.0 } else { 0.0 };
                out.push_str(&format!(
                    "  {label:<28} {x:>12.3} {y:>12.3} {delta:>+12.3} {pct:>+8.1}%\n"
                ));
            }
            (Some(x), None) => out.push_str(&format!("  {label:<28} {x:>12.3} {:>12}\n", "absent")),
            (None, Some(y)) => out.push_str(&format!("  {label:<28} {:>12} {y:>12.3}\n", "absent")),
            (None, None) => {}
        }
    }
}

/// Renders the comparison of two parsed snapshots: every section
/// either has (A's order first), then the wall clocks.
pub fn render_comparison(
    a_name: &str,
    a: &ReportSummary,
    b_name: &str,
    b: &ReportSummary,
) -> String {
    let mut out = format!("# Report comparison: A = {a_name}, B = {b_name}\n");
    let rev = |s: &ReportSummary| s.revision.clone().unwrap_or_else(|| "unstamped".into());
    out.push_str(&format!("# Revisions: A = {}, B = {}\n", rev(a), rev(b)));
    let b_only = b.sections.iter().filter(|(k, _)| a.section(k).is_none());
    for (key, _) in a.sections.iter().chain(b_only) {
        let (av, bv) = (a.section(key), b.section(key));
        table(
            &mut out,
            title(key),
            "row",
            av.unwrap_or(&[]),
            bv.unwrap_or(&[]),
        );
    }
    let wall = |s: &ReportSummary| {
        let total = s.total_wall_ms.map(|t| ("total".to_string(), t));
        total
            .into_iter()
            .chain(s.exhibits.iter().cloned())
            .collect::<Vec<_>>()
    };
    table(
        &mut out,
        "wall clock (ms) — host time, noisy on shared machines",
        "exhibit",
        &wall(a),
        &wall(b),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_A: &str = r#"{
  "revision": "69b7e96c",
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
        let s = parse_summary(SAMPLE_A).unwrap();
        assert_eq!(s.revision.as_deref(), Some("69b7e96c"));
        assert_eq!(s.total_wall_ms, Some(90.0));
        assert_eq!(
            s.exhibits,
            vec![("fig3".to_string(), 8.0), ("table8".to_string(), 30.0)]
        );
        assert_eq!(
            s.section("simulated_latency_60kb_us").unwrap(),
            [
                ("copy".to_string(), 3932.044),
                ("weak move".to_string(), 1317.401)
            ]
        );
        // Every numeric section, in file order; `threads` is a scalar.
        let keys: Vec<_> = s.sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["fault_stats", "simulated_latency_60kb_us"]);
    }

    #[test]
    fn comparison_shows_simulated_and_wall_deltas() {
        let a = parse_summary(SAMPLE_A).unwrap();
        let b = parse_summary(SAMPLE_B).unwrap();
        let text = render_comparison("old.json", &a, "new.json", &b);
        // Both snapshots' revisions head the comparison; B has none.
        assert!(
            text.contains("# Revisions: A = 69b7e96c, B = unstamped"),
            "{text}"
        );
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
        let a = parse_summary(FIXTURE_A).unwrap();
        let b = parse_summary(FIXTURE_B).unwrap();
        let fabric = a.section("fabric").unwrap();
        assert_eq!(fabric.len(), 6);
        assert_eq!(fabric[0], ("rpc_fanin.copy.p50_us".to_string(), 118.25));
        assert_eq!(a.section("host_rollup").unwrap().len(), 3);
        // The fabric section must not bleed into the simulated one.
        assert_eq!(a.section("simulated_latency_60kb_us").unwrap().len(), 2);

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
        let a = parse_summary(FIXTURE_A).unwrap();
        let b = parse_summary(FIXTURE_B).unwrap();
        // Scale rows parse into their own section (fixture A has no
        // speedup probe — it ran serial).
        let scale = a.section("scale").unwrap();
        assert_eq!(scale.len(), 9);
        assert_eq!(b.section("scale").unwrap().len(), 12);
        assert_eq!(scale[0], ("shards".to_string(), 1.0));
        // ...and do not bleed into the fabric/host_rollup sections.
        assert_eq!(a.section("fabric").unwrap().len(), 6);
        assert_eq!(a.section("host_rollup").unwrap().len(), 3);

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
        let empty = parse_summary("{}").unwrap();
        assert_eq!(empty, ReportSummary::default());
        let text = render_comparison("a", &empty, "b", &empty);
        assert!(text.contains("Report comparison"));
    }

    // `report --json fabric --cq` snapshots with a `datapath` run
    // spliced in: the fault_stats, cq_saturation and datapath_ns
    // sections the line-oriented parser used to skip.
    const SECTIONS_A: &str = include_str!("../testdata/compare_sections_a.json");
    const SECTIONS_B: &str = include_str!("../testdata/compare_sections_b.json");

    #[test]
    fn compares_fault_cq_and_datapath_sections() {
        let a = parse_summary(SECTIONS_A).unwrap();
        let b = parse_summary(SECTIONS_B).unwrap();
        let keys: Vec<_> = a.sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "fault_stats",
                "simulated_latency_60kb_us",
                "fabric",
                "host_rollup",
                "cq_saturation",
                "datapath_ns"
            ]
        );
        // One level of nesting flattens to `name.field`.
        let dp = a.section("datapath_ns").unwrap();
        assert_eq!(dp[0], ("crc32_60k.mean".to_string(), 48825.2));
        assert_eq!(dp[1], ("crc32_60k.min".to_string(), 48674.0));

        let text = render_comparison("a.json", &a, "b.json", &b);
        let line = |label: &str| {
            text.lines()
                .find(|l| l.trim().starts_with(label))
                .unwrap_or_else(|| panic!("no {label} row:\n{text}"))
        };
        assert!(line("copy.knee_depth").contains("+0.000"), "{text}");
        assert!(line("weak move.knee_depth").contains("+4.000"), "{text}");
        assert!(line("crc_drops").contains("+1.000"), "{text}");
        assert!(line("crc32_60k.min").contains("-674.000"), "{text}");
        assert!(text.contains("CQ saturation"), "{text}");
        assert!(text.contains("datapath microbenchmarks"), "{text}");
        // A section only B has renders with A absent.
        assert!(line("star_wave_64.min").contains("absent"), "{text}");
    }

    #[test]
    fn rejects_documents_that_are_not_json_objects() {
        let e = parse_summary("not json at all").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = parse_summary("{\"a\": 1,\n").unwrap_err();
        assert_eq!(e.offset, 9);
        assert!(parse_summary("[1, 2]").is_err());
    }

    #[test]
    fn one_line_documents_keep_their_values() {
        let s = parse_summary(r#"{"simulated_latency_60kb_us": {"copy": 1.0}}"#).unwrap();
        assert_eq!(
            s.section("simulated_latency_60kb_us").unwrap(),
            [("copy".to_string(), 1.0)]
        );
    }
}
