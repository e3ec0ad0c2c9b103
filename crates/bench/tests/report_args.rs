//! Command-line contract of the `report` binary: an argument it does
//! not recognise — an unknown flag or exhibit name — is an error that
//! names the argument and exits 2, never a silently ignored word.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("run report")
}

fn assert_rejected(args: &[&str], offender: &str) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{offender:?}")),
        "{args:?}: stderr does not name {offender:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: rendered despite the error"
    );
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    assert_rejected(&["--bogus", "fig1"], "--bogus");
    assert_rejected(&["fig1", "--bogus"], "--bogus");
    // A flag this binary does not define, even one followed by a value
    // and a valid exhibit name, must not fall through to a render.
    assert_rejected(&["--workers", "4", "all"], "--workers");
}

#[test]
fn unknown_exhibit_names_are_rejected_by_name() {
    assert_rejected(&["fig1", "fig99"], "fig99");
    assert_rejected(&["nosuch"], "nosuch");
}

#[test]
fn known_arguments_still_render() {
    let out = report(&["--threads", "1", "fig1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 1"));
}

/// Writes `body` to a fresh file under the temp dir and returns its path.
fn temp_file(name: &str, body: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("genie_report_args_{}_{name}", std::process::id()));
    std::fs::write(&path, body).expect("write temp file");
    path.to_string_lossy().into_owned()
}

#[test]
fn compare_rejects_a_file_that_is_not_json() {
    let bad = temp_file("bad.json", "not json at all");
    let good = temp_file(
        "good.json",
        r#"{"simulated_latency_60kb_us": {"copy": 1.0}}"#,
    );
    let out = report(&["--compare", &bad, &good]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(&bad),
        "stderr does not name {bad}: {stderr}"
    );
    assert!(stderr.contains("at byte 0"), "no byte offset: {stderr}");
    assert!(out.stdout.is_empty(), "rendered despite the error");

    // A truncated document names the offset where it stops parsing.
    let cut = temp_file("cut.json", "{\n  \"threads\": 1,\n");
    let out = report(&["--compare", &good, &cut]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(&cut) && stderr.contains("at byte 18"),
        "{stderr}"
    );
    for p in [bad, good, cut] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn compare_reads_one_line_documents() {
    let one = temp_file(
        "one.json",
        r#"{"simulated_latency_60kb_us": {"copy": 1.0}}"#,
    );
    let out = report(&["--compare", &one, &one]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let copy = stdout
        .lines()
        .find(|l| l.trim().starts_with("copy"))
        .unwrap_or_else(|| panic!("the header-line value was dropped:\n{stdout}"));
    assert!(copy.contains("1.000") && copy.contains("+0.000"), "{copy}");
    let _ = std::fs::remove_file(one);
}

/// The plan inputs `report all` measures, in the order its exhibits
/// first need them: the latency grids, Figure 4's ping-pongs, the
/// instrumented fit sets, the OC-12 exchanges and the ablation's
/// unthresholded sweep.
const PLAN_ROWS: [&str; 11] = [
    "plan:grid EarlyDemux/Figure",
    "plan:pingpongs EarlyDemux",
    "plan:grid EarlyDemux/Short",
    "plan:grid PooledAligned/Figure",
    "plan:grid PooledUnaligned/Figure",
    "plan:fits Micron P166",
    "plan:fits Gateway P5-90",
    "plan:fits AlphaStation 255/233",
    "plan:oc12 EarlyDemux",
    "plan:grid Outboard/Figure",
    "plan:unthresholded EmulatedCopy",
];

/// A `--profile` table: each `(row name, wall ms)` in print order,
/// the summary line and the wall clock it states.
struct Profile {
    rows: Vec<(String, f64)>,
    summary: String,
    wall: f64,
}

/// Runs `report ARGS` and parses the `--profile` table it prints.
fn profile(args: &[&str]) -> Profile {
    let out = report(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
    let table: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "# Profile: per-exhibit wall clock")
        .skip(2) // the title and the column header
        .take_while(|l| !l.is_empty())
        .collect();
    let (summary, rows) = table
        .split_last()
        .unwrap_or_else(|| panic!("{args:?}: no profile table:\n{stdout}"));
    // A row is a name (plan rows hold spaces) and then its wall_ms.
    let rows = rows
        .iter()
        .map(|row| {
            let (name, ms) = row
                .trim()
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("{args:?}: row {row:?}"));
            let ms: f64 = ms.parse().expect("wall_ms is a number");
            assert!(ms >= 0.0, "{args:?}: row {row:?}");
            (name.trim().to_string(), ms)
        })
        .collect();
    let wall = summary
        .split(" ms wall")
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{args:?}: no wall in summary {summary:?}"));
    let summary = summary.trim().to_string();
    Profile {
        rows,
        summary,
        wall,
    }
}

impl Profile {
    /// Serially, the rows cover the whole measure-and-render.
    fn assert_rows_sum_to_wall(&self, what: &str) {
        let summed: f64 = self.rows.iter().map(|(_, ms)| ms).sum();
        assert!(
            (summed - self.wall).abs() <= 0.01 * self.wall,
            "{what}: rows sum to {summed:.3} ms against {:.3} ms wall",
            self.wall
        );
    }
}

#[test]
fn profile_prints_one_row_per_exhibit_at_any_thread_count() {
    // The exhibit list, in canonical order, as `report` itself names it.
    let rejected = report(&["nosuch"]);
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    let exhibits: Vec<&str> = stderr
        .split_once("exhibits: ")
        .map(|(_, list)| list.split_whitespace().collect())
        .unwrap_or_else(|| panic!("no exhibit list: {stderr}"));
    assert_eq!(exhibits.len(), 19, "{exhibits:?}");
    for threads in ["1", "4"] {
        let p = profile(&["--threads", threads, "--profile", "all"]);
        // The plan's rows print first, then one row per exhibit.
        let (plan, exhibit_rows) = p.rows.split_at(PLAN_ROWS.len());
        let plan_names: Vec<&str> = plan.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(plan_names, PLAN_ROWS, "threads {threads}");
        let names: Vec<&str> = exhibit_rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, exhibits, "threads {threads}");
        for name in &names {
            assert_eq!(name.split_whitespace().count(), 1, "threads {threads}");
        }
        assert!(
            p.summary.starts_with("19 exhibits, 11 plan inputs,"),
            "threads {threads}: summary {:?}",
            p.summary
        );
        if threads == "1" {
            p.assert_rows_sum_to_wall("all");
        }
    }
}

#[test]
fn profile_rows_add_up_for_the_fabric_views_and_the_exports() {
    let trace = std::env::temp_dir().join(format!(
        "genie_report_args_{}_profile_trace.json",
        std::process::id()
    ));
    let trace = trace.to_string_lossy().into_owned();
    for args in [
        vec!["fabric"],
        vec!["fabric", "--cq"],
        vec!["--metrics", "--trace", &trace],
    ] {
        let what = args.join(" ");
        let p = profile(&[&args[..], &["--profile", "--threads", "1"]].concat());
        let plan: Vec<&str> = p
            .rows
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("plan:"))
            .collect();
        assert!(!plan.is_empty(), "{what}: no plan row in {:?}", p.rows);
        // Each input is measured once, so `--metrics --trace` runs its
        // canonical exchanges once for both exports.
        for name in &plan {
            let times = plan.iter().filter(|n| *n == name).count();
            assert_eq!(times, 1, "{what}: {name} is measured {times} times");
        }
        p.assert_rows_sum_to_wall(&what);
    }
    let _ = std::fs::remove_file(trace);
}
