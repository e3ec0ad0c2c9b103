//! Command-line contract of the `report` binary: an argument it does
//! not recognise — an unknown flag or exhibit name — is an error that
//! names the argument and exits 2, never a silently ignored word.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .env_remove("GENIE_TRACE")
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
/// first need them: the latency grids and the instrumented fit sets.
const PLAN_ROWS: [&str; 8] = [
    "plan:grid EarlyDemux/Figure",
    "plan:grid EarlyDemux/Short",
    "plan:grid PooledAligned/Figure",
    "plan:grid PooledUnaligned/Figure",
    "plan:fits Micron P166",
    "plan:fits Gateway P5-90",
    "plan:fits AlphaStation 255/233",
    "plan:grid Outboard/Figure",
];

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
        let out = report(&["--threads", threads, "--profile", "all"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "threads {threads}: {stdout}");
        let table: Vec<&str> = stdout
            .lines()
            .skip_while(|l| *l != "# Profile: per-exhibit wall clock")
            .skip(2) // the title and the column header
            .take_while(|l| !l.is_empty())
            .collect();
        let (summary, rows) = table
            .split_last()
            .unwrap_or_else(|| panic!("threads {threads}: no profile table:\n{stdout}"));
        // A row is a name (plan rows hold spaces) and then its wall_ms.
        let rows: Vec<(String, f64)> = rows
            .iter()
            .map(|row| {
                let (name, ms) = row
                    .trim()
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("threads {threads}: row {row:?}"));
                let ms: f64 = ms.parse().expect("wall_ms is a number");
                assert!(ms >= 0.0, "threads {threads}: row {row:?}");
                (name.trim().to_string(), ms)
            })
            .collect();
        // The plan's rows print first, then one row per exhibit.
        let (plan, exhibit_rows) = rows.split_at(PLAN_ROWS.len());
        let plan_names: Vec<&str> = plan.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(plan_names, PLAN_ROWS, "threads {threads}");
        let names: Vec<&str> = exhibit_rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, exhibits, "threads {threads}");
        for name in &names {
            assert_eq!(name.split_whitespace().count(), 1, "threads {threads}");
        }
        assert!(
            summary
                .trim_start()
                .starts_with("19 exhibits, 8 plan inputs,"),
            "threads {threads}: summary {summary:?}"
        );
        if threads == "1" {
            // Serially, the rows cover the whole measure-and-render.
            let wall: f64 = summary
                .split(" ms wall")
                .next()
                .and_then(|s| s.rsplit(' ').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no wall in summary {summary:?}"));
            let summed: f64 = rows.iter().map(|(_, ms)| ms).sum();
            assert!(
                (summed - wall).abs() <= 0.01 * wall,
                "rows sum to {summed:.3} ms against {wall:.3} ms wall"
            );
        }
    }
}
