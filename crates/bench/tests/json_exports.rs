//! Every JSON the binaries export parses with the workspace codec,
//! and `datapath --out` splices its section into an existing report
//! without losing a value.

use std::path::PathBuf;
use std::process::Command;

use genie_trace::json::{self, Json, Layout, Writer};

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("genie_json_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin` with `args` in `dir` and returns its stdout.
fn run(bin: &str, dir: &PathBuf, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env_remove("GENIE_TRACE")
        .output()
        .expect("run binary");
    assert!(
        out.status.success(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn parse_file(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("read export");
    json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
}

fn members(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

/// `report --json ARGS` in a scratch dir; returns the parsed report.
fn report_json(name: &str, args: &[&str]) -> Json {
    let dir = scratch(name);
    let mut full = vec!["--json", "--threads", "1"];
    full.extend_from_slice(args);
    run(env!("CARGO_BIN_EXE_report"), &dir, &full);
    let doc = parse_file(&dir.join("BENCH_report.json"));
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

#[test]
fn report_json_all_parses() {
    let doc = report_json("all", &["all"]);
    let Some(Json::Arr(exhibits)) = doc.get("exhibits") else {
        panic!("no exhibits array: {doc:?}")
    };
    // Eleven plan rows (`plan:grid ...`, `plan:fits ...`,
    // `plan:pingpongs ...`, ...), then the 19 exhibits.
    assert_eq!(exhibits.len(), 11 + 19);
    for (i, e) in exhibits.iter().enumerate() {
        let name = e.get("name").and_then(Json::as_str);
        assert!(
            name.is_some_and(|n| n.starts_with("plan:") == (i < 11)),
            "{e:?}"
        );
        assert!(e.get("wall_ms").and_then(Json::as_f64).is_some(), "{e:?}");
    }
    let sims = members(doc.get("simulated_latency_60kb_us").expect("simulated"));
    assert_eq!(sims.len(), 8);
    assert!(doc.get("fault_stats").and_then(|f| f.get("seed")).is_some());
    let rev = doc.get("revision").and_then(Json::as_str);
    assert!(rev.is_some_and(|r| !r.is_empty()), "no revision stamp");
}

#[test]
fn report_json_fabric_cq_parses() {
    let doc = report_json("cq", &["fabric", "--cq"]);
    for section in ["fault_stats", "fabric", "host_rollup", "cq_saturation"] {
        assert!(
            !members(doc.get(section).expect(section)).is_empty(),
            "{section} is empty"
        );
    }
    let cq = doc.get("cq_saturation").expect("cq_saturation");
    assert!(cq.get("copy.knee_depth").and_then(Json::as_f64).is_some());
}

#[test]
fn report_json_fabric_scale_records_peak_rss() {
    let dir = scratch("scale");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--json", "fabric", "--scale"])
        .current_dir(&dir)
        .env_remove("GENIE_TRACE")
        .env("GENIE_SCALE_DATAGRAMS", "200")
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse_file(&dir.join("BENCH_report.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = doc.get("scale").expect("scale section");
    assert_eq!(
        scale.get("datagrams_total").and_then(Json::as_f64),
        Some(1600.0)
    );
    let rss = scale.get("peak_rss_mb").and_then(Json::as_f64);
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(rss.is_some_and(|mb| mb > 0.0), "peak_rss_mb: {rss:?}");
    } else {
        assert_eq!(rss, None);
    }
}

#[test]
fn report_metrics_and_trace_parse() {
    let dir = scratch("inspect");
    let metrics = run(env!("CARGO_BIN_EXE_report"), &dir, &["--metrics"]);
    let doc = json::parse(&metrics).unwrap_or_else(|e| panic!("--metrics: {e}"));
    assert_eq!(members(&doc).len(), 8, "one entry per semantics");
    let copy = doc.get("emulated copy").expect("emulated copy");
    assert!(copy.get("latency_us").and_then(Json::as_f64).is_some());
    assert!(copy
        .get("metrics")
        .and_then(|m| m.get("host_a.busy_us"))
        .is_some());

    run(
        env!("CARGO_BIN_EXE_report"),
        &dir,
        &["--trace", "trace.json"],
    );
    let Json::Arr(events) = parse_file(&dir.join("trace.json")) else {
        panic!("trace is not an array")
    };
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_string);
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("X")));
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("process_name")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn datapath_replaces_an_older_section_and_keeps_the_report() {
    let dir = scratch("datapath");
    run(
        env!("CARGO_BIN_EXE_report"),
        &dir,
        &["--json", "--threads", "1", "all"],
    );
    let report = parse_file(&dir.join("BENCH_report.json"));

    // The report plus a stale datapath_ns from an earlier run.
    let mut w = Writer::new(2);
    w.object(Layout::Pretty);
    for (k, v) in members(&report) {
        w.key(k).value(v, Layout::Pretty);
    }
    w.key("datapath_ns").object(Layout::Pretty);
    w.key("retired_bench").object(Layout::Line);
    w.key("mean").num("1.0").key("min").num("1.0").end().end();
    w.end();
    let path = dir.join("BENCH_report.json");
    std::fs::write(&path, w.finish()).expect("write seeded report");

    let out = path.to_string_lossy().into_owned();
    run(
        env!("CARGO_BIN_EXE_datapath"),
        &dir,
        &["--quick", "--out", &out],
    );
    let merged = parse_file(&path);
    let merged_members = members(&merged);
    for (k, v) in members(&report) {
        assert_eq!(merged.get(k), Some(v), "report value {k} changed");
    }
    let sections: Vec<_> = merged_members
        .iter()
        .filter(|(k, _)| k == "datapath_ns")
        .collect();
    assert_eq!(sections.len(), 1, "datapath_ns must appear once");
    let stamps = merged_members.iter().filter(|(k, _)| k == "revision");
    assert_eq!(stamps.count(), 1, "revision must appear once");
    let dp = &sections[0].1;
    assert!(dp.get("retired_bench").is_none(), "stale section survived");
    let crc = dp.get("crc32_60k").expect("crc32_60k timed");
    assert!(crc.get("min").and_then(Json::as_f64).is_some());
    assert_eq!(merged_members.len(), members(&report).len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}
