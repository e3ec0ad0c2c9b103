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
