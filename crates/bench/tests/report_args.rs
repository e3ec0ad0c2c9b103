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
