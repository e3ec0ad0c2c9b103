//! The differential kernel: everything the two-host, switch and CQ
//! harnesses share.
//!
//! A harness is a scenario type implementing [`Differential`]: its op
//! alphabet, its `.ops` header and op lines, and its oracle
//! [`Differential::run`]. The kernel supplies the rest once — the
//! `.ops` parse loop (`parse_ops`), the greedy shrinker
//! ([`shrink`]), the counterexample emitter
//! ([`emit_counterexample`]), the sweep entry point ([`check`]) with
//! its [`FailureReport`], corpus replay ([`replay_corpus`]), and the
//! seed knobs ([`seeds`]).
//!
//! Knobs, all read by `knob` (the crate's one environment read):
//! `GENIE_MODEL_SEED=<seed>` replays one seed, `GENIE_MODEL_SEEDS=<n>`
//! overrides a sweep's seed count, and `GENIE_MODEL_CE_DIR=<dir>`
//! moves the counterexamples (default `target/model-counterexamples`).

use std::fmt::{self, Debug};
use std::path::{Path, PathBuf};

use genie::{ChromeTrace, Semantics, World};
use genie_net::InputBuffering;

/// Every input buffering architecture, in sweep order.
pub const ARCHITECTURES: [InputBuffering; 3] = [
    InputBuffering::EarlyDemux,
    InputBuffering::Pooled,
    InputBuffering::Outboard,
];

/// A model-differential harness: one scenario type, its op alphabet,
/// its `.ops` codec and its oracle.
pub trait Differential: Clone + PartialEq + Debug {
    /// One step of a scenario.
    type Op: Copy + Debug;
    /// Deliberate model defects for the teeth tests; `Default` is the
    /// faithful model.
    type Bug: Copy + Default;
    /// Deterministic summary of a passing run.
    type Stats;
    /// Harness name in reports, crash dumps and counterexample headers.
    const KIND: &'static str;

    /// The op list.
    fn ops(&self) -> &[Self::Op];
    /// The op list, for the shrinker.
    fn ops_mut(&mut self) -> &mut Vec<Self::Op>;
    /// The `.ops` lines before the first op, newline-terminated.
    fn header(&self) -> String;
    /// One op's `.ops` line, without the newline.
    fn op_line(op: &Self::Op) -> String;
    /// Parses the `.ops` text format (built on `parse_ops`). Errors
    /// carry the offending line.
    fn parse(text: &str) -> Result<Self, String>;
    /// Runs the scenario differentially: `Ok` carries the run summary,
    /// `Err` the first divergence. A pure function of its arguments;
    /// `traced` only adds the Chrome trace to the divergence.
    fn run(&self, bug: Self::Bug, traced: bool) -> Result<Self::Stats, Divergence>;
    /// Counterexample file stem, unique per scenario coordinates.
    fn stem(&self) -> String;
    /// The shell line that replays this scenario's sweep cell.
    fn reproduce(&self) -> String;

    /// Serializes to the `.ops` text format: header lines, then one
    /// line per op. `#` starts a comment.
    fn to_ops_string(&self) -> String {
        let mut s = self.header();
        for op in self.ops() {
            s.push_str(&Self::op_line(op));
            s.push('\n');
        }
        s
    }
}

/// Model and real world disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the op after which the states differ; `ops.len()` for
    /// a divergence found after the last op.
    pub step: usize,
    /// The op, rendered (`"end"` past the last op).
    pub op: String,
    /// What disagreed.
    pub detail: String,
    /// Flight-recorder crash dump of the real run (last trace events
    /// when traced, metrics snapshot, switch series).
    pub dump_json: String,
    /// Chrome trace of the real run, with a `model.divergence` instant
    /// at the disagreeing step; traced runs only.
    pub trace_json: Option<String>,
}

impl Divergence {
    /// Captures the divergence of `sc` at `step` from its real world.
    pub(crate) fn capture<D: Differential>(
        w: &mut World,
        sc: &D,
        traced: bool,
        step: usize,
        detail: String,
    ) -> Divergence {
        let op = sc
            .ops()
            .get(step)
            .map_or_else(|| "end".into(), |op| format!("{op:?}"));
        w.note_model_divergence(step);
        // Snapshot the dump before the Chrome export drains the rings.
        let reason = format!("{} divergence at step {step}: {detail}", D::KIND);
        let dump_json = w.crash_dump_json(&reason, w.now());
        let trace_json = traced.then(|| {
            let mut ct = ChromeTrace::new();
            ct.add_process(format!("{}-diff {}", D::KIND, sc.stem()), w.take_trace());
            ct.to_json()
        });
        Divergence {
            step,
            op,
            detail,
            dump_json,
            trace_json,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} ({}): {}", self.step, self.op, self.detail)
    }
}

/// A value in an `.ops` header or op field.
pub(crate) trait Field: Sized {
    /// Parses the text after `key=`.
    fn parse_field(s: &str) -> Option<Self>;
}

macro_rules! from_str_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn parse_field(s: &str) -> Option<Self> {
                s.parse().ok()
            }
        }
    )*};
}
from_str_fields!(u8, u16, u32, u64, usize);

/// Position of `x` in `all`.
pub(crate) fn index_of<T: PartialEq>(all: &[T], x: T) -> u64 {
    all.iter().position(|a| *a == x).expect("listed value") as u64
}

fn by_name<T: Copy + Debug>(all: &[T], s: &str) -> Option<T> {
    all.iter().copied().find(|x| format!("{x:?}") == s)
}

impl Field for Semantics {
    fn parse_field(s: &str) -> Option<Self> {
        by_name(&Semantics::ALL, s)
    }
}

impl Field for InputBuffering {
    fn parse_field(s: &str) -> Option<Self> {
        by_name(&ARCHITECTURES, s)
    }
}

/// `-` is `None`.
impl<T: Field> Field for Option<T> {
    fn parse_field(s: &str) -> Option<Self> {
        if s == "-" {
            Some(None)
        } else {
            T::parse_field(s).map(Some)
        }
    }
}

/// Comma-separated.
impl<T: Field> Field for Vec<T> {
    fn parse_field(s: &str) -> Option<Self> {
        s.split(',').map(T::parse_field).collect()
    }
}

/// The `k=v` words after an op line's verb, read in order.
pub(crate) struct Args<'a>(std::str::SplitWhitespace<'a>);

impl Args<'_> {
    /// The next word's value, if the word is `key=value`.
    pub(crate) fn kv<T: Field>(&mut self, key: &str) -> Option<T> {
        T::parse_field(self.0.next()?.strip_prefix(key)?.strip_prefix('=')?)
    }
}

/// The `key=value` header lines of one `.ops` text.
pub(crate) struct Header<'a>(Vec<(&'a str, &'a str, &'a str)>);

impl Header<'_> {
    /// The value of the last `key=` line.
    pub(crate) fn get<T: Field>(&self, key: &str) -> Result<T, String> {
        let &(_, v, raw) = self
            .0
            .iter()
            .rev()
            .find(|h| h.0 == key)
            .ok_or_else(|| format!("missing {key}= header"))?;
        T::parse_field(v).ok_or_else(|| format!("bad line: {raw}"))
    }
}

/// The one `.ops` parse loop: skips blank and `#` lines, collects
/// `key=value` lines whose key is in `keys` into the [`Header`], and
/// hands every other line to `line` as `(verb, args)`; a `None` from
/// `line` rejects the line.
pub(crate) fn parse_ops<'a>(
    text: &'a str,
    keys: &[&str],
    mut line: impl FnMut(&str, &mut Args<'a>) -> Option<()>,
) -> Result<Header<'a>, String> {
    let mut header = Vec::new();
    for raw in text.lines() {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match trimmed.split_once('=') {
            Some((k, v)) if keys.contains(&k) => header.push((k, v, raw)),
            _ => {
                let mut words = trimmed.split_whitespace();
                let verb = words.next().unwrap_or_default();
                line(verb, &mut Args(words)).ok_or_else(|| format!("bad line: {raw}"))?;
            }
        }
    }
    Ok(Header(header))
}

/// Drops every op after the diverging one (a divergence past the last
/// op keeps them all).
fn truncate_after<D: Differential>(sc: &mut D, div: &Divergence) {
    let ops = sc.ops_mut();
    ops.truncate(div.step.min(ops.len().saturating_sub(1)) + 1);
}

/// Shrinks a diverging scenario to a locally-minimal op list: truncate
/// after the diverging step, then greedily delete single ops to a
/// fixpoint, re-running the differential after each candidate
/// deletion. Deterministic; returns the minimal scenario and its
/// divergence.
pub fn shrink<D: Differential>(sc: &D, bug: D::Bug) -> (D, Divergence) {
    let mut cur = sc.clone();
    let Err(mut div) = cur.run(bug, false) else {
        panic!("shrink called on a passing scenario");
    };
    truncate_after(&mut cur, &div);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cur.ops().len() {
            let mut cand = cur.clone();
            cand.ops_mut().remove(i);
            match cand.run(bug, false) {
                Err(d) => {
                    truncate_after(&mut cand, &d);
                    cur = cand;
                    div = d;
                    progressed = true;
                }
                Ok(_) => i += 1,
            }
        }
        if !progressed {
            return (cur, div);
        }
    }
}

/// The harness's environment knobs: the one place `genie-model` reads
/// the environment.
fn knob(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The seeds a sweep runs: `GENIE_MODEL_SEED=<seed>` replays one,
/// `GENIE_MODEL_SEEDS=<n>` runs `0..n`, otherwise `0..default`.
pub fn seeds(default: usize) -> Vec<u64> {
    if let Some(s) = knob("GENIE_MODEL_SEED") {
        return vec![s.trim().parse().expect("GENIE_MODEL_SEED is a u64")];
    }
    let n = knob("GENIE_MODEL_SEEDS")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default as u64);
    (0..n).collect()
}

/// Re-runs the minimal scenario traced and writes it as a replayable
/// `{stem}.ops`, next to its flight-recorder crash dump
/// (`{stem}.dump.json`) and Chrome trace (`{stem}.trace.json`).
/// Directory: `GENIE_MODEL_CE_DIR`, default
/// `target/model-counterexamples`. Returns the `.ops` path.
pub fn emit_counterexample<D: Differential>(
    minimal: &D,
    bug: D::Bug,
    div: &Divergence,
) -> Option<PathBuf> {
    let Err(traced) = minimal.run(bug, true) else {
        panic!("{}: the traced re-run passed", minimal.stem());
    };
    // Tracing only observes, so it must not move the divergence.
    assert_eq!(
        (traced.step, &traced.detail),
        (div.step, &div.detail),
        "{}: tracing changed the divergence",
        minimal.stem()
    );
    let dir = PathBuf::from(
        knob("GENIE_MODEL_CE_DIR").unwrap_or_else(|| "target/model-counterexamples".into()),
    );
    std::fs::create_dir_all(&dir).ok()?;
    let stem = minimal.stem();
    let path = dir.join(format!("{stem}.ops"));
    let body = format!(
        "# {}-differential counterexample\n# {div}\n# reproduce: {}\n{}",
        D::KIND,
        minimal.reproduce(),
        minimal.to_ops_string()
    );
    std::fs::write(&path, body).ok()?;
    let _ = std::fs::write(dir.join(format!("{stem}.dump.json")), &traced.dump_json);
    if let Some(json) = &traced.trace_json {
        let _ = std::fs::write(dir.join(format!("{stem}.trace.json")), json);
    }
    Some(path)
}

/// A fully-processed failure: the original and shrunk scenarios, the
/// divergence, and where the replayable counterexample landed.
#[derive(Clone, Debug)]
pub struct FailureReport<D> {
    /// The generated scenario that first diverged.
    pub scenario: D,
    /// The shrunk, locally-minimal scenario.
    pub minimal: D,
    /// The minimal scenario's divergence.
    pub divergence: Divergence,
    /// Counterexample file, if it could be written.
    pub path: Option<PathBuf>,
}

impl<D: Differential> fmt::Display for FailureReport<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} divergence: {}", D::KIND, self.scenario.stem())?;
        writeln!(f, "  {}", self.divergence)?;
        writeln!(
            f,
            "  minimal counterexample: {} op(s){}",
            self.minimal.ops().len(),
            match &self.path {
                Some(p) => format!(", written to {}", p.display()),
                None => String::new(),
            }
        )?;
        write!(f, "  reproduce: {}", self.scenario.reproduce())
    }
}

/// The one-call sweep entry point: run the faithful model, and on
/// divergence shrink and emit. The error is ready to print.
pub fn check<D: Differential>(sc: D) -> Result<D::Stats, Box<FailureReport<D>>> {
    let bug = D::Bug::default();
    if let Ok(stats) = sc.run(bug, false) {
        return Ok(stats);
    }
    let (minimal, divergence) = shrink(&sc, bug);
    let path = emit_counterexample(&minimal, bug, &divergence);
    Err(Box::new(FailureReport {
        scenario: sc,
        minimal,
        divergence,
        path,
    }))
}

/// The `.ops` files under `dir`, sorted.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ops"))
        .collect();
    paths.sort();
    paths
}

/// Replays every committed `.ops` file under `dir` verbatim against
/// the faithful model, panicking with the file name on a parse error
/// or divergence. Returns how many files replayed.
pub fn replay_corpus<D: Differential>(dir: &Path) -> usize {
    let paths = corpus_files(dir);
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        let sc =
            D::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        if let Err(d) = sc.run(D::Bug::default(), false) {
            panic!("{} diverged at {d}", path.display());
        }
    }
    paths.len()
}
