//! Minimal wall-clock timing harness (std-only) behind the `datapath`
//! binary.
//!
//! It times the simulator's host primitives (distinct from the
//! *simulated* latencies, which are the paper's subject).
//! `std::time::Instant` is plenty for the microsecond-to-millisecond
//! runs here; the harness does one warm-up pass and then a fixed number
//! of timed iterations so results are comparable across runs. The
//! `report` binary times whole exhibits on its own, once each.

use std::time::Instant;

/// Wall-clock statistics for one timed closure.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Label for the timed unit.
    pub name: String,
    /// Timed iterations (after one warm-up pass).
    pub iters: u32,
    /// Mean per-iteration wall-clock time, milliseconds.
    pub mean_ms: f64,
    /// Fastest iteration, milliseconds.
    pub min_ms: f64,
    /// Slowest iteration, milliseconds.
    pub max_ms: f64,
}

impl Timing {
    /// One-line rendering `datapath` prints per benchmark.
    pub fn line(&self) -> String {
        format!(
            "{:<44} {:>9.3} ms/iter  (min {:.3}, max {:.3}, {} iters)",
            self.name, self.mean_ms, self.min_ms, self.max_ms, self.iters
        )
    }
}

/// Peak resident memory of this process so far, in MiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `f` once to warm up, then `iters` timed iterations.
pub fn time_named<F: FnMut()>(name: &str, iters: u32, mut f: F) -> Timing {
    f(); // warm-up: touch caches, fault in lazily-built state
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut total = 0.0f64;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        min = min.min(ms);
        max = max.max(ms);
        total += ms;
    }
    Timing {
        name: name.to_string(),
        iters,
        mean_ms: total / f64::from(iters.max(1)),
        min_ms: min,
        max_ms: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_sane_numbers() {
        let t = time_named("spin", 4, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(t.iters, 4);
        assert!(t.min_ms <= t.mean_ms && t.mean_ms <= t.max_ms);
        assert!(t.line().contains("spin"));
    }
}
