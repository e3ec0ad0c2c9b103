//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation is regenerated by sweeping hundreds of
//! independent (semantics × size × rx-scheme × machine) cells. Each
//! cell builds its own two-host `World`, so cells are embarrassingly
//! parallel — but each individual `World` must stay single-threaded to
//! keep the discrete-event simulation deterministic. This crate
//! provides the layer *above* the `World` boundary: a scoped-thread
//! worker pool (`std::thread::scope`, no external dependencies) that
//! fans cells out to worker threads and collects results **by cell
//! index**, so the output is byte-identical to the serial path no
//! matter how many threads run or how the OS schedules them.
//!
//! Thread count resolution, in priority order:
//! 1. a programmatic override via [`set_threads`] (used by `--threads`
//!    and by the determinism tests),
//! 2. `std::thread::available_parallelism()`.
//!
//! `threads == 1` takes a strict serial fast path (no threads spawned),
//! which is also the fallback when a sweep is already running inside a
//! worker thread: nested sweeps run inline on the worker instead of
//! oversubscribing the pool, keeping one level of fan-out.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while the current thread is a sweep worker; nested sweeps
    /// then run inline instead of spawning a second level of threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker-thread count for all subsequent sweeps.
///
/// `0` clears the override (falling back to the machine's available
/// parallelism). `1` forces the serial path.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Runs `f` with the worker-thread count overridden to `n`, restoring
/// the previous override afterward (even if `f` panics). The
/// determinism tests use this to replay one sweep at 1/2/4 threads
/// and byte-compare the results.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(n, Ordering::SeqCst));
    f()
}

/// The worker-thread count the next sweep will use.
pub fn configured_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(0), f(1), …, f(n - 1)` on the worker pool and returns the
/// results in index order.
///
/// `f` must be a pure function of its index (every experiment cell
/// builds its own `World`), which makes the result independent of
/// scheduling: the output is byte-identical to the serial
/// `(0..n).map(f)` path for any thread count.
///
/// A panic in any cell propagates to the caller with its original
/// payload. Each cell's outcome is recorded individually (no cell is
/// silently dropped), remaining workers stop claiming new cells, and
/// when a lone cell panics the propagated payload is that cell's —
/// deterministically, whatever the thread count or schedule.
pub fn run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_threads(configured_threads(), n, f)
}

/// [`run`] with an explicit thread count (used by tests and `--threads`).
pub fn run_threads<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    if threads <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return (0..n).map(f).collect();
    }

    // Work-stealing by atomic index; each result lands in its own slot
    // so collection order is the cell order, not completion order. A
    // panicking cell is caught into its slot (the worker survives to
    // record it) and raises the abort flag so other workers stop
    // claiming new cells; claimed cells always finish, so results form
    // a gapless index prefix.
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    type CellResult<R> = Result<R, Box<dyn std::any::Any + Send>>;
    let slots: Vec<Mutex<Option<CellResult<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        let (f, next, abort, slots) = (&f, &next, &abort, &slots);
        for _ in 0..threads.min(n) {
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                    if r.is_err() {
                        abort.store(true, Ordering::SeqCst);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });

    // Cells are claimed in index order and every claimed cell writes
    // its slot, so walking the slots in order meets the lowest-index
    // panic (if any) before any unclaimed (None) slot.
    let mut out = Vec::with_capacity(n);
    for m in slots {
        match m.into_inner().expect("result slot poisoned") {
            Some(Ok(r)) => out.push(r),
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("unclaimed cell after a clean sweep"),
        }
    }
    out
}

/// Maps `f` over `items` on the worker pool, preserving item order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = run_threads(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<String> = (0..40).map(|i| format!("cell-{i}")).collect();
        let got = map(&items, |s| format!("{s}!"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("cell-{i}!"));
        }
    }

    #[test]
    fn override_takes_priority() {
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        set_threads(0);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn nested_sweeps_run_inline_without_deadlock() {
        let got = run_threads(4, 8, |i| {
            let inner = run_threads(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(run_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_threads(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn panics_propagate_to_caller_with_payload_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let r = std::panic::catch_unwind(|| {
                run_threads(threads, 8, |i| {
                    if i == 5 {
                        panic!("cell 5 exploded");
                    }
                    i
                })
            });
            let payload = r.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .expect("panic payload is a string");
            assert_eq!(msg, "cell 5 exploded", "threads = {threads}");
        }
    }

    #[test]
    fn error_results_are_values_and_no_cell_is_dropped() {
        // Fallible cells are ordinary values: every cell's outcome
        // comes back, errors included, at every thread count.
        for threads in [1, 2, 4] {
            let got = run_threads(threads, 9, |i| {
                if i % 3 == 0 {
                    Err(format!("cell {i} failed"))
                } else {
                    Ok(i * 2)
                }
            });
            assert_eq!(got.len(), 9, "threads = {threads}");
            for (i, r) in got.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i * 2),
                    Err(e) => {
                        assert_eq!(i % 3, 0);
                        assert_eq!(e, &format!("cell {i} failed"));
                    }
                }
            }
        }
    }

    #[test]
    fn sweeps_work_after_a_panicked_sweep() {
        for threads in [2, 4] {
            let r = std::panic::catch_unwind(|| {
                run_threads(threads, 16, |i| {
                    if i == 3 {
                        panic!("boom");
                    }
                    i
                })
            });
            assert!(r.is_err());
            // The engine holds no poisoned global state: the next
            // sweep on the same thread count runs to completion.
            let got = run_threads(threads, 16, |i| i + 1);
            let want: Vec<usize> = (1..=16).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}
