//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate implements
//! exactly what the workspace uses — [`current_num_threads`] and the
//! scoped-worker helper [`run_workers`] — directly on OS threads via
//! [`std::thread::scope`]. Unlike real rayon there is no work-stealing
//! pool: every worker is one OS thread. Callers therefore start one loop
//! per *worker*, not one task per item, which is how its one caller,
//! the batch executor in `les3-core`, uses it.
//!
//! # The scoped-worker idiom
//!
//! Because a worker costs a thread, fan-out code must not spawn per
//! item. The shape that works is: start
//! exactly `workers` loops, and have each loop *claim* items from a
//! shared atomic cursor until the work runs dry. [`run_workers`]
//! packages that shape — it runs `f(0) .. f(workers-1)` concurrently
//! (worker 0 on the calling thread, so `workers == 1` costs nothing)
//! and returns when all of them have. Item claiming stays with the
//! caller, e.g.:
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! let next = AtomicUsize::new(0);
//! let done = AtomicUsize::new(0);
//! rayon::run_workers(4, |_w| loop {
//!     let item = next.fetch_add(1, Ordering::Relaxed);
//!     if item >= 100 {
//!         break;
//!     }
//!     done.fetch_add(1, Ordering::Relaxed); // process `item`
//! });
//! assert_eq!(done.load(Ordering::Relaxed), 100);
//! ```
//!
//! If the real rayon is ever swapped back in (see the workspace
//! manifest), keep this helper as a thin adapter — it has no
//! counterpart in rayon's API but is trivially expressible with
//! `rayon::scope` + `spawn`.

/// Number of worker threads a parallel section should target: the
/// cores available to the process. There is no environment override —
/// callers that need a specific width pass it (`*_batch_on(workers, ..)`).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(w)` for `w ∈ 0..workers` concurrently — one OS thread per
/// worker, with worker 0 on the calling thread — and returns when every
/// worker has. `workers <= 1` runs `f(0)` inline with no thread spawned.
///
/// This is the scoped-worker idiom (see the module docs): callers pass a
/// worker *loop* that claims items from a shared cursor, never a
/// per-item closure.
pub fn run_workers<F>(workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for w in 1..workers {
            let f = &f;
            s.spawn(move || f(w));
        }
        f(0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_workers_covers_all_items_at_any_width() {
        for workers in [1usize, 2, 3, 8] {
            let next = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            run_workers(workers, |_w| loop {
                let item = next.fetch_add(1, Ordering::Relaxed);
                if item >= 50 {
                    break;
                }
                sum.fetch_add(item, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..50).sum::<usize>());
        }
    }

    #[test]
    fn run_workers_single_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        run_workers(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn num_threads_positive() {
        assert!(current_num_threads() >= 1);
    }
}
