//! Deterministic parallel fan-out of independent jobs.
//!
//! Sizeless's offline phase is one big fan-out: the measurement campaign
//! behind the training dataset, the case-study measurements, the
//! hyperparameter grid, cross-validation folds and forward selection.
//! Policy and knob sweeps likewise run dozens of independent fleet
//! simulations. Every job derives all of its randomness from its own
//! per-job seed (`(seed, job)`, or `(seed, function, memory)` for a
//! measurement) and writes only its own indexed result slot, so the
//! collected output is **bit-identical at any thread count** — threads
//! change wall-clock time, never results.
//!
//! [`parallel_map`] is the fan-out, and the one place in the workspace that
//! starts threads. Reductions over the results (fold pooling, seed
//! averaging, table building) stay with the caller and run serially over
//! the index-ordered output, which keeps every floating-point fold in the
//! exact order of the serial loop it replaces.
//!
//! The thread count is always an explicit `threads` argument (the
//! `--threads` flag of the experiment binaries).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(i, &mut state)` for every `i` in `0..n` across `threads`
/// scoped workers and returns the results in index order.
///
/// `worker` builds each worker's state once (a training `Scratch`, or `()`
/// for stateless jobs), and the worker reuses it for every job it claims.
/// Jobs are claimed from a shared counter; because every job writes only
/// its own slot, the output does not depend on which worker ran what, as
/// long as `job(i, _)` depends on `i` alone and not on what the state
/// holds from earlier jobs.
///
/// With `threads == 1` or `n <= 1` no thread is started: the jobs run
/// inline on the caller's stack, which is the exact serial path the
/// parallel output is bit-compared against in the determinism suite.
///
/// # Panics
///
/// Panics if `threads` is zero, and re-panics if a job panics.
pub fn parallel_map<T, W, B, F>(threads: usize, n: usize, worker: B, job: F) -> Vec<T>
where
    T: Send,
    B: Fn() -> W + Sync,
    F: Fn(usize, &mut W) -> T + Sync,
{
    assert!(threads > 0, "at least one worker thread required");
    if threads == 1 || n <= 1 {
        let mut state = worker();
        return (0..n).map(|i| job(i, &mut state)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let mut state = worker();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = job(i, &mut state);
                    // lint: allow(panic002) reason="the lock is held only for a plain assignment, which cannot panic, so it is never poisoned"
                    *slots[i].lock().expect("lock is never poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                // lint: allow(panic002) reason="the scope joins all workers first; a worker panic propagates from the scope itself"
                .expect("no worker panicked")
                // lint: allow(panic002) reason="the shared counter hands every index to exactly one worker, so every slot is filled"
                .expect("every job completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 4, 9] {
            let out = parallel_map(threads, 23, || (), |i, _| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(parallel_map(16, 2, || (), |i, _| i), vec![0, 1]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(parallel_map(4, 0, || (), |i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = parallel_map(0, 3, || (), |i, _| i);
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                parallel_map(
                    threads,
                    8,
                    || (),
                    |i, _| {
                        assert_ne!(i, 5, "job 5 fails");
                        i
                    },
                )
            });
            assert!(
                result.is_err(),
                "a job panic must reach the caller at {threads} threads"
            );
        }
    }
}
