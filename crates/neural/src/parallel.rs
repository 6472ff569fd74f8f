//! Deterministic parallel fan-out for training workloads.
//!
//! Grid search, cross-validation, and forward selection are embarrassingly
//! parallel: every unit of work derives its own RNG stream from
//! `(seed, job)` and writes to its own indexed slot, so the result is
//! **bit-identical regardless of thread count or scheduling**. The
//! determinism suite pins this by running the same search with 1 and 4
//! threads and comparing outputs bit-for-bit.
//!
//! The thread count is always an explicit `threads` argument (the
//! `--threads` flag of the experiment binaries).

use crate::scratch::Scratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `threads` scoped workers and returns the results
/// in index order.
///
/// Each worker owns a [`Scratch`] workspace reused across all jobs it
/// claims, so fan-out adds no per-job allocation cost. Jobs are claimed
/// from a shared atomic counter (work stealing); because every job writes
/// only its own slot, the output is independent of which worker ran what.
///
/// With `threads == 1` no thread is spawned at all — the jobs run inline on
/// the caller's stack, which is the exact serial path the parallel result
/// is bit-compared against in the determinism tests.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn parallel_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Scratch) -> T + Sync,
{
    assert!(threads > 0, "at least one worker thread required");
    if threads == 1 || n <= 1 {
        let mut scratch = Scratch::new();
        return (0..n).map(|i| f(i, &mut scratch)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let mut scratch = Scratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, &mut scratch);
                    // lint: allow(panic002) reason="the lock is held only for a plain assignment, which cannot panic, so it is never poisoned"
                    *slots[i].lock().expect("worker never panics holding the lock") = Some(out);
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
            let out = parallel_map(threads, 23, |i, _| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(parallel_map(16, 2, |i, _| i), vec![0, 1]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(parallel_map(4, 0, |i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = parallel_map(0, 3, |i, _| i);
    }
}
