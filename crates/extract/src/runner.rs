//! The one parallel runner behind every corpus-scale loop: batch
//! extraction, the YAML corpus fold, content hashing and the query
//! kernels.
//!
//! Workers claim item indices from a shared [`AtomicUsize`] cursor, so a
//! worker that drew cheap items (a reject that dies in the XML parser, a
//! short file) simply claims more, and fold each item into a private
//! per-worker state. States come back in worker order, never in finish
//! order. Which worker claimed which item depends on timing, so callers
//! key their merges on item indices; that is what keeps every consumer
//! byte-identical at any thread count.

use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Folds items `0..items` into per-worker states on up to `threads`
/// scoped workers and returns the states in worker order.
///
/// Runs inline on the calling thread (one state) when `threads <= 1` or
/// there are fewer than two items. A worker stops at its first error;
/// the first error in worker order is returned. A panicking step is
/// re-raised on the caller with its original payload.
pub fn try_fold_claimed<S, E, F>(items: usize, threads: usize, step: F) -> Result<Vec<S>, E>
where
    S: Default + Send,
    E: Send,
    F: Fn(&mut S, usize) -> Result<(), E> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let (cursor, step) = (&cursor, &step);
    let claim = move || -> Result<S, E> {
        let mut state = S::default();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                return Ok(state);
            }
            step(&mut state, index)?;
        }
    };
    if threads <= 1 || items < 2 {
        return claim().map(|state| vec![state]);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(items))
            .map(|_| scope.spawn(claim))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    })
}

/// [`try_fold_claimed`] for steps that cannot fail.
pub fn fold_claimed<S, F>(items: usize, threads: usize, step: F) -> Vec<S>
where
    S: Default + Send,
    F: Fn(&mut S, usize) + Sync,
{
    let states = try_fold_claimed(items, threads, |state: &mut S, index| {
        step(state, index);
        Ok::<(), Infallible>(())
    });
    match states {
        Ok(states) => states,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};

    const THREADS: [usize; 3] = [1, 2, 8];

    /// Every index in `0..items`, claimed by the returned states.
    fn claimed(states: &[Vec<usize>]) -> Vec<usize> {
        let mut all: Vec<usize> = states.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        for threads in THREADS {
            for items in [0, 1, 2, 7, 100] {
                let states: Vec<Vec<usize>> =
                    fold_claimed(items, threads, |state: &mut Vec<usize>, index| {
                        state.push(index);
                    });
                assert_eq!(
                    claimed(&states),
                    (0..items).collect::<Vec<_>>(),
                    "{threads} threads, {items} items"
                );
                // Each worker claims in increasing index order.
                for state in &states {
                    assert!(state.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn worker_count_is_capped_by_threads_and_items() {
        let states = |items, threads| fold_claimed(items, threads, |_: &mut (), _| {}).len();
        assert_eq!(states(0, 8), 1, "no items run inline");
        assert_eq!(states(1, 8), 1, "one item runs inline");
        assert_eq!(states(100, 1), 1);
        assert_eq!(states(100, 0), 1);
        assert_eq!(states(3, 8), 3, "more threads than items");
        assert_eq!(states(100, 2), 2);
        assert_eq!(states(100, 8), 8);
    }

    /// The spawn rank of the current thread: thread ids are handed out
    /// by a global counter when a thread is spawned, so they increase
    /// with spawn order.
    fn spawn_rank() -> u64 {
        let id = format!("{:?}", std::thread::current().id());
        id.trim_start_matches("ThreadId(")
            .trim_end_matches(')')
            .parse()
            .expect("ThreadId(N)")
    }

    #[test]
    fn states_come_back_in_worker_order() {
        // One item per worker (a barrier holds every worker on its first
        // item until all items are claimed), and workers finish in
        // reverse spawn order: each waits for every later-spawned worker
        // to finish first. States must still come back in spawn order.
        for threads in [2, 8] {
            let barrier = Barrier::new(threads);
            let ranks = Mutex::new(Vec::new());
            let finished = Mutex::new(Vec::new());
            let states: Vec<Option<u64>> =
                fold_claimed(threads, threads, |state: &mut Option<u64>, _| {
                    let rank = spawn_rank();
                    ranks.lock().unwrap().push(rank);
                    barrier.wait();
                    let later = ranks.lock().unwrap().iter().filter(|&&r| r > rank).count();
                    while finished
                        .lock()
                        .unwrap()
                        .iter()
                        .filter(|&&r| r > rank)
                        .count()
                        < later
                    {
                        std::thread::yield_now();
                    }
                    finished.lock().unwrap().push(rank);
                    *state = Some(rank);
                });
            let states: Vec<u64> = states.into_iter().flatten().collect();
            assert_eq!(states.len(), threads);
            assert!(states.windows(2).all(|w| w[0] < w[1]), "{states:?}");
            let mut finish_order = finished.into_inner().unwrap();
            finish_order.reverse();
            assert_eq!(finish_order, states, "workers finished in reverse");
        }
    }

    #[test]
    fn first_error_in_worker_order_is_returned() {
        for threads in THREADS {
            // Every item fails, each worker on the first item it
            // claims. One item per worker (a barrier holds them until all
            // are claimed) and each fails with its spawn rank: the error
            // returned is the lowest-ranked worker's.
            let barrier = Barrier::new(threads);
            let ranks = Mutex::new(Vec::new());
            let outcome: Result<Vec<()>, u64> =
                try_fold_claimed(threads, threads, |_: &mut (), _| {
                    let rank = spawn_rank();
                    ranks.lock().unwrap().push(rank);
                    barrier.wait();
                    Err(rank)
                });
            let first = ranks.into_inner().unwrap().into_iter().min();
            assert_eq!(outcome.err(), first, "{threads} threads");
            // Only one item fails: that error comes back whoever claims it.
            let outcome: Result<Vec<Vec<usize>>, String> =
                try_fold_claimed(50, threads, |state: &mut Vec<usize>, index| {
                    if index == 37 {
                        return Err(format!("item {index}"));
                    }
                    state.push(index);
                    Ok(())
                });
            assert_eq!(outcome.unwrap_err(), "item 37", "{threads} threads");
        }
        // No items, no error.
        let outcome: Result<Vec<()>, ()> = try_fold_claimed(0, 8, |_: &mut (), _| Err(()));
        assert_eq!(outcome, Ok(vec![()]));
    }

    #[test]
    fn a_panicking_step_reraises_its_payload() {
        for threads in THREADS {
            for items in [1, 3, 40] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fold_claimed(items, threads, |_: &mut (), index| {
                        if index + 1 == items {
                            std::panic::panic_any(format!("step {index} failed"));
                        }
                    })
                }));
                let payload = caught.expect_err("the step panicked");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("step {} failed", items - 1).as_str()),
                    "{threads} threads, {items} items"
                );
            }
        }
    }
}
