//! A minimal scoped-thread worker pool for embarrassingly parallel maps.
//!
//! [`parallel_map`] fans a slice of inputs across `min(workers, items)`
//! scoped threads that pull indices from a shared atomic counter
//! (work-stealing: fast cells free their worker for the next unclaimed
//! index instead of idling behind a static partition). Results are
//! returned **in submission order** regardless of completion order, so
//! output is byte-identical to the sequential map as long as the worker
//! function is a pure function of `(index, item)`.
//!
//! Combined with [`rng::split_seed`](crate::rng::split_seed) — which
//! fixes each cell's seed from its index before anything runs — this is
//! what lets the experiment sweeps produce the same report at any
//! parallelism level.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested parallelism level against the machine and the
/// number of items: `0` means "all available cores", and the result is
/// clamped to `[1, items]` (no point spawning idle workers).
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let want = if requested == 0 { hw } else { requested };
    want.min(items).max(1)
}

/// Map `f` over `items` using up to `workers` threads (`0` = all cores),
/// returning results in submission order.
///
/// `f` is called as `f(index, &items[index])`. With `workers <= 1` (or a
/// single item) the map runs inline on the calling thread with no pool
/// overhead. If any worker panics, the panic is propagated to the caller
/// with its original payload.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_workers(workers, n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => indexed.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Workers hand back disjoint index sets; restore submission order.
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn matches_sequential_at_any_parallelism() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: &u64| (i as u64) * 1_000 + x * 3;
        let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for workers in [0, 1, 2, 3, 8, 64, 200] {
            assert_eq!(
                parallel_map(&items, workers, f),
                sequential,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(parallel_map(&empty, 4, |_, x| *x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[5u32], 4, |i, x| (i, *x)), vec![(0, 5)]);
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        let items: Vec<u32> = (0..64).collect();
        let seen = Mutex::new(HashSet::new());
        parallel_map(&items, 4, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Give other workers a chance to claim indices.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let out = parallel_map(&items, 8, |i, x| {
            assert_eq!(i, *x);
            i
        });
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(3, 0), 1);
        assert!(effective_workers(0, 1_000) >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map(&items, 4, |i, _| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}
