//! A small work-stealing thread pool for sweep evaluation.
//!
//! Each worker owns a deque of item indices, pops work from its own
//! front, and steals from the *back* of the busiest victim when it runs
//! dry — the classic Chase–Lev discipline (here with mutexed deques:
//! the work items are coarse enough that lock traffic is noise). Every
//! index is dispatched exactly once, results are written back by index,
//! and the output order is therefore the input order no matter how the
//! steals interleave.
//!
//! Workers get private per-worker state (built by a caller-supplied
//! factory) so evaluation can memoize aggressively without any shared
//! locks on the hot path — the sweep engine passes
//! `ngpc::EmulationContext::new` here.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Map `f` over `items` on `threads` work-stealing workers, each with
/// its own state from `make_state`. Returns one result per item, in
/// item order.
pub fn map_stateful<T, R, S, FS, F>(items: &[T], threads: usize, make_state: FS, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());

    // Seed each worker's deque with a contiguous slab of indices, so
    // initial work is cache-friendly and steals only happen at the tail
    // of the sweep.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            let lo = items.len() * w / threads;
            let hi = items.len() * (w + 1) / threads;
            Mutex::new((lo..hi).collect())
        })
        .collect();

    let (sender, receiver) = mpsc::channel::<(usize, R)>();
    let steals = crate::obs_counters::pool_steals();
    std::thread::scope(|scope| {
        for me in 0..threads {
            let sender = sender.clone();
            let queues = &queues;
            let make_state = &make_state;
            let f = &f;
            scope.spawn(move || {
                let mut state = make_state();
                loop {
                    // Own work first (front: preserves the slab order)…
                    let mut next = queues[me].lock().unwrap().pop_front();
                    // …then steal from the back of the deepest other
                    // queue, rescanning on a lost race (a steal may
                    // find its victim drained between the length scan
                    // and the pop); exit only once every queue has
                    // been observed empty.
                    while next.is_none() {
                        let victim = (0..queues.len())
                            .filter(|&v| v != me)
                            .map(|v| (queues[v].lock().unwrap().len(), v))
                            .max();
                        match victim {
                            Some((len, v)) if len > 0 => {
                                next = queues[v].lock().unwrap().pop_back();
                                if next.is_some() {
                                    steals.incr();
                                }
                            }
                            _ => break,
                        }
                    }
                    match next {
                        Some(i) => {
                            // The receiver outlives every worker; send
                            // cannot fail.
                            sender.send((i, f(&mut state, &items[i]))).unwrap();
                        }
                        None => break,
                    }
                }
            });
        }
        drop(sender);

        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in receiver {
            debug_assert!(out[i].is_none(), "item {i} dispatched twice");
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("every item dispatched once")).collect()
    })
}

/// `std::thread::available_parallelism`, defaulting to 1 when unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 7, 64] {
            let out = map_stateful(&items, threads, || (), |_, &x| x * x);
            assert_eq!(out.len(), items.len());
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, (i as u64) * (i as u64), "threads={threads}");
            }
        }
    }

    #[test]
    fn every_item_evaluated_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..337).collect();
        let out = map_stateful(
            &items,
            8,
            || (),
            |_, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(out.len(), 337);
        assert_eq!(calls.load(Ordering::Relaxed), 337);
    }

    #[test]
    fn state_is_created_once_per_worker_and_reused() {
        // The whole point of per-worker state is amortization (one
        // memoizing EmulationContext per worker, not per item): the
        // factory must run at most `threads` times, and each state's
        // call counter must cover its items exactly once each.
        let factory_calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        let out = map_stateful(
            &items,
            4,
            || (factory_calls.fetch_add(1, Ordering::Relaxed), 0usize),
            |(worker, seen), &x| {
                *seen += 1;
                (*worker, *seen, x)
            },
        );
        assert!(factory_calls.load(Ordering::Relaxed) <= 4, "one state per worker at most");
        // Per worker, the observed counter values must be exactly
        // 1..=k for its k items — proving sequential private reuse
        // (a fresh-state-per-item bug would yield all 1s).
        let mut per_worker: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for &(worker, seen, _) in &out {
            per_worker.entry(worker).or_default().push(seen);
        }
        for (worker, mut seens) in per_worker {
            seens.sort_unstable();
            assert_eq!(
                seens,
                (1..=seens.len()).collect::<Vec<_>>(),
                "worker {worker} reused its state non-sequentially"
            );
        }
    }

    #[test]
    fn uneven_work_still_completes() {
        // Skewed cost forces steals; correctness must be unaffected.
        let items: Vec<u64> = (0..64).collect();
        let out = map_stateful(
            &items,
            4,
            || (),
            |_, &x| {
                if x < 4 {
                    // A few heavy items at the front of worker 0's slab.
                    (0..200_000u64).fold(x, |a, b| a.wrapping_add(b % 7))
                } else {
                    x
                }
            },
        );
        assert_eq!(out.len(), 64);
        for (i, &r) in out.iter().enumerate().skip(4) {
            assert_eq!(r, i as u64);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_stateful(&empty, 8, || (), |_, &x| x).is_empty());
        assert_eq!(map_stateful(&[41u8], 8, || (), |_, &x| x + 1), vec![42]);
    }
}
