//! Process-global named counters.
//!
//! A [`Counter`] is a clonable handle onto one shared `AtomicU64`;
//! incrementing it is a single relaxed `fetch_add`, cheap enough for
//! hot loops. Handles are created (and the registry mutex paid) once,
//! at setup time — callers hoist them out of loops or stash them in
//! `OnceLock`s.
//!
//! Counters are *cumulative for the process lifetime*. Callers that
//! want per-run numbers (`bench_dse`'s per-sweep counters) take a
//! [`snapshot`] before and after and diff with
//! [`CounterSnapshot::delta_since`]. There is deliberately no
//! global reset: tests and benches run concurrently in one process,
//! and a reset would yank the rug from under every other reader.
//!
//! Naming convention: dotted lowercase paths, subsystem first —
//! `sweep.points`, `eval.ticks`, `search.hill.accepted`.
//! Counters measuring time carry a `_us` suffix and count microseconds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A handle onto one named counter. Cloning shares the underlying
/// value.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Arc<AtomicU64>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<AtomicU64>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The handle for counter `name`, creating it (at zero) on first use.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock().expect("counter registry never poisoned");
    let cell = reg.entry(name.to_string()).or_default().clone();
    Counter { cell }
}

/// A point-in-time copy of every registered counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: BTreeMap<String, u64>,
}

impl CounterSnapshot {
    /// The value of `name` in this snapshot (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Counters that grew since `earlier`, as `(name, growth)` — the
    /// per-run view of the cumulative registry. Counters absent from
    /// `earlier` count from zero; unchanged counters are omitted.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let values = self
            .values
            .iter()
            .filter_map(|(name, &now)| {
                let growth = now.saturating_sub(earlier.get(name));
                (growth > 0).then(|| (name.clone(), growth))
            })
            .collect();
        CounterSnapshot { values }
    }

    /// Whether the snapshot holds no counters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Snapshot every registered counter.
pub fn snapshot() -> CounterSnapshot {
    let reg = registry().lock().expect("counter registry never poisoned");
    CounterSnapshot {
        values: reg.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_named_cell() {
        // Unique names: the registry is process-global and other tests
        // (and their counters) run in this same process.
        let a = counter("test.counter.shared");
        let b = counter("test.counter.shared");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    fn snapshot_and_delta() {
        let c = counter("test.counter.delta");
        let before = snapshot();
        c.add(7);
        let after = snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.get("test.counter.delta"), 7);
        // Unchanged counters are not in the delta.
        assert!(delta.iter().all(|(_, v)| v > 0));
        assert_eq!(after.get("test.counter.never-registered"), 0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_increments() {
        let threads = 8;
        let per_thread = 10_000u64;
        let before = counter("test.counter.stress").get();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let c = counter("test.counter.stress");
                    for _ in 0..per_thread {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(counter("test.counter.stress").get() - before, threads * per_thread);
    }
}
