//! Hierarchical wall-clock spans.
//!
//! [`span`] opens a named span on the current thread and returns a
//! [`SpanGuard`]; dropping the guard closes it. A thread-local stack
//! tracks nesting, so a span opened while another is live becomes its
//! child, and its path is the `/`-joined chain of names
//! (`dse/sweep/evaluate`).
//!
//! Spans only exist while the [`crate::sink`] is recording: then each
//! span records an [`Event::SpanBegin`] at open and an
//! [`Event::SpanEnd`] (with measured duration) at close, and
//! [`crate::Ledger::profile`] rebuilds the per-stage calls, total and
//! *self* time from them. With recording off, [`span`] returns an
//! inert guard after one relaxed load.
//!
//! Spans are for *stages* — a sweep's evaluate phase, a search's drive
//! loop — never per-point work; the per-call cost when recording (two
//! `Instant::now`s, two events and two short mutex sections) is
//! trivial at stage granularity and ruinous at point granularity.
//! Per-point visibility is what [`crate::counter`] is for.

use std::cell::RefCell;
use std::time::Instant;

use crate::ledger::Event;
use crate::{epoch_us, sink, trace_pid, trace_tid};

struct Frame {
    /// `/`-joined path down to and including this span.
    path: String,
    start: Instant,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Open span `name` on this thread, nested under the innermost live
/// span. Hold the returned guard for the span's extent:
///
/// ```
/// {
///     let _s = ng_obs::span("sweep");
///     let _inner = ng_obs::span("evaluate");
///     // ... work ...
/// } // both close here, innermost first
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    if !sink::recording() {
        return SpanGuard { armed: false };
    }
    let path = STACK.with(|stack| match stack.borrow().last() {
        Some(parent) => format!("{}/{name}", parent.path),
        None => name.to_string(),
    });
    sink::record(Event::SpanBegin {
        ts: epoch_us(),
        pid: trace_pid(),
        tid: trace_tid(),
        path: path.clone(),
    });
    // The clock starts once the begin event is recorded, so a span's
    // duration holds none of its own bookkeeping.
    let start = Instant::now();
    STACK.with(|stack| stack.borrow_mut().push(Frame { path, start }));
    SpanGuard { armed: true }
}

/// Closes its span when dropped. Guards must drop in reverse open
/// order (the natural result of lexical scoping); a guard that
/// outlives a later-opened one would close the wrong path.
#[must_use = "a span measures the extent of its guard — bind it with `let _s = span(..)`"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(Frame { path, start }) = STACK.with(|stack| stack.borrow_mut().pop()) {
            let dur = start.elapsed().as_micros() as u64;
            sink::record(Event::SpanEnd {
                ts: epoch_us(),
                pid: trace_pid(),
                tid: trace_tid(),
                path,
                dur,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageProfile;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Run `f` with recording on and return the profile of its ledger.
    /// Recording is process-global and tests run concurrently, so the
    /// tests that record take turns.
    fn record(f: impl FnOnce()) -> Vec<StageProfile> {
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        sink::enable();
        f();
        sink::finish().profile()
    }

    fn stat<'a>(profile: &'a [StageProfile], path: &str) -> &'a StageProfile {
        profile.iter().find(|p| p.path == path).unwrap_or_else(|| panic!("no {path}: {profile:?}"))
    }

    #[test]
    fn nesting_builds_paths_and_charges_self_time() {
        let profile = record(|| {
            let _root = span("test-nest");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _child = span("child");
                std::thread::sleep(Duration::from_millis(4));
            }
        });
        let root = stat(&profile, "test-nest");
        let child = stat(&profile, "test-nest/child");
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 1);
        // Root total covers both sleeps; its self time excludes the child.
        assert!(root.total_us >= child.total_us);
        assert_eq!(root.self_us, root.total_us - child.total_us);
        assert!(child.total_us >= 3_000, "child slept ~4ms, saw {}us", child.total_us);
        assert!(root.self_us >= 3_000, "root slept ~4ms outside child, saw {}us", root.self_us);
    }

    #[test]
    fn sibling_threads_do_not_nest() {
        let profile = record(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _s = span("test-thread-root");
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }
            })
        });
        // Each thread rooted its own span: no "test-thread-root/test-thread-root".
        assert!(profile.iter().all(|p| p.path != "test-thread-root/test-thread-root"));
        assert_eq!(stat(&profile, "test-thread-root").calls, 2);
    }

    #[test]
    fn repeated_calls_accumulate() {
        let profile = record(|| {
            for _ in 0..5 {
                let _s = span("test-repeat");
            }
        });
        assert_eq!(stat(&profile, "test-repeat").calls, 5);
    }
}
