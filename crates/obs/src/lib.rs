//! # ng-obs — structured observability for the DSE pipeline
//!
//! The pipeline behind `dse` spans sweep → frontier → report, plus
//! guided search; this crate is the one place all of it reports *how*
//! a run went, not just what it produced. It is
//! deliberately dependency-free (not even the vendored workspace
//! stubs): instrumentation must never constrain who can link it.
//!
//! Four pieces, composable but independently usable:
//!
//! * [`counter`](mod@counter) — process-global named counters
//!   ([`counter::counter`](fn@counter::counter)): lock-free atomic adds on the hot path, a
//!   registry snapshot for end-of-run metrics, and the raw material for
//!   run invariants (`eval.ticks == sweep.points`).
//! * [`span`](mod@span) — hierarchical wall-clock spans
//!   ([`span::span`](fn@span::span)): a
//!   thread-local stack tracks nesting, and while recording is on each
//!   span records begin/end events.
//! * [`sink`] — the recording layer: one run's events, held in memory
//!   from [`sink::enable`] to [`sink::finish`], which appends the final
//!   counter values and hands back the [`Ledger`] for the caller to
//!   read in place or write once (the `dse --trace` and `--metrics`
//!   path).
//! * [`ledger`] — the typed run ledger: [`ledger::Event`] (span begin,
//!   span end, counter), whose `Display` is the JSONL line and
//!   [`Ledger::parse`] its lenient inverse; one replay of the span
//!   events rebuilds the per-stage profile with self time and the
//!   balance verdict, and [`Ledger::check`] adds the root span, stage
//!   coverage and the counter invariant. It also exports Chrome
//!   `trace.json` for chrome://tracing.
//!
//! [`progress`] is the small extra: a single-line stderr meter that
//! samples a counter in the background — long sweeps get a live
//! `done/total (rate)` line without the evaluation loop knowing
//! anything about terminals.
//!
//! ## Overhead budget
//!
//! Counters are one `AtomicU64::fetch_add` each (~1 ns); handles are
//! looked up once and hoisted out of loops. With recording off a span
//! is one relaxed atomic load and an inert guard. With recording on it
//! costs two `Instant::now` calls and two events, each pushed under a
//! short mutex section — spans are meant for *stages* (a sweep's
//! evaluate phase, a search's drive loop), never for per-point work.
//! Nothing touches a file until the run is over. The contract, guarded
//! by `bench_dse --check-overhead`: recording on must keep the paper
//! preset's median sweep throughput above half of recording off's,
//! both measured in the same process.

pub mod counter;
pub mod ledger;
pub mod progress;
pub mod sink;
pub mod span;

pub use counter::{counter, Counter, CounterSnapshot};
pub use ledger::{Event, Ledger, LedgerCheck, StageProfile};
pub use progress::{stderr_wants_progress, Meter};
pub use span::{span, SpanGuard};

/// Microseconds since the UNIX epoch — the wall-clock timestamp every
/// ledger event carries, so a Chrome trace shows when the run happened;
/// durations, by contrast, are always measured with `Instant`.
pub fn epoch_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// This process's id, as trace events carry it.
pub(crate) fn trace_pid() -> u64 {
    u64::from(std::process::id())
}

/// A small process-stable thread id for trace events (`ThreadId` has no
/// stable numeric form): the first thread to ask is 0, the next 1, ...
pub fn trace_tid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}
