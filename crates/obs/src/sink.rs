//! The recording layer: one run's JSONL event ledger, held in memory.
//!
//! Recording is process-global and off by default. [`enable`] turns it
//! on, outside any span; from then on every span begin and end pushes
//! one JSON line onto a process buffer. [`finish`] appends the final
//! counter values, stops recording and returns the text, which the
//! caller writes once — after the root span has closed, so the
//! ledger's own I/O never lands inside the time it measures.
//!
//! ## Event schema (one object per line)
//!
//! | `ev`   | meaning        | fields |
//! |--------|----------------|--------|
//! | `sb`   | span begin     | `ts`, `pid`, `tid`, `path` |
//! | `se`   | span end       | `ts`, `pid`, `tid`, `path`, `dur` (µs) |
//! | `ctr`  | counter value  | `ts`, `pid`, `name`, `val` (cumulative) |
//!
//! `ts` is wall-clock microseconds since the epoch ([`crate::epoch_us`]);
//! `dur` is measured monotonically. Counter events carry the process's
//! *cumulative* values — readers take the last value per name.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::{epoch_us, json_escape, trace_tid};

/// Whether spans record. It gates the push into [`LINES`], which the
/// mutex publishes, so a relaxed flag suffices.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// The event lines recorded since [`enable`].
static LINES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Whether spans opened now record. One relaxed load — the check
/// [`crate::span`] makes before touching anything else.
#[inline]
pub(crate) fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Start recording into an empty buffer. Call it outside any span: a
/// span that opened before recording started emits no events.
pub fn enable() {
    LINES.lock().expect("ledger buffer never poisoned").clear();
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stop recording: append one `ctr` line per registered counter and
/// return the recorded JSONL text, every line newline-terminated.
pub fn finish() -> String {
    let mut lines = LINES.lock().expect("ledger buffer never poisoned");
    RECORDING.store(false, Ordering::Relaxed);
    let ts = epoch_us();
    let pid = std::process::id();
    for (name, value) in crate::counter::snapshot().iter() {
        lines.push(format!(
            "{{\"ev\":\"ctr\",\"ts\":{ts},\"pid\":{pid},\"name\":\"{}\",\"val\":{value}}}",
            json_escape(name),
        ));
    }
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines.drain(..) {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Buffer one event line, unless recording stopped meanwhile.
fn push(line: String) {
    let mut lines = LINES.lock().expect("ledger buffer never poisoned");
    if recording() {
        lines.push(line);
    }
}

/// Record a span-begin event (called by [`crate::span`]).
pub(crate) fn span_begin(path: &str) {
    push(format!(
        "{{\"ev\":\"sb\",\"ts\":{},\"pid\":{},\"tid\":{},\"path\":\"{}\"}}",
        epoch_us(),
        std::process::id(),
        trace_tid(),
        json_escape(path),
    ));
}

/// Record a span-end event with its measured duration in microseconds.
pub(crate) fn span_end(path: &str, dur_us: u64) {
    push(format!(
        "{{\"ev\":\"se\",\"ts\":{},\"pid\":{},\"tid\":{},\"path\":\"{}\",\"dur\":{}}}",
        epoch_us(),
        std::process::id(),
        trace_tid(),
        json_escape(path),
        dur_us,
    ));
}
