//! The recording layer: one run's [`Event`]s, held in memory.
//!
//! Recording is process-global and off by default. [`enable`] turns it
//! on, outside any span; from then on every span begin and end pushes
//! one [`Event`] onto a process buffer. [`finish`] appends the final
//! counter values, stops recording and returns the [`Ledger`], which
//! the caller writes once (`ledger.to_string()`) — after the root span
//! has closed, so the ledger's own I/O never lands inside the time it
//! measures. The event schema is [`Event`]'s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::ledger::{Event, Ledger};

/// Whether spans record. It gates the push into [`EVENTS`], which the
/// mutex publishes, so a relaxed flag suffices.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// The events recorded since [`enable`].
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Whether spans opened now record. One relaxed load — the check
/// [`crate::span`] makes before touching anything else.
#[inline]
pub(crate) fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Start recording into an empty buffer. Call it outside any span: a
/// span that opened before recording started emits no events.
pub fn enable() {
    EVENTS.lock().expect("ledger buffer never poisoned").clear();
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stop recording: append one `ctr` event per registered counter and
/// return the recorded ledger.
pub fn finish() -> Ledger {
    let mut events = {
        let mut events = EVENTS.lock().expect("ledger buffer never poisoned");
        RECORDING.store(false, Ordering::Relaxed);
        std::mem::take(&mut *events)
    };
    let (ts, pid) = (crate::epoch_us(), crate::trace_pid());
    events.extend(crate::counter::snapshot().iter().map(|(name, val)| Event::Counter {
        ts,
        pid,
        name: name.to_string(),
        val,
    }));
    Ledger { events, skipped_lines: 0 }
}

/// Buffer one event (called by [`crate::span`]), unless recording
/// stopped meanwhile.
pub(crate) fn record(event: Event) {
    let mut events = EVENTS.lock().expect("ledger buffer never poisoned");
    if recording() {
        events.push(event);
    }
}
