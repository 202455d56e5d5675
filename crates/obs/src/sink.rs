//! The recording layer: a crash-safe append-only JSONL event ledger.
//!
//! One file, one JSON object per line, appended under an exclusive
//! advisory file lock: any number of threads *and processes* pointed
//! at the same ledger path may interleave events without ever tearing
//! a line, and a crashed writer leaves at worst one torn final line,
//! which [`crate::ledger`] skips.
//!
//! Recording is process-global and off by default. [`enable`] turns it
//! on (the `dse --trace PATH` path). When off, every emit helper
//! returns after one relaxed atomic load.
//!
//! ## Event schema (one object per line)
//!
//! | `ev`   | meaning        | fields |
//! |--------|----------------|--------|
//! | `meta` | key/value info | `ts`, `pid`, `k`, `v` |
//! | `sb`   | span begin     | `ts`, `pid`, `tid`, `path` |
//! | `se`   | span end       | `ts`, `pid`, `tid`, `path`, `dur` (µs) |
//! | `ctr`  | counter value  | `ts`, `pid`, `name`, `val` (cumulative) |
//!
//! `ts` is wall-clock microseconds since the epoch ([`crate::epoch_us`])
//! so multi-process events share one axis; `dur` is measured
//! monotonically. Counter events carry *cumulative* values — readers
//! take the last value per `(pid, name)`.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::{epoch_us, json_escape, trace_tid};

static RECORDING: AtomicBool = AtomicBool::new(false);
/// The ledger's path and one handle on it, opened for appending by
/// [`enable`] and kept for the run: an event costs a lock, a write and
/// an unlock, not an open and a close as well. Inside a traced `dse`
/// run those per-event costs are the root span's untimed overhead.
static LEDGER: Mutex<Option<(PathBuf, fs::File)>> = Mutex::new(None);

/// Whether a ledger is being recorded. One relaxed load — the guard
/// every emit helper takes first.
#[inline]
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Start recording events to `path` (appending if it exists, so
/// several processes can share one ledger). Emits a `meta` event
/// marking the attach.
pub fn enable(path: impl Into<PathBuf>) -> io::Result<()> {
    let path = path.into();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    // Opening now also probes writability, so a bad path fails the run
    // loudly instead of silently dropping every event later.
    let file = fs::OpenOptions::new().create(true).append(true).open(&path)?;
    *LEDGER.lock().expect("ledger lock never poisoned") = Some((path, file));
    RECORDING.store(true, Ordering::Relaxed);
    emit_meta("attach", &format!("pid {}", std::process::id()));
    Ok(())
}

/// Stop recording.
pub fn disable() {
    RECORDING.store(false, Ordering::Relaxed);
}

/// The current ledger path, when recording.
pub fn ledger_path() -> Option<PathBuf> {
    LEDGER.lock().expect("ledger lock never poisoned").as_ref().map(|(path, _)| path.clone())
}

/// Append one already-serialised JSON line to `path` under the file's
/// exclusive advisory lock. The write is a single `write_all` of
/// `line + '\n'` while the lock is held, so concurrent appenders —
/// threads or processes — never interleave mid-line; a filesystem
/// without lock support degrades to a plain append.
pub fn append_jsonl_line(path: &Path, line: &str) -> io::Result<()> {
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    append_locked(&mut file, line)
}

/// [`append_jsonl_line`] on an open append-mode handle: lock, one
/// `write_all`, unlock (the kernel also releases the lock if the
/// process dies holding it).
fn append_locked(file: &mut fs::File, line: &str) -> io::Result<()> {
    if let Err(e) = file.lock() {
        if e.kind() != io::ErrorKind::Unsupported {
            return Err(e);
        }
    }
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let written = file.write_all(buf.as_bytes());
    let _ = file.unlock();
    written
}

/// Emit one event line to the ledger, if recording. Emission is best
/// effort: an I/O error drops the event rather than failing the run —
/// observability must never turn a working sweep into a broken one.
fn emit(line: &str) {
    if !is_recording() {
        return;
    }
    if let Some((_, file)) = LEDGER.lock().expect("ledger lock never poisoned").as_mut() {
        let _ = append_locked(file, line);
    }
}

/// Emit a `meta` key/value event.
pub fn emit_meta(key: &str, value: &str) {
    if !is_recording() {
        return;
    }
    emit(&format!(
        "{{\"ev\":\"meta\",\"ts\":{},\"pid\":{},\"k\":\"{}\",\"v\":\"{}\"}}",
        epoch_us(),
        std::process::id(),
        json_escape(key),
        json_escape(value),
    ));
}

/// Emit a span-begin event (called by [`crate::span`]).
pub(crate) fn emit_span_begin(path: &str) {
    emit(&format!(
        "{{\"ev\":\"sb\",\"ts\":{},\"pid\":{},\"tid\":{},\"path\":\"{}\"}}",
        epoch_us(),
        std::process::id(),
        trace_tid(),
        json_escape(path),
    ));
}

/// Emit a span-end event with its measured duration in microseconds.
pub(crate) fn emit_span_end(path: &str, dur_us: u64) {
    emit(&format!(
        "{{\"ev\":\"se\",\"ts\":{},\"pid\":{},\"tid\":{},\"path\":\"{}\",\"dur\":{}}}",
        epoch_us(),
        std::process::id(),
        trace_tid(),
        json_escape(path),
        dur_us,
    ));
}

/// Emit one `ctr` event per registered counter (cumulative values).
/// Call at end of run — `dse` does, right before reporting — so a
/// ledger always closes with the process's final counter state.
pub fn emit_counters() {
    if !is_recording() {
        return;
    }
    let ts = epoch_us();
    let pid = std::process::id();
    for (name, value) in crate::counter::snapshot().iter() {
        emit(&format!(
            "{{\"ev\":\"ctr\",\"ts\":{ts},\"pid\":{pid},\"name\":\"{}\",\"val\":{value}}}",
            json_escape(name),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_creates_and_appends_whole_lines() {
        let path = std::env::temp_dir().join(format!(
            "ng-obs-append-{}-{}",
            std::process::id(),
            crate::trace_tid()
        ));
        let _ = fs::remove_file(&path);
        append_jsonl_line(&path, "{\"a\":1}").unwrap();
        append_jsonl_line(&path, "{\"b\":2}").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        fs::remove_file(&path).unwrap();
    }
}
