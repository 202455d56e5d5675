//! Crash-safety contract of the JSONL event sink (ISSUE 6):
//! concurrent appenders must never tear each other's lines, and a
//! reader must tolerate a file whose final line was cut short by a
//! dying writer.

use std::path::PathBuf;

use ng_obs::{append_jsonl_line, Ledger};

/// One numbered event line, tagged with its writer.
fn line(writer: usize, seq: usize) -> String {
    format!("{{\"ev\":\"meta\",\"writer\":{writer},\"seq\":{seq}}}")
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ng-obs-{tag}-{}.jsonl", std::process::id()))
}

/// Many threads hammering one sink file: every appended line must
/// survive intact — the locked single-`write_all` discipline means a
/// reader never sees two writers interleaved mid-line.
#[test]
fn concurrent_appends_produce_no_torn_lines() {
    const WRITERS: usize = 8;
    const LINES_PER_WRITER: usize = 200;

    let path = temp_file("stress");
    let _ = std::fs::remove_file(&path);

    std::thread::scope(|scope| {
        for worker in 0..WRITERS {
            let path = &path;
            scope.spawn(move || {
                for seq in 0..LINES_PER_WRITER {
                    append_jsonl_line(path, &line(worker, seq)).expect("append succeeds");
                }
            });
        }
    });

    let ledger = Ledger::read(&path).expect("sink file readable");
    assert_eq!(ledger.skipped_lines, 0, "torn or malformed lines in sink file");
    let events: Vec<_> = ledger.of_kind("meta").collect();
    assert_eq!(events.len(), WRITERS * LINES_PER_WRITER);

    // Stronger than counting: every (writer, seq) pair arrived exactly
    // once, so no line was lost or spliced into a parseable-but-wrong one.
    let mut seen = vec![[false; LINES_PER_WRITER]; WRITERS];
    for event in &events {
        let writer = event.num_field("writer").expect("writer field") as usize;
        let seq = event.num_field("seq").expect("seq field") as usize;
        assert!(!seen[writer][seq], "duplicate line ({writer}, {seq})");
        seen[writer][seq] = true;
    }
    assert!(seen.iter().flatten().all(|&s| s), "missing lines");

    let _ = std::fs::remove_file(&path);
}

/// A writer killed mid-append leaves a partial final line with no
/// trailing newline. The reader must keep every complete line and
/// report exactly one skipped line rather than erroring out.
#[test]
fn reader_tolerates_truncated_final_line() {
    let path = temp_file("torn-tail");
    let _ = std::fs::remove_file(&path);

    for seq in 0..4 {
        append_jsonl_line(&path, &line(0, seq)).expect("append succeeds");
    }
    // Simulate the crash: chop the file mid-way through its last line.
    let bytes = std::fs::read(&path).expect("sink file readable");
    let keep = bytes.len() - 9;
    std::fs::write(&path, &bytes[..keep]).expect("truncate succeeds");

    let ledger = Ledger::read(&path).expect("truncated file still readable");
    assert_eq!(ledger.skipped_lines, 1, "exactly the torn tail is skipped");
    assert_eq!(ledger.of_kind("meta").count(), 3, "complete lines all survive");

    let _ = std::fs::remove_file(&path);
}
