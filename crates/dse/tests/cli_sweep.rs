//! End-to-end CLI checks of sweep mode's exits: a reader that closes
//! stdout early (`dse ... | head`) only silences the report, so the
//! run's checks and file writes still decide the exit code, and
//! `--check-headline` fails a sweep whose axes leave out the paper's
//! NGPC-64 organisation.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Run `dse` with `args` after closing the read end of its stdout:
/// its first write to stdout fails with a broken pipe.
fn dse_with_stdout_closed(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dse runs");
    drop(child.stdout.take());
    child.wait_with_output().expect("dse exits")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ng-dse-cli-sweep-{tag}-{}", std::process::id()))
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_success() {
    for args in [&["--preset", "paper", "--quiet"][..], &["--search", "--preset", "paper"]] {
        let out = dse_with_stdout_closed(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?} wrote to stderr: {err}");
    }
}

/// A closed stdout skips no gate and no file: the headline check
/// still fails the run, and a passing run still writes its CSV.
#[test]
fn a_closed_stdout_still_runs_the_checks_and_writes_the_files() {
    let csv = temp_path("csv");
    let path = csv.to_str().unwrap();
    for args in [
        &["--preset", "paper", "--quiet", "--nfp-units", "8", "--check-headline", "--csv", path][..],
        &["--search", "--preset", "guided-lanes", "--budget", "1", "--check-headline"],
    ] {
        let out = dse_with_stdout_closed(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("--check-headline"), "{args:?}: {err}");
    }
    assert!(!csv.exists(), "a failed headline check wrote {path}");

    let out = dse_with_stdout_closed(&[
        "--preset",
        "paper",
        "--quiet",
        "--check-headline",
        "--csv",
        path,
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "wrote to stderr: {err}");
    let text = std::fs::read_to_string(&csv).expect("the CSV was written");
    std::fs::remove_file(&csv).unwrap();
    // A header and one row per point of the paper preset.
    let points = ng_dse::SweepSpec::preset("paper").unwrap().point_count();
    assert_eq!(text.lines().count(), 1 + points);
}

#[test]
fn check_headline_fails_a_sweep_without_the_paper_organisation() {
    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(["--preset", "paper", "--nfp-units", "8", "--quiet", "--check-headline"])
        .output()
        .expect("dse runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("does not contain"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("paper check"), "{stdout}");
}
