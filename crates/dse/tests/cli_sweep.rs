//! End-to-end CLI checks of sweep mode's exits: a reader that closes
//! stdout early (`dse ... | head`) only silences the report, so the
//! run's checks and file writes still decide the exit code, and
//! `--check-headline` fails a sweep whose axes leave out the paper's
//! NGPC-64 organisation. A spec file and the equivalent flags give the
//! same report.

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
        // One architecture's points: the smallest budget a search takes.
        &["--search", "--preset", "guided-lanes", "--budget", "4", "--check-headline"],
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

/// The README's `sweep.toml`: the lines from `# sweep.toml` to the end
/// of its code block.
fn readme_sweep_toml() -> String {
    let readme = include_str!("../../../README.md");
    let start = readme.find("# sweep.toml").expect("README shows sweep.toml");
    let end = start + readme[start..].find("```").expect("the code block closes");
    readme[start..end].to_string()
}

/// `dse`'s stdout for `args` without its `sweep` and `evaluation:`
/// lines (the spec name and the wall time).
fn report_body(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let body =
        stdout.lines().filter(|l| !l.starts_with("sweep `") && !l.starts_with("evaluation:"));
    body.collect::<Vec<_>>().join("\n")
}

/// A spec file's axes and bounds read as the matching flags read them:
/// the README's `sweep.toml` and its flags print the same frontier.
#[test]
fn the_readme_spec_and_its_flags_print_the_same_frontier() {
    let spec = temp_path("readme.toml");
    std::fs::write(&spec, readme_sweep_toml()).unwrap();
    let from_file = report_body(&["--spec", spec.to_str().unwrap()]);
    std::fs::remove_file(&spec).unwrap();
    #[rustfmt::skip]
    let from_flags = report_body(&[
        "--preset", "quick", "--apps", "nerf,gia", "--encodings", "hashgrid",
        "--nfp-units", "8,16,32,64", "--clocks", "0.5,1.0,2.0", "--sram-kb", "512,1024",
        "--banks", "4,8", "--engines", "8,16", "--mac-rows", "32,64", "--mac-cols", "64",
        "--lanes", "1,2", "--fifo", "8,64", "--max-area", "3.0", "--min-speedup", "2.0",
    ]);
    assert!(from_file.contains("constraints: area ≤ 3%, speedup ≥ 2x"), "{from_file}");
    assert!(from_file.contains("Pareto frontier ("), "{from_file}");
    assert_eq!(from_file, from_flags);
}
