//! End-to-end CLI checks of `dse`'s exits: a reader that closes stdout
//! early (`dse ... | head`) only silences the report, so the run's
//! checks and file writes still decide the exit code, and
//! `--check-headline` fails a sweep whose axes leave out the paper's
//! NGPC-64 organisation. Spec and constraint mistakes, values the run
//! could not honour (`--threads 0`) and flags `dse` does not have
//! (`--search`, `--budget`, `--seed`) exit 2. A spec file and the
//! equivalent flags give the same report.

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
    let out = dse_with_stdout_closed(&["--preset", "paper", "--quiet"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "wrote to stderr: {err}");
}

/// A closed stdout skips no gate and no file: the headline check
/// still fails the run, and a passing run still writes its CSV.
#[test]
fn a_closed_stdout_still_runs_the_checks_and_writes_the_files() {
    let csv = temp_path("csv");
    let path = csv.to_str().unwrap();
    let without_paper_point =
        ["--preset", "paper", "--quiet", "--nfp-units", "8", "--check-headline", "--csv", path];
    // The space holds NGPC-64, but the area bound keeps it off the frontier.
    let paper_point_out_of_bounds =
        ["--preset", "paper", "--quiet", "--max-area", "1", "--check-headline"];
    for (args, says) in [
        (&without_paper_point[..], "does not contain"),
        (&paper_point_out_of_bounds[..], "dropped off"),
    ] {
        let out = dse_with_stdout_closed(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("--check-headline") && err.contains(says), "{args:?}: {err}");
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

/// Run `dse` and return its stderr and exit code.
fn dse_code(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    (String::from_utf8_lossy(&out.stderr).into_owned(), out.status.code())
}

#[test]
fn invalid_sweep_spec_exits_2() {
    let (err, code) = dse_code(&["--preset", "quick", "--clocks", "nan", "--quiet"]);
    assert_eq!(code, Some(2), "a spec mistake exits 2:\n{err}");
    assert!(err.contains("invalid spec"), "{err}");
}

#[test]
fn non_finite_constraint_bounds_exit_2() {
    for args in [
        ["--preset", "quick", "--max-area", "nan"],
        ["--preset", "quick", "--min-speedup", "nan"],
        ["--preset", "quick", "--max-power", "inf"],
    ] {
        let (err, code) = dse_code(&args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\n{err}");
        assert!(err.contains("must be a finite number"), "{args:?}: {err}");
    }

    for (args, bound) in [
        (["--preset", "quick", "--max-area", "-1"], "--max-area"),
        (["--preset", "quick", "--max-power", "-0.5"], "--max-power"),
    ] {
        let (err, code) = dse_code(&args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\n{err}");
        assert!(err.contains(bound) && err.contains("negative"), "{args:?}: {err}");
    }

    let spec = std::env::temp_dir().join(format!("ng-dse-bad-bound-{}.toml", std::process::id()));
    for (line, key) in [
        ("max_area_pct = nan", "max_area_pct"),
        ("max_area_pct = -1", "max_area_pct"),
        ("max_power_pct = -2.5", "max_power_pct"),
    ] {
        std::fs::write(&spec, format!("name = \"bad-bound\"\n[constraints]\n{line}\n")).unwrap();
        let (err, code) = dse_code(&["--spec", spec.to_str().unwrap(), "--quiet"]);
        assert_eq!(code, Some(2), "`{line}` in a spec file must exit 2:\n{err}");
        assert!(err.contains(key), "{line}: {err}");
    }
    std::fs::remove_file(&spec).unwrap();
}

#[test]
fn values_dse_cannot_honour_exit_2() {
    for (args, names) in [
        (&["--preset", "quick", "--threads", "0"][..], "--threads"),
        (&["--preset", "quick", "--threads", "100000"][..], "--threads"),
        // Flags `dse` does not have.
        (&["--search", "--preset", "quick"][..], "--search"),
        (&["--preset", "quick", "--budget", "5"][..], "--budget"),
        (&["--preset", "quick", "--seed", "9"][..], "--seed"),
        (&["--seed", "9", "--preset", "quick", "--no-cache"][..], "--seed"),
    ] {
        let (err, code) = dse_code(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\n{err}");
        assert!(err.contains(names), "{args:?}: the message names {names}: {err}");
    }
    // `--threads` takes any count from 1 to 256.
    for threads in ["1", "256"] {
        let (err, code) = dse_code(&["--preset", "quick", "--threads", threads, "--quiet"]);
        assert_eq!(code, Some(0), "{err}");
    }
}
