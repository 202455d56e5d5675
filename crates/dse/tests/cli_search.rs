//! End-to-end CLI checks of guided-search mode: `--search` runs the
//! budgeted searcher instead of the exhaustive sweep, honours
//! `--budget`/`--seed`, and `--check-headline` gates on recovery. Spec
//! and constraint mistakes in either mode exit 2, and so do values the
//! run could not honour (`--threads 0`, `--budget`/`--seed` without
//! `--search`).

use std::process::Command;

fn dse(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn saturated_search_on_quick_recovers_the_headline() {
    // The quick preset contains the NGPC-64 point; a budget covering
    // the whole (64-point) space must recover it and exit zero.
    let (out, err, ok) =
        dse(&["--search", "--preset", "quick", "--no-cache", "--budget", "64", "--check-headline"]);
    assert!(ok, "search run failed:\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("guided search `quick` (hill)"), "{out}");
    assert!(out.contains("budget covers the space"), "{out}");
    assert!(out.contains("recovered the NGPC-64 organisation"), "{out}");
}

#[test]
fn explicit_strategy_and_seed_are_accepted() {
    let (out, err, ok) = dse(&[
        "--search",
        "evolve",
        "--preset",
        "quick",
        "--no-cache",
        "--budget",
        "24",
        "--seed",
        "7",
    ]);
    assert!(ok, "evolve run failed:\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("guided search `quick` (evolve)"), "{out}");
    let (_, err, ok) = dse(&["--search", "anneal", "--preset", "quick"]);
    assert!(!ok, "unknown strategy must fail");
    assert!(err.contains("unknown strategy"), "{err}");
}

#[test]
fn search_mode_rejects_sweep_only_outputs() {
    let (_, err, ok) =
        dse(&["--search", "--preset", "quick", "--no-cache", "--csv", "/tmp/nope.csv"]);
    assert!(!ok);
    assert!(err.contains("rerun without --search"), "{err}");
}

/// Run `dse` and return its stderr and exit code.
fn dse_code(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    (String::from_utf8_lossy(&out.stderr).into_owned(), out.status.code())
}

#[test]
fn budget_zero_is_a_clean_error() {
    let (err, code) = dse_code(&["--search", "--preset", "quick", "--no-cache", "--budget", "0"]);
    assert_eq!(code, Some(2), "a spec mistake exits 2:\n{err}");
    assert!(err.contains("budget must be nonzero"), "{err}");
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
        (&["--preset", "quick", "--budget", "5"][..], "--budget"),
        (&["--preset", "quick", "--seed", "9"][..], "--seed"),
        (&["--seed", "9", "--preset", "quick", "--no-cache"][..], "--seed"),
    ] {
        let (err, code) = dse_code(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\n{err}");
        assert!(err.contains(names), "{args:?}: the message names {names}: {err}");
    }
    // `--threads` still takes any positive count in sweep mode.
    let (err, code) = dse_code(&["--preset", "quick", "--threads", "1", "--quiet"]);
    assert_eq!(code, Some(0), "{err}");
}
