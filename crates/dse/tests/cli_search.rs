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
    // Every architecture was visited, so the frontier is confirmed.
    assert!(!out.contains("unconfirmed"), "{out}");
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

/// A search that visits part of the space says that its frontier rows
/// are non-dominated only among the architectures it visited.
#[test]
fn a_partial_search_calls_its_frontier_unconfirmed() {
    let (out, err, ok) = dse(&["--search", "--preset", "paper"]);
    assert!(ok, "search run failed:\nstdout: {out}\nstderr: {err}");
    assert!(!out.contains("exhaustive scan"), "{out}");
    assert!(out.contains("(unconfirmed: these rows are non-dominated among the "), "{out}");
    assert!(out.contains("an exhaustive sweep of all 360 may dominate some of them)"), "{out}");
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
    // 3 is below one quick architecture's 4 points: it would evaluate
    // nothing.
    for budget in ["0", "3"] {
        let (err, code) =
            dse_code(&["--search", "--preset", "quick", "--no-cache", "--budget", budget]);
        assert_eq!(code, Some(2), "a spec mistake exits 2:\n{err}");
        assert!(err.contains("budget must be nonzero"), "{err}");
    }
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
        (&["--preset", "quick", "--budget", "5"][..], "--budget"),
        (&["--preset", "quick", "--seed", "9"][..], "--seed"),
        (&["--seed", "9", "--preset", "quick", "--no-cache"][..], "--seed"),
    ] {
        let (err, code) = dse_code(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\n{err}");
        assert!(err.contains(names), "{args:?}: the message names {names}: {err}");
    }
    // `--threads` takes any count from 1 to 256 in sweep mode.
    for threads in ["1", "256"] {
        let (err, code) = dse_code(&["--preset", "quick", "--threads", threads, "--quiet"]);
        assert_eq!(code, Some(0), "{err}");
    }
}

/// The default budget covers at least one architecture: on the 16-point
/// quick preset (4 apps), 5% of the space is below one architecture's
/// points, and the search must still evaluate one.
#[test]
fn default_budget_on_quick_evaluates_an_architecture() {
    let (out, err, ok) = dse(&["--search", "--preset", "quick"]);
    assert!(ok, "search run failed:\nstdout: {out}\nstderr: {err}");
    // "guided search `quick` (hill): N of 16 points evaluated ..."
    let evaluated = out.split("): ").nth(1).and_then(|rest| rest.split(' ').next());
    let evaluated = evaluated.and_then(|n| n.parse::<u64>().ok());
    assert!(evaluated.is_some_and(|n| n >= 4), "{out}");
}

/// A search space without the paper's NGPC-64 organisation gets no
/// paper check, and `--check-headline` fails it as sweep mode does:
/// no budget could recover a point the space lacks.
#[test]
fn a_search_space_without_the_paper_organisation_gets_no_paper_check() {
    let (out, err, ok) = dse(&["--search", "--preset", "guided-lanes", "--nfp-units", "8,16"]);
    assert!(ok, "search run failed:\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("guided search `guided-lanes`"), "{out}");
    assert!(!out.contains("paper check"), "{out}");

    let args = ["--search", "--preset", "quick", "--nfp-units", "8,16", "--check-headline"];
    let (err, code) = dse_code(&args);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("does not contain"), "{err}");
}
