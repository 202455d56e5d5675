//! End-to-end checks of the observability surface: a traced
//! quick-preset run must produce a balanced, invariant-satisfying
//! ledger, and a rerun must overwrite it; a traced multi-block sweep
//! must show its factor-table stage, with one span per model layer,
//! and count every point once, with or without `--csv --json`; a
//! traced guided-lanes sweep must pass the default coverage floor;
//! `dse trace` must summarize and export it, reject a coverage floor
//! that is not a percent, a missing ledger and one with no run in it;
//! `--metrics` must print the same stages without touching stdout; and
//! `--quiet`, accepted and ignored, must leave stdout as it is and
//! stderr empty.

use std::path::PathBuf;
use std::process::Command;

use ng_dse::factors::FactorTables;
use ng_dse::spec::Space;
use ng_dse::SweepSpec;

fn dse(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ng-dse-trace-{tag}-{}", std::process::id()))
}

/// Assert that `stages` holds `tables` and one child span of it per
/// model layer, named as `FactorTables::layers` names them.
fn assert_layer_spans(stages: &[String], tables: &str) {
    let spec = SweepSpec::paper();
    let layers = FactorTables::new(Space::new(&spec)).layers();
    for stage in std::iter::once(tables.to_string())
        .chain(layers.iter().map(|(layer, _)| format!("{tables}/{layer}")))
    {
        assert!(stages.contains(&stage), "no {stage} span: {stages:?}");
    }
}

#[test]
fn traced_quick_run_balances_spans_and_satisfies_counter_invariant() {
    let ledger_path = temp_path("quick.jsonl");
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_s = ledger_path.display().to_string();

    let (out, err, ok) = dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &ledger_s]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    assert_eq!(ledger.skipped_lines, 0, "ledger contains malformed lines");
    let verdict = ledger.check();
    assert!(verdict.unbalanced.is_empty(), "unbalanced spans: {:?}", verdict.unbalanced);
    assert!(!verdict.invariant_violated(), "counter invariant violated: {:?}", verdict.sweep);
    assert!(verdict.sweep.is_some(), "the run recorded no sweep counters");

    // Check the invariant directly from the raw counters too, rather
    // than trusting the checker alone.
    let counters = ledger.final_counters();
    let points = counters.get("sweep.points").copied().unwrap_or_default();
    assert!(points > 0, "traced run evaluated no points");
    assert_eq!(counters.get("eval.ticks"), Some(&points), "eval.ticks != points");

    // The `dse trace --check` subcommand agrees, on its own exit code.
    // The coverage floor is waived: on a sub-millisecond quick sweep,
    // fixed startup costs dominate the root span (the >= 95% bar is
    // enforced on the paper preset by the CI trace-smoke step).
    let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("spans: balanced"), "missing balance verdict:\n{out}");
    assert!(out.contains("counter invariant"), "missing invariant verdict:\n{out}");
    assert!(out.contains("root span: dse"), "missing root span line:\n{out}");

    // A coverage floor that is not a percent is a usage mistake, not a
    // failed audit.
    for pct in ["nan", "inf", "-1", "101", "x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dse"))
            .args(["trace", &ledger_s, "--check", "--min-coverage", pct])
            .output()
            .expect("dse runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--min-coverage {pct} must exit 2:\n{err}");
        assert!(err.contains("--min-coverage"), "{pct}: {err}");
    }

    let _ = std::fs::remove_file(&ledger_path);
}

/// The sweep builds its factor tables under `evaluate/tables`, one
/// child span per model layer, and each of its workers adds its
/// range's points to `eval.ticks` once: over a sweep of two ranges, the
/// ticks must still sum to the point count.
#[test]
fn traced_sweep_shows_the_table_stage_and_ticks_every_point_once() {
    let ledger_path = temp_path("tables.jsonl");
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_s = ledger_path.display().to_string();

    // 4 apps x 3 encodings x 10 NFP counts x 3 SRAM sizes x 3 bank
    // counts x 3 engine counts x 3 lane counts = 9,720 points.
    let (out, err, ok) = dse(&[
        "--preset",
        "paper",
        "--sram-kb",
        "256,512,1024",
        "--engines",
        "8,16,32",
        "--lanes",
        "1,2,4",
        "--quiet",
        "--threads",
        "2",
        "--trace",
        &ledger_s,
    ]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let stages: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    assert_layer_spans(&stages, "dse/sweep/evaluate/tables");
    let counters = ledger.final_counters();
    assert_eq!(counters.get("sweep.points"), Some(&9720));
    assert_eq!(counters.get("eval.ticks"), Some(&9720), "eval.ticks != points");

    let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("dse/sweep/evaluate/tables"), "stage table lacks the tables:\n{out}");
    assert!(out.contains("counter invariant (eval.ticks == sweep.points): holds"), "{out}");

    let _ = std::fs::remove_file(&ledger_path);
}

/// A traced guided-lanes sweep (262,440 points, eight layer spans under
/// `tables`) passes `dse trace --check` at the default 95% coverage
/// floor: the layer spans cost no coverage.
#[test]
fn traced_guided_lanes_sweep_passes_the_default_coverage_check() {
    let ledger_path = temp_path("guided.jsonl");
    let ledger_s = ledger_path.display().to_string();
    let (out, err, ok) = dse(&["--preset", "guided-lanes", "--quiet", "--trace", &ledger_s]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let stages: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    assert_layer_spans(&stages, "dse/sweep/evaluate/tables");
    let (out, err, ok) = dse(&["trace", &ledger_s, "--check"]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");

    let _ = std::fs::remove_file(&ledger_path);
}

/// The emitters refill their blocks from the factor tables. That is
/// bookkeeping, not evaluation: a run that writes both files still
/// ticks every point exactly once, and its ledger passes the audit.
#[test]
fn traced_emitting_run_ticks_every_point_once() {
    let [ledger_path, csv_path, json_path] = ["emit.jsonl", "emit.csv", "emit.json"].map(temp_path);
    let [ledger_s, csv_s, json_s] =
        [&ledger_path, &csv_path, &json_path].map(|p| p.display().to_string());

    let (out, err, ok) = dse(&[
        "--preset", "paper", "--quiet", "--csv", &csv_s, "--json", &json_s, "--trace", &ledger_s,
    ]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let stages: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    for stage in ["dse/emit/csv", "dse/emit/json"] {
        assert!(stages.iter().any(|p| p == stage), "no {stage} span: {stages:?}");
    }
    let counters = ledger.final_counters();
    assert_eq!(counters.get("sweep.points"), Some(&1440));
    assert_eq!(counters.get("eval.ticks"), Some(&1440), "eval.ticks != points");

    let (out, err, ok) = dse(&["trace", &ledger_s, "--check"]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("counter invariant (eval.ticks == sweep.points): holds"), "{out}");

    for path in [ledger_path, csv_path, json_path] {
        let _ = std::fs::remove_file(path);
    }
}

/// A ledger is written once per run: a rerun into the same path
/// overwrites it, like `--csv` and `--json` do.
#[test]
fn rerun_overwrites_the_ledger() {
    let ledger_path = temp_path("rerun.jsonl");
    let ledger_s = ledger_path.display().to_string();
    for _ in 0..2 {
        let (out, err, ok) = dse(&["--preset", "quick", "--quiet", "--trace", &ledger_s]);
        assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");
    }
    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let root = ledger.profile().into_iter().find(|s| s.path == "dse").expect("a dse root span");
    assert_eq!(root.calls, 1, "the second run appended to the first run's ledger");
    let _ = std::fs::remove_file(&ledger_path);
}

/// The ledger's writer and reader cannot drift: a traced run's file
/// holds every event kind, reads back with nothing skipped, and writes
/// back out byte for byte.
#[test]
fn a_traced_ledger_round_trips_byte_for_byte() {
    let ledger_path = temp_path("round-trip.jsonl");
    let ledger_s = ledger_path.display().to_string();
    let (out, err, ok) = dse(&["--preset", "paper", "--quiet", "--trace", &ledger_s]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");
    let text = std::fs::read_to_string(&ledger_path).expect("ledger written");
    let ledger = ng_obs::Ledger::parse(&text);
    assert_eq!(ledger.skipped_lines, 0);
    for kind in ["sb", "se", "ctr"] {
        assert!(text.contains(&format!("{{\"ev\":\"{kind}\",")), "no {kind} event");
    }
    assert_eq!(ledger.to_string(), text);
    let _ = std::fs::remove_file(&ledger_path);
}

/// A missing ledger is a usage mistake (2), as a missing spec file is;
/// a file that records no run fails the audit (4) even with the
/// coverage floor waived.
#[test]
fn trace_rejects_a_missing_ledger_and_one_with_no_run() {
    let code = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
        out.status.code()
    };
    let missing = temp_path("missing.jsonl");
    let _ = std::fs::remove_file(&missing);
    assert_eq!(code(&["trace", &missing.display().to_string()]), Some(2));

    let empty = temp_path("empty.jsonl");
    std::fs::write(&empty, "").expect("write empty ledger");
    let empty_s = empty.display().to_string();
    assert_eq!(code(&["trace", &empty_s]), Some(0), "without --check the summary still prints");
    assert_eq!(code(&["trace", &empty_s, "--check", "--min-coverage", "0"]), Some(4));
    let _ = std::fs::remove_file(&empty);
}

/// `--metrics` records the run and prints the `dse trace` summary of it
/// to stderr: the same stages the `--trace` ledger of that run holds,
/// and stdout byte-identical to a run without it, except for the
/// wall-clock throughput line.
#[test]
fn metrics_prints_the_ledger_stages_and_leaves_stdout_alone() {
    let varying = |line: &&str| !line.starts_with("evaluation:");
    let ledger_path = temp_path("metrics.jsonl");
    let ledger_s = ledger_path.display().to_string();

    let (plain, err, ok) = dse(&["--preset", "quick", "--quiet"]);
    assert!(ok, "plain run failed:\n{err}");
    let (metered, err, ok) =
        dse(&["--preset", "quick", "--quiet", "--metrics", "--trace", &ledger_s]);
    assert!(ok, "--metrics run failed:\n{err}");
    let plain: Vec<&str> = plain.lines().filter(varying).collect();
    let metered: Vec<&str> = metered.lines().filter(varying).collect();
    assert_eq!(plain, metered, "--metrics changed stdout");

    let printed: Vec<&str> = err
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|first| *first == "dse" || first.starts_with("dse/"))
        .collect();
    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let recorded: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    assert!(recorded.iter().any(|p| p == "dse/sweep/evaluate"), "{recorded:?}");
    assert_eq!(printed, recorded, "--metrics stages differ from the ledger's:\n{err}");
    assert!(err.contains("spans: balanced"), "{err}");
    let _ = std::fs::remove_file(&ledger_path);
}

#[test]
fn trace_subcommand_exports_chrome_json() {
    let ledger_path = temp_path("chrome.jsonl");
    let chrome_path = temp_path("chrome.json");
    let _ = std::fs::remove_file(&ledger_path);
    let _ = std::fs::remove_file(&chrome_path);
    let ledger_s = ledger_path.display().to_string();
    let chrome_s = chrome_path.display().to_string();

    let (out, err, ok) = dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &ledger_s]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");
    let (out, err, ok) = dse(&["trace", &ledger_s, "--chrome", &chrome_s]);
    assert!(ok, "chrome export failed:\nstdout:\n{out}\nstderr:\n{err}");

    let trace = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    assert!(trace.trim_start().starts_with('['), "not a JSON array:\n{trace}");
    assert!(trace.trim_end().ends_with(']'), "not a JSON array:\n{trace}");
    assert!(trace.contains("\"ph\":\"B\"") && trace.contains("\"ph\":\"E\""));

    let _ = std::fs::remove_file(&ledger_path);
    let _ = std::fs::remove_file(&chrome_path);
}

/// `--quiet` is accepted and ignored: a run prints the same stdout with
/// and without it, except for the wall-clock throughput line, which
/// legitimately varies, and writes nothing to stderr either way.
#[test]
fn quiet_keeps_stdout_byte_identical() {
    let stdout = |args: &[&str]| -> Vec<String> {
        let (out, err, ok) = dse(args);
        assert!(ok, "{args:?} failed:\n{err}");
        assert_eq!(err, "", "{args:?} wrote to stderr");
        out.lines().filter(|line| !line.starts_with("evaluation:")).map(String::from).collect()
    };
    let plain = stdout(&["--preset", "quick"]);
    assert!(!plain.is_empty());
    assert_eq!(plain, stdout(&["--preset", "quick", "--quiet"]), "--quiet changed stdout");
}

/// Each sweep worker adds its range's points to `eval.ticks` once, after
/// its loop: at any thread count a traced sweep passes `dse trace
/// --check`, whose counter invariant (`eval.ticks == sweep.points`)
/// catches a skipped or doubled range. The coverage floor is waived
/// here; the default-floor tests above hold it.
#[test]
fn traced_sweeps_tick_every_point_once_at_any_thread_count() {
    let runs =
        [("paper", "1"), ("paper", "2"), ("paper", "3"), ("paper", "7"), ("guided-lanes", "7")];
    for (preset, threads) in runs {
        let ledger_path = temp_path(&format!("threads-{preset}-{threads}.jsonl"));
        let ledger_s = ledger_path.display().to_string();
        let (out, err, ok) =
            dse(&["--preset", preset, "--quiet", "--threads", threads, "--trace", &ledger_s]);
        assert!(ok, "{preset} --threads {threads} failed:\nstdout:\n{out}\nstderr:\n{err}");
        let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"]);
        assert!(ok, "{preset} --threads {threads}: trace --check failed:\n{out}\n{err}");
        assert!(out.contains("counter invariant (eval.ticks == sweep.points): holds"), "{out}");
        let _ = std::fs::remove_file(&ledger_path);
    }
}

/// A sweep builds the cross-app frontier once: `--json` writes the
/// frontier the sweep built, so a run with it makes exactly as many
/// frontier inserts as a run without it.
#[test]
fn json_reuses_the_reported_frontier() {
    let json_path = temp_path("inserts.json");
    let json_s = json_path.display().to_string();
    let inserts = |tag: &str, extra: &[&str]| -> u64 {
        let ledger_path = temp_path(&format!("inserts-{tag}.jsonl"));
        let _ = std::fs::remove_file(&ledger_path);
        let ledger_s = ledger_path.display().to_string();
        let mut args = vec!["--preset", "paper", "--quiet", "--trace", &ledger_s];
        args.extend_from_slice(extra);
        let (out, err, ok) = dse(&args);
        assert!(ok, "{tag} run failed:\nstdout:\n{out}\nstderr:\n{err}");
        let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
        let _ = std::fs::remove_file(&ledger_path);
        ledger.final_counters().get("frontier.inserts").copied().expect("frontier.inserts recorded")
    };
    let plain = inserts("plain", &[]);
    let with_json = inserts("json", &["--json", &json_s]);
    let _ = std::fs::remove_file(&json_path);
    assert!(plain > 0);
    assert_eq!(with_json, plain, "--json rebuilt the cross-app frontier");
}

/// The sweep's workers offer the same candidates to their frontiers in
/// the same order at every thread count, so a guided-lanes sweep's
/// frontier churn is pinned: the accepted offers (`frontier.inserts`)
/// and the evictions (`frontier.prunes`) of every worker and of the
/// range-order merge, for the cross-app frontier and, with `--per-app`,
/// each app's.
#[test]
fn guided_lanes_frontier_churn_is_pinned() {
    let runs: [(&[&str], u64, u64); 4] = [
        (&["--threads", "1"], 232, 155),
        (&["--threads", "2"], 349, 210),
        (&["--threads", "7"], 731, 337),
        (&["--per-app", "--threads", "2"], 1663, 1079),
    ];
    for (extra, inserts, prunes) in runs {
        let ledger_path = temp_path(&format!("churn-{}.jsonl", extra.join("")));
        let ledger_s = ledger_path.display().to_string();
        let mut args = vec!["--preset", "guided-lanes", "--quiet", "--trace", &ledger_s];
        args.extend_from_slice(extra);
        let (out, err, ok) = dse(&args);
        assert!(ok, "{extra:?} failed:\nstdout:\n{out}\nstderr:\n{err}");
        let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
        let _ = std::fs::remove_file(&ledger_path);
        let counters = ledger.final_counters();
        let churn = [counters.get("frontier.inserts"), counters.get("frontier.prunes")];
        assert_eq!(churn, [Some(&inserts), Some(&prunes)], "{extra:?}");
    }
}
