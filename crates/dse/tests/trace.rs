//! End-to-end checks of the observability surface: a traced
//! quick-preset run must produce a balanced, invariant-satisfying
//! ledger; a traced multi-block sweep must show its factor-table stage
//! and count every point once; `dse trace` must summarize and export
//! it, and reject a coverage floor that is not a percent; and the
//! progress meter must never leak into stdout (`--quiet` byte-parity).

use std::path::PathBuf;
use std::process::Command;

fn dse(args: &[&str], envs: &[(&str, &str)]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.args(args).env_remove(ng_obs::progress::PROGRESS_ENV);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("dse runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ng-dse-trace-{tag}-{}", std::process::id()))
}

#[test]
fn traced_quick_run_balances_spans_and_satisfies_counter_invariant() {
    let ledger_path = temp_path("quick.jsonl");
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_s = ledger_path.display().to_string();

    let (out, err, ok) =
        dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &ledger_s], &[]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    assert_eq!(ledger.skipped_lines, 0, "ledger contains malformed lines");
    let verdict = ledger.check();
    assert!(verdict.unbalanced.is_empty(), "unbalanced spans: {:?}", verdict.unbalanced);
    assert!(
        verdict.invariant_violations.is_empty(),
        "counter invariant violated: {:?}",
        verdict.invariant_violations
    );
    assert!(verdict.sweeping_pids >= 1, "no process recorded sweep counters");

    // Check the invariant directly from the raw counters too, rather
    // than trusting the checker alone.
    let counters = ledger.final_counters();
    let get = |name: &str| {
        counters.iter().find(|((_, n), _)| n == name).map(|(_, v)| *v).unwrap_or_default()
    };
    let points = get("sweep.points");
    assert!(points > 0, "traced run evaluated no points");
    assert_eq!(get("eval.ticks"), points, "eval.ticks != points");

    // The `dse trace --check` subcommand agrees, on its own exit code.
    // The coverage floor is waived: on a sub-millisecond quick sweep,
    // fixed startup costs dominate the root span (the >= 95% bar is
    // enforced on the paper preset by the CI trace-smoke step).
    let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"], &[]);
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

/// The sweep builds its factor tables under `evaluate/tables`, and its
/// workers add `eval.ticks` once per block of points: over a sweep
/// whose two chunks each span several blocks and an app boundary, the
/// ticks must still sum to the point count.
#[test]
fn traced_sweep_shows_the_table_stage_and_ticks_every_point_once() {
    let ledger_path = temp_path("tables.jsonl");
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_s = ledger_path.display().to_string();

    // 4 apps x 3 encodings x 10 NFP counts x 3 SRAM sizes x 3 bank
    // counts x 3 engine counts x 3 lane counts = 9,720 points.
    let (out, err, ok) = dse(
        &[
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
        ],
        &[],
    );
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let stages: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    assert!(
        stages.iter().any(|p| p == "dse/sweep/evaluate/tables"),
        "no evaluate/tables span: {stages:?}"
    );
    let counters = ledger.final_counters();
    let get = |name: &str| {
        counters.iter().find(|((_, n), _)| n == name).map(|(_, v)| *v).unwrap_or_default()
    };
    assert_eq!(get("sweep.points"), 9720);
    assert_eq!(get("eval.ticks"), 9720, "eval.ticks != points");

    let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"], &[]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("dse/sweep/evaluate/tables"), "stage table lacks the tables:\n{out}");
    assert!(out.contains("counter invariant (eval.ticks == sweep.points): holds"), "{out}");

    let _ = std::fs::remove_file(&ledger_path);
}

/// A guided search builds the same factor tables under `search/tables`
/// and ticks once per evaluated point; it sweeps nothing, so the sweep
/// invariant has no process to hold for.
#[test]
fn traced_search_shows_the_table_stage_and_ticks_every_evaluation() {
    let ledger_path = temp_path("search.jsonl");
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_s = ledger_path.display().to_string();

    let (out, err, ok) = dse(
        &["--search", "--preset", "paper", "--budget", "400", "--quiet", "--trace", &ledger_s],
        &[],
    );
    assert!(ok, "traced search failed:\nstdout:\n{out}\nstderr:\n{err}");

    let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
    let stages: Vec<String> = ledger.profile().into_iter().map(|s| s.path).collect();
    for stage in ["dse/search/tables", "dse/search/drive"] {
        assert!(stages.iter().any(|p| p == stage), "no {stage} span: {stages:?}");
    }
    let counters = ledger.final_counters();
    let ticks = counters.iter().find(|((_, n), _)| n == "eval.ticks").map(|(_, v)| *v);
    // "guided search `paper` (hill): N of 1440 points evaluated ..."
    let evaluations = out.split("): ").nth(1).and_then(|rest| rest.split(' ').next());
    let evaluations = evaluations.and_then(|n| n.parse::<u64>().ok());
    assert!(evaluations.is_some_and(|n| n > 0 && n <= 400), "{out}");
    assert_eq!(ticks, evaluations, "eval.ticks != evaluations:\n{out}");
    assert!(counters.iter().all(|((_, n), _)| n != "sweep.points"));

    let (out, err, ok) = dse(&["trace", &ledger_s, "--check", "--min-coverage", "0"], &[]);
    assert!(ok, "trace --check failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("holds for 0 sweeping process(es)"), "{out}");

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

    let (out, err, ok) =
        dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &ledger_s], &[]);
    assert!(ok, "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");
    let (out, err, ok) = dse(&["trace", &ledger_s, "--chrome", &chrome_s], &[]);
    assert!(ok, "chrome export failed:\nstdout:\n{out}\nstderr:\n{err}");

    let trace = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    assert!(trace.trim_start().starts_with('['), "not a JSON array:\n{trace}");
    assert!(trace.trim_end().ends_with(']'), "not a JSON array:\n{trace}");
    assert!(trace.contains("\"ph\":\"B\"") && trace.contains("\"ph\":\"E\""));

    let _ = std::fs::remove_file(&ledger_path);
    let _ = std::fs::remove_file(&chrome_path);
}

/// The progress meter draws only to stderr: stdout from a run with the
/// meter forced on must be byte-identical to a `--quiet` run, except
/// for the wall-clock throughput line, which legitimately varies.
#[test]
fn quiet_keeps_stdout_byte_identical() {
    let varying = |line: &&str| !line.starts_with("evaluation:");

    let (loud, err, ok) =
        dse(&["--preset", "quick", "--no-cache"], &[(ng_obs::progress::PROGRESS_ENV, "1")]);
    assert!(ok, "run with meter failed:\n{err}");
    assert!(err.contains('\r'), "forced-on meter never drew to stderr:\n{err}");

    let (quiet, err, ok) = dse(&["--preset", "quick", "--no-cache", "--quiet"], &[]);
    assert!(ok, "quiet run failed:\n{err}");
    assert!(!err.contains('\r'), "--quiet still drew a progress line:\n{err}");

    let loud: Vec<&str> = loud.lines().filter(varying).collect();
    let quiet: Vec<&str> = quiet.lines().filter(varying).collect();
    assert_eq!(loud, quiet, "stdout differs with/without the progress meter");
}

/// A sweep folds its outcome and builds the cross-app frontier once:
/// `--json` reuses the frontier the report printed, so a run with it
/// makes exactly as many frontier inserts as a run without it.
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
        let (out, err, ok) = dse(&args, &[]);
        assert!(ok, "{tag} run failed:\nstdout:\n{out}\nstderr:\n{err}");
        let ledger = ng_obs::Ledger::read(&ledger_path).expect("ledger written");
        let _ = std::fs::remove_file(&ledger_path);
        ledger
            .final_counters()
            .into_iter()
            .find(|((_, name), _)| name == "frontier.inserts")
            .map(|(_, v)| v)
            .expect("frontier.inserts recorded")
    };
    let plain = inserts("plain", &[]);
    let with_json = inserts("json", &["--json", &json_s]);
    let _ = std::fs::remove_file(&json_path);
    assert!(plain > 0);
    assert_eq!(with_json, plain, "--json rebuilt the cross-app frontier");
}
