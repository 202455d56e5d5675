//! `dse` — explore the NGPC design space from the command line.
//!
//! ```text
//! dse --preset paper                        # the flagship 1440-point sweep
//! dse --preset paper --max-area 3 --max-power 5
//! dse --spec sweep.toml --json out.json --csv out.csv
//! dse --preset quick --per-app --threads 4
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use ng_dse::report::{describe_constraints, write_report};
use ng_dse::spec::{Axis, AXES};
use ng_dse::{ArchPoint, SweepEngine, SweepSpec, MAX_THREADS};

const USAGE: &str = "\
dse — NGPC design-space exploration with Pareto frontier extraction

USAGE:
    dse [--preset NAME | --spec FILE.toml] [OPTIONS]
    dse trace LEDGER.jsonl [--chrome OUT.json] [--check] [--min-coverage P]

SPEC:
    --preset NAME        paper | quick | clocks | resolutions | mac-arrays |
                         guided-lanes (default: paper)
    --spec FILE          load a sweep spec from a TOML file
    --apps LIST          override app axis, e.g. nerf,gia
    --encodings LIST     override encoding axis, e.g. hashgrid,densegrid
    --nfp-units LIST     override NFP-count axis, e.g. 8,16,32,64
    --clocks LIST        override clock axis (GHz), e.g. 0.5,1.0,2.0
    --pixels LIST        override resolution axis (pixels per frame)
    --sram-kb LIST       override grid-SRAM axis (KiB per engine)
    --banks LIST         override SRAM bank axis (powers of two)
    --engines LIST       override encoding-engine-count axis, e.g. 8,16,32
    --mac-rows LIST      override MAC-array row axis, e.g. 32,64,128
    --mac-cols LIST      override MAC-array column axis, e.g. 32,64,128
    --lanes LIST         override query-lanes-per-engine axis, e.g. 1,2,4
    --fifo LIST          override input-FIFO-depth axis, e.g. 2,8,64

CONSTRAINTS (filter the reported frontier, not the evaluation):
    --max-area PCT       keep architectures with area ≤ PCT% of the GPU die
    --max-power PCT      keep architectures with power ≤ PCT% of GPU TDP
    --min-speedup X      keep architectures with cross-app speedup ≥ X

EXECUTION:
    --threads N          worker threads, 1 to 256 (default: all cores)
    --no-cache           accepted and ignored: every run evaluates every
                         point in memory and writes only the files it
                         is asked for
    --quiet              accepted and ignored: stderr carries only
                         errors and the --metrics summary

OBSERVABILITY:
    --trace PATH         record a JSONL run ledger (spans, counters) and
                         write it to PATH after the run (overwrites)
    --metrics            record the run and print the `dse trace`
                         summary of it to stderr

    dse trace LEDGER     summarize a recorded ledger: per-stage profile
                         table, final counters, balance/invariant
                         verdict
      --chrome OUT.json  also export the ledger as a Chrome trace
                         (chrome://tracing, Perfetto)
      --check            exit non-zero on a ledger with no root span or
                         with unparseable lines, unbalanced spans, a
                         counter invariant violation, or stage coverage
                         < 95% of the root span's wall time
      --min-coverage P   coverage floor for --check, a percent in
                         0..=100; default 95. Use 0 on very short runs,
                         where fixed startup costs dominate the root span

OUTPUT:
    --top N              frontier rows to print (default: 16)
    --per-app            also print each app's own Pareto frontier
    --csv PATH           write every evaluated point as CSV
    --json PATH          write spec + stats + points + frontier as JSON
    --check-headline     exit non-zero if the paper's NGPC-64 NFP
                         (hashgrid, 1 GHz, 1MB/8, 64x64 MACs, 16 engines,
                         1 lane, 64-deep FIFO) is NOT on the cross-app
                         Pareto frontier, or the space lacks it
    --help               this text

EXIT CODES:
    0    success (a reader that closes stdout early, as
         `dse ... | head` does, only cuts the report short)
    1    run failed (I/O, failed paper check)
    2    usage or spec mistake (flags, spec file, ledger file,
         constraint bounds) — retrying the same invocation cannot help
    4    a --check audit (trace --check) failed
";

/// Exit code of a usage or spec mistake.
const EXIT_USAGE: u8 = 2;
/// Exit code of a `--check` audit that found defects.
const EXIT_CHECK_FAILED: u8 = 4;

/// A CLI failure carrying the process exit code. Plain `String` errors
/// convert at code 1 (generic failure); an empty message prints
/// nothing.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

/// A usage/spec mistake: retrying the same invocation cannot help.
fn usage_err(message: String) -> CliError {
    CliError { code: EXIT_USAGE, message }
}

/// A `--check` audit found defects in the artifact it examined.
fn check_err(message: String) -> CliError {
    CliError { code: EXIT_CHECK_FAILED, message }
}

/// A write to stdout failed for a reason other than a closed pipe.
fn stdout_err(e: io::Error) -> CliError {
    CliError { code: 1, message: format!("cannot write to stdout: {e}") }
}

/// The locked stdout every report line goes through. A reader that
/// closed the pipe early (`dse ... | head`) wants no more output: from
/// the first broken-pipe write on, writes are dropped silently. The run
/// goes on, so its checks and file writes still decide the exit code.
struct Stdout {
    inner: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn lock() -> Self {
        Stdout { inner: io::stdout().lock(), closed: false }
    }

    /// `result`, with a broken pipe turned into success that closes
    /// this handle.
    fn unless_closed<T>(&mut self, result: io::Result<T>, closed: T) -> io::Result<T> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(closed)
            }
            result => result,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let result = self.inner.write(buf);
        self.unless_closed(result, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let result = self.inner.flush();
        self.unless_closed(result, ())
    }
}

/// Create `path` and hand it to `write` behind a `BufWriter`.
fn write_file(
    path: &str,
    write: impl FnOnce(BufWriter<File>) -> io::Result<()>,
) -> Result<(), CliError> {
    File::create(path)
        .and_then(|file| write(BufWriter::new(file)))
        .map_err(|e| format!("cannot write {path}: {e}").into())
}

/// `dse`'s bound flags and the spec-file keys of the bounds they set
/// through [`ng_dse::Constraints::set`].
const BOUND_FLAGS: [(&str, &str); 3] = [
    ("--max-area", "max_area_pct"),
    ("--max-power", "max_power_pct"),
    ("--min-speedup", "min_speedup"),
];

struct Cli {
    /// The sweep, with its bounds in `spec.constraints`.
    spec: SweepSpec,
    threads: Option<usize>,
    top: usize,
    per_app: bool,
    csv: Option<String>,
    json: Option<String>,
    check_headline: bool,
    trace: Option<String>,
    metrics: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut preset: Option<String> = None;
    let mut spec_file: Option<String> = None;
    let mut cli = Cli {
        spec: SweepSpec::paper(),
        threads: None,
        top: 16,
        per_app: false,
        csv: None,
        json: None,
        check_headline: false,
        trace: None,
        metrics: false,
    };
    // Axis and bound overrides are applied after the base spec is chosen.
    let mut overrides: Vec<(&Axis, String)> = Vec::new();
    let mut bounds: Vec<(&str, &str, String)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        if let Some(axis) = AXES.iter().find(|a| a.flag == arg) {
            overrides.push((axis, value(arg)?));
            continue;
        }
        if let Some(&(flag, key)) = BOUND_FLAGS.iter().find(|(flag, _)| flag == arg) {
            bounds.push((flag, key, value(flag)?));
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--preset" => preset = Some(value("--preset")?),
            "--spec" => spec_file = Some(value("--spec")?),
            "--threads" => {
                let n: usize = value(arg)?.parse().map_err(|_| "--threads: not a number")?;
                if !(1..=MAX_THREADS).contains(&n) {
                    return Err(format!("--threads: need 1 to {MAX_THREADS} workers"));
                }
                cli.threads = Some(n);
            }
            // No-ops, accepted so existing scripts keep working.
            "--no-cache" | "--quiet" => {}
            "--trace" => cli.trace = Some(value(arg)?),
            "--metrics" => cli.metrics = true,
            "--top" => cli.top = value(arg)?.parse().map_err(|_| "--top: not a number")?,
            "--per-app" => cli.per_app = true,
            "--csv" => cli.csv = Some(value(arg)?),
            "--json" => cli.json = Some(value(arg)?),
            "--check-headline" => cli.check_headline = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if preset.is_some() && spec_file.is_some() {
        return Err("--preset and --spec are mutually exclusive".to_string());
    }
    if let Some(name) = preset {
        cli.spec = SweepSpec::preset(&name).ok_or_else(|| {
            format!("unknown preset `{name}` (have: {})", SweepSpec::PRESETS.join(", "))
        })?;
    } else if let Some(path) = spec_file {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        cli.spec = SweepSpec::from_toml_str(&text).map_err(|e| e.to_string())?;
    }
    // A spec file may carry its own constraints; the flags override them.
    for (flag, key, text) in bounds {
        cli.spec.constraints.set(key, &text).map_err(|e| format!("{flag}: {e}"))?;
    }
    for (axis, list) in overrides {
        axis.set_list(&mut cli.spec, &list)?;
    }
    // The overrides are unchecked: reject a bad spec before the run
    // creates its `--trace` file.
    cli.spec.validate().map_err(|e| e.to_string())?;
    Ok(Some(cli))
}

/// Whether the paper's NGPC-64 headline configuration survived frontier
/// extraction, read off the constrained `frontier` the report printed.
/// Returns `None` when the spec does not contain the headline
/// organisation (axis overrides can sweep it away entirely),
/// `Some(on_frontier)` otherwise.
fn headline_check(
    out: &mut impl Write,
    spec: &SweepSpec,
    frontier: &[ArchPoint],
) -> io::Result<Option<bool>> {
    if !spec.contains_paper_organisation() {
        return Ok(None);
    }
    let headline = frontier.iter().find(|a| a.is_paper_organisation());
    match headline {
        Some(a) => writeln!(
            out,
            "\npaper check: NGPC-64 (hashgrid, 1 GHz, 1MB/8-bank, 64x64/16e) is on the frontier — \
             {:.2}x avg, {:.2}% area, {:.2}% power (paper: 39.04x, ~36.2%, ~22.1%)",
            a.avg_speedup, a.area_pct_of_gpu, a.power_pct_of_gpu
        )?,
        None => writeln!(
            out,
            "\npaper check: NGPC-64 headline point is NOT on the frontier under constraints [{}]",
            describe_constraints(&spec.constraints)
        )?,
    }
    Ok(Some(headline.is_some()))
}

/// `dse trace LEDGER.jsonl`: summarize a recorded run ledger — the
/// per-stage profile, final counters, and the balance/invariant
/// verdict — with optional Chrome trace export and CI-gate mode.
fn run_trace(args: &[String]) -> Result<(), CliError> {
    let mut out = Stdout::lock();
    let mut ledger_path: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut check = false;
    let mut min_coverage = 95.0_f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return write!(out, "{USAGE}").map_err(stdout_err),
            "--chrome" => {
                chrome = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage_err("--chrome needs a path".to_string()))?,
                )
            }
            "--check" => check = true,
            "--min-coverage" => {
                let pct = it
                    .next()
                    .ok_or_else(|| usage_err("--min-coverage needs a percent".to_string()))?;
                min_coverage =
                    pct.parse().ok().filter(|p| (0.0..=100.0).contains(p)).ok_or_else(|| {
                        usage_err(format!("--min-coverage: `{pct}` is not a percent in 0..=100"))
                    })?;
            }
            other if !other.starts_with("--") && ledger_path.is_none() => {
                ledger_path = Some(other.to_string())
            }
            other => {
                return Err(usage_err(format!("trace: unexpected argument `{other}` (try --help)")))
            }
        }
    }
    let path =
        ledger_path.ok_or_else(|| usage_err("trace: need a LEDGER.jsonl path".to_string()))?;
    let ledger =
        ng_obs::Ledger::read(Path::new(&path)).map_err(|e| usage_err(format!("{path}: {e}")))?;
    let verdict = ledger.check();
    write!(
        out,
        "ledger {path}: {} events, {} skipped line(s)\n{}",
        ledger.events.len(),
        ledger.skipped_lines,
        summary(&ledger, &verdict)
    )
    .map_err(stdout_err)?;

    if let Some(chrome_out) = chrome {
        std::fs::write(&chrome_out, ledger.chrome_trace())
            .map_err(|e| format!("cannot write {chrome_out}: {e}"))?;
        writeln!(out, "wrote Chrome trace to {chrome_out} (load in chrome://tracing or Perfetto)")
            .map_err(stdout_err)?;
    }
    if check && !verdict.ok(min_coverage / 100.0) {
        return Err(check_err(format!(
            "trace --check failed: root span {}, {} skipped line(s), coverage {:.1}% \
             (need >= {min_coverage}%), {} unbalanced span(s), counter invariant {}",
            if verdict.root.is_some() { "recorded" } else { "missing" },
            verdict.skipped_lines,
            100.0 * verdict.coverage,
            verdict.unbalanced.len(),
            if verdict.invariant_violated() { "violated" } else { "holds" },
        )));
    }
    Ok(())
}

/// What `dse trace` and `--metrics` print about a recorded run: the
/// per-stage profile, the final counters and the health verdict, all
/// but the counters from `ledger`'s one [`ng_obs::Ledger::check`].
fn summary(ledger: &ng_obs::Ledger, verdict: &ng_obs::LedgerCheck) -> String {
    let mut out = String::new();
    let profile = &verdict.profile;
    if profile.is_empty() {
        out.push_str("no spans recorded\n");
    } else {
        let root_total = verdict.root.as_ref().map(|(_, t)| *t).unwrap_or(0);
        let rows: Vec<Vec<String>> = profile
            .iter()
            .map(|s| {
                let share = if root_total > 0 {
                    format!("{:.1}", 100.0 * s.total_us as f64 / root_total as f64)
                } else {
                    "-".to_string()
                };
                vec![
                    s.path.clone(),
                    s.calls.to_string(),
                    format!("{:.2}", s.total_us as f64 / 1000.0),
                    format!("{:.2}", s.self_us as f64 / 1000.0),
                    share,
                ]
            })
            .collect();
        out.push('\n');
        out.push_str(&ng_dse::report::render_table(
            &["stage", "calls", "total ms", "self ms", "% of root"],
            &rows,
        ));
    }

    let counters = ledger.final_counters();
    if !counters.is_empty() {
        out.push_str("\ncounters (final values):\n");
        for (name, val) in &counters {
            let _ = writeln!(out, "  {name} = {val}");
        }
    }

    out.push('\n');
    let _ = match verdict.root {
        Some((ref root, total)) => writeln!(
            out,
            "root span: {root} ({:.2} ms); stage coverage {:.1}%",
            total as f64 / 1000.0,
            100.0 * verdict.coverage
        ),
        None => writeln!(out, "root span: none recorded"),
    };
    let _ = if verdict.unbalanced.is_empty() {
        writeln!(out, "spans: balanced")
    } else {
        writeln!(out, "spans: UNBALANCED — {}", verdict.unbalanced.join(", "))
    };
    let _ = match verdict.sweep {
        None => writeln!(out, "counter invariant (eval.ticks == sweep.points): no sweep recorded"),
        Some((ticks, points)) if ticks == points => {
            writeln!(out, "counter invariant (eval.ticks == sweep.points): holds ({points} points)")
        }
        Some((ticks, points)) => writeln!(
            out,
            "counter invariant VIOLATED: eval.ticks ({ticks}) != sweep.points ({points})"
        ),
    };
    out
}

fn run(args: &[String]) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
    }
    let Some(cli) = parse_args(args).map_err(usage_err)? else {
        return write!(Stdout::lock(), "{USAGE}").map_err(stdout_err);
    };
    // Create the ledger file before any work, so a bad path fails the
    // run at once; it is written only after the root span has closed.
    let trace_file = match &cli.trace {
        Some(path) => {
            Some((path, std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?))
        }
        None => None,
    };
    let record = trace_file.is_some() || cli.metrics;
    if record {
        ng_obs::sink::enable();
    }
    let result = {
        let _root = ng_obs::span("dse");
        run_mode(&cli)
    };
    if !record {
        return result;
    }
    let ledger = ng_obs::sink::finish();
    if cli.metrics {
        eprint!("{}", summary(&ledger, &ledger.check()));
    }
    let written = match trace_file {
        Some((path, mut file)) => file
            .write_all(ledger.to_string().as_bytes())
            .map_err(|e| format!("--trace {path}: {e}").into()),
        None => Ok(()),
    };
    result.and(written)
}

/// Everything between the `dse` root span's open and close: mode
/// dispatch, reporting and emission. Every line of stdout goes through
/// one [`Stdout`] handle.
fn run_mode(cli: &Cli) -> Result<(), CliError> {
    let mut engine = SweepEngine::new();
    if let Some(threads) = cli.threads {
        engine = engine.with_threads(threads);
    }
    let sweep = engine
        .run(&cli.spec, &cli.spec.constraints, cli.per_app)
        .map_err(|e| usage_err(e.to_string()))?;
    // Table rendering is real work on wide frontiers — span it so the
    // ledger's coverage accounting sees it.
    let report_span = ng_obs::span("report");
    let mut out = Stdout::lock();
    let constraints = &cli.spec.constraints;
    write_report(&mut out, &cli.spec, &sweep.stats, &sweep.frontiers, constraints, cli.top)
        .map_err(stdout_err)?;
    let judge_headline =
        cli.spec.name == "paper" || cli.spec.name == "mac-arrays" || cli.check_headline;
    let headline = if judge_headline {
        headline_check(&mut out, &cli.spec, &sweep.frontiers.cross_app).map_err(stdout_err)?
    } else {
        None
    };
    if cli.check_headline {
        match headline {
            Some(true) => {}
            Some(false) => {
                return Err("--check-headline: the paper's NGPC-64 point dropped off the \
                            Pareto frontier"
                    .to_string()
                    .into())
            }
            None => {
                return Err("--check-headline: the space does not contain the paper's NGPC-64 \
                            point"
                    .to_string()
                    .into())
            }
        }
    }
    drop(report_span);

    if let Some(path) = &cli.csv {
        let _span = ng_obs::span("emit/csv");
        write_file(path, |file| sweep.write_csv(file))?;
        writeln!(out, "wrote {} points to {path}", sweep.stats.total_points).map_err(stdout_err)?;
    }
    if let Some(path) = &cli.json {
        let _span = ng_obs::span("emit/json");
        write_file(path, |file| sweep.write_json(file))?;
        writeln!(out, "wrote outcome JSON to {path}").map_err(stdout_err)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("dse: {}", e.message);
            }
            ExitCode::from(e.code)
        }
    }
}
