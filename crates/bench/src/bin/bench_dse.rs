//! `bench_dse` — the tracked perf harness of the DSE pipeline.
//!
//! Times each tracked preset's sweep (every point evaluated in memory,
//! as `dse` runs it) [`RUNS`] times in one process with `ng-obs`
//! recording off and [`RUNS`] times with it on, alternating, and the
//! budgeted guided searcher over the exploded guided-lanes space the
//! same way. It writes a machine-readable `BENCH_dse.json`: one entry
//! per preset (`{preset, points, runs, median_s, min_s, max_s,
//! median_points_per_sec, recording_on_median_s, counters_per_run}`)
//! for the paper, mac-arrays and guided-lanes presets, a `guided` entry
//! for the searcher (`{space_points, budget, evaluations, runs,
//! median_s, min_s, max_s, recording_on_median_s,
//! recovered_headline}`), and a closing `stage_profile_us` breakdown of
//! where the recording-on runs' wall time went (per span path, summed
//! over the runs, from their ledgers). The row medians are recording
//! off. `counters_per_run` holds the `ng-obs` counter growth of one
//! sweep.
//!
//! ```text
//! bench_dse [--quick] [--check-overhead] [--out PATH]
//! ```
//!
//! `--quick` benches the 16-point quick preset instead of the tracked
//! presets; `--check-overhead` fails if the paper preset's median
//! throughput with recording on fell below half of its median with
//! recording off, both measured in this run — a deliberately generous
//! floor (CI machines are noisy) whose job is to catch the
//! instrumentation becoming accidentally hot, not 5% regressions.

use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ng_dse::{SearchSpec, Searcher, SweepEngine, SweepSpec};

/// Timed repetitions of every row.
const RUNS: usize = 7;

/// Median, minimum and maximum of a row's run times, in seconds.
struct Spread {
    median_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Spread {
    fn of(mut times: Vec<Duration>) -> Self {
        times.sort_unstable();
        Spread {
            median_s: times[times.len() / 2].as_secs_f64(),
            min_s: times[0].as_secs_f64(),
            max_s: times[times.len() - 1].as_secs_f64(),
        }
    }

    /// The spread's JSON fields, each line after the first indented by
    /// `indent`.
    fn json(&self, indent: &str) -> String {
        format!(
            "\"runs\": {RUNS},\n{indent}\"median_s\": {},\n{indent}\"min_s\": {},\n{indent}\
             \"max_s\": {}",
            self.median_s, self.min_s, self.max_s
        )
    }

    fn line(&self) -> String {
        format!(
            "{:8.2} ms median  [{:.2}–{:.2}] over {RUNS} runs",
            self.median_s * 1e3,
            self.min_s * 1e3,
            self.max_s * 1e3
        )
    }
}

/// Time `run` [`RUNS`] times with recording off and [`RUNS`] times with
/// it on, alternating (off first, so a first-run cost lands on the
/// off side), and append each recorded run's ledger to `ledger`.
/// Returns the (off, on) spreads.
fn alternate(ledger: &mut String, mut run: impl FnMut() -> Duration) -> (Spread, Spread) {
    let mut off = Vec::with_capacity(RUNS);
    let mut on = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        off.push(run());
        ng_obs::sink::enable();
        on.push(run());
        ledger.push_str(&ng_obs::sink::finish());
    }
    (Spread::of(off), Spread::of(on))
}

struct PresetBench {
    name: String,
    points: usize,
    spread: Spread,
    recording_on: Spread,
    /// Counter growth during one sweep, `(name, delta)` in name order —
    /// the observability cross-check that the timing numbers measured
    /// what they claim (e.g. `eval.ticks == points`).
    counters_per_run: Vec<(String, u64)>,
}

impl PresetBench {
    fn median_points_per_sec(&self) -> f64 {
        self.points as f64 / self.spread.median_s
    }
}

fn bench_preset(spec: &SweepSpec, ledger: &mut String) -> PresetBench {
    let mut counters_per_run = None;
    let (spread, recording_on) = alternate(ledger, || {
        let before = ng_obs::counter::snapshot();
        let started = Instant::now();
        let outcome = SweepEngine::new().run(spec).expect("preset specs validate");
        let elapsed = started.elapsed();
        assert_eq!(outcome.stats.evaluated, spec.point_count());
        counters_per_run.get_or_insert_with(|| {
            ng_obs::counter::snapshot()
                .delta_since(&before)
                .iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect()
        });
        elapsed
    });
    let bench = PresetBench {
        name: spec.name.clone(),
        points: spec.point_count(),
        spread,
        recording_on,
        counters_per_run: counters_per_run.expect("RUNS > 0"),
    };
    println!("[{}]", bench.name);
    println!("sweep:  {}  ({} points)", bench.spread.line(), bench.points);
    println!("traced: {}", bench.recording_on.line());
    bench
}

/// The guided search over the exploded preset.
struct GuidedBench {
    space_points: usize,
    budget: usize,
    evaluations: usize,
    spread: Spread,
    recording_on: Spread,
    recovered_headline: bool,
}

fn bench_guided(ledger: &mut String) -> GuidedBench {
    let spec = SweepSpec::guided_lanes();
    let search = SearchSpec::for_space(&spec);
    let mut first = None;
    let (spread, recording_on) = alternate(ledger, || {
        let outcome = Searcher::new().run(&spec, &search).expect("preset validates");
        let wall = outcome.stats.wall;
        first.get_or_insert(outcome);
        wall
    });
    let outcome = first.expect("RUNS > 0");
    let recovered = outcome.frontier.iter().any(|a| a.is_paper_organisation());
    let stats = &outcome.stats;
    let bench = GuidedBench {
        space_points: stats.space_points,
        budget: stats.budget,
        evaluations: stats.evaluations,
        spread,
        recording_on,
        recovered_headline: recovered,
    };
    println!("[guided-lanes --search]");
    println!(
        "search: {}  ({} of {} points evaluated, {:.2}% of the space, headline {})",
        bench.spread.line(),
        stats.evaluations,
        stats.space_points,
        100.0 * stats.budget_fraction_used(),
        if recovered { "recovered" } else { "MISSED" },
    );
    println!("traced: {}", bench.recording_on.line());
    bench
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check_overhead = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-overhead" => check_overhead = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("bench_dse: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench_dse: unknown argument `{other}`");
                eprintln!("usage: bench_dse [--quick] [--check-overhead] [--out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    // GPU-model calibration is memoized per process, so only the
    // *first* preset's first sweep pays it (~0.02 ms). Keep `paper`
    // first so the trajectory stays comparable across PRs.
    let specs: Vec<SweepSpec> = if quick {
        vec![SweepSpec::quick()]
    } else {
        vec![SweepSpec::paper(), SweepSpec::mac_arrays(), SweepSpec::guided_lanes()]
    };
    // The tracked repo-root trajectory covers the full presets only; a
    // casual --quick run must not silently overwrite it.
    let out_path = out_path.unwrap_or_else(|| {
        if quick {
            "BENCH_dse_quick.json".to_string()
        } else {
            "BENCH_dse.json".to_string()
        }
    });

    let mut ledger = String::new();
    let benches: Vec<PresetBench> = specs.iter().map(|s| bench_preset(s, &mut ledger)).collect();
    // The guided searcher is benched on the full runs only (its space
    // is a full preset; a --quick run has nothing to search).
    let guided = if quick { None } else { Some(bench_guided(&mut ledger)) };

    let entries: Vec<String> = benches
        .iter()
        .map(|b| {
            let counters: Vec<String> = b
                .counters_per_run
                .iter()
                .map(|(name, v)| format!("        \"{name}\": {v}"))
                .collect();
            format!(
                "    {{\n      \"preset\": \"{}\",\n      \"points\": {},\n      {},\n      \
                 \"median_points_per_sec\": {},\n      \"recording_on_median_s\": {},\n      \
                 \"counters_per_run\": {{\n{}\n      }}\n    }}",
                b.name,
                b.points,
                b.spread.json("      "),
                b.median_points_per_sec(),
                b.recording_on.median_s,
                counters.join(",\n"),
            )
        })
        .collect();
    let guided_json = guided
        .as_ref()
        .map(|g| {
            format!(
                ",\n  \"guided\": {{\n    \"preset\": \"guided-lanes\",\n    \
                 \"space_points\": {},\n    \"budget\": {},\n    \"evaluations\": {},\n    \
                 {},\n    \"recording_on_median_s\": {},\n    \"recovered_headline\": {}\n  }}",
                g.space_points,
                g.budget,
                g.evaluations,
                g.spread.json("    "),
                g.recording_on.median_s,
                g.recovered_headline,
            )
        })
        .unwrap_or_default();
    // Where the recording-on runs' wall time went, per span path — the
    // stage breakdown `dse trace` prints, from the same ledgers.
    let stage_rows: Vec<String> = ng_obs::Ledger::parse(&ledger)
        .profile()
        .iter()
        .map(|s| {
            format!(
                "    \"{}\": {{ \"calls\": {}, \"total_us\": {}, \"self_us\": {} }}",
                s.path, s.calls, s.total_us, s.self_us
            )
        })
        .collect();
    let stage_json = if stage_rows.is_empty() {
        String::new()
    } else {
        format!(",\n  \"stage_profile_us\": {{\n{}\n  }}", stage_rows.join(",\n"))
    };
    let json = format!(
        "{{\n  \"presets\": [\n{}\n  ]{}{}\n}}\n",
        entries.join(",\n"),
        guided_json,
        stage_json
    );
    if let Err(e) = fs::write(&out_path, &json) {
        eprintln!("bench_dse: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if check_overhead {
        let Some(paper) = benches.iter().find(|b| b.name == "paper") else {
            eprintln!("bench_dse: --check-overhead needs the `paper` preset (drop --quick)");
            return ExitCode::FAILURE;
        };
        let off = paper.median_points_per_sec();
        let on = paper.points as f64 / paper.recording_on.median_s;
        if on < off * 0.5 {
            eprintln!(
                "bench_dse: REGRESSION — median throughput on `paper` with recording on fell to \
                 {on:.0} points/sec, below half the recording-off median ({off:.0}); the \
                 instrumentation has become hot"
            );
            return ExitCode::FAILURE;
        }
        println!("overhead check: median {on:.0} points/sec recording on vs {off:.0} off — ok");
    }

    ExitCode::SUCCESS
}
