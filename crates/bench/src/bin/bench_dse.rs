//! `bench_dse` — the tracked perf harness of the DSE pipeline.
//!
//! Times each tracked preset's sweep (every point evaluated in memory,
//! as `dse` runs it) [`RUNS`] times in one process, and the budgeted
//! guided searcher over the exploded guided-lanes space as often. It
//! writes a machine-readable `BENCH_dse.json`: one entry per preset
//! (`{preset, points, runs, median_s, min_s, max_s,
//! median_points_per_sec, counters_per_run}`) for the paper, mac-arrays
//! and guided-lanes presets, a `guided` entry for the searcher
//! (`{space_points, budget, evaluations, runs, median_s, min_s, max_s,
//! recovered_headline}`), and a closing `stage_profile_us` breakdown of
//! where this process's wall time went (per span path, summed over the
//! runs). `counters_per_run` holds the `ng-obs` counter growth of one
//! sweep.
//!
//! ```text
//! bench_dse [--quick] [--check-overhead] [--out PATH]
//! ```
//!
//! `--quick` benches the 16-point quick preset instead of the tracked
//! presets; `--check-overhead` compares this run's median paper-preset
//! throughput (tracing off) against the median recorded in the
//! committed `BENCH_dse.json` and fails if it fell below half of it — a
//! deliberately generous floor (CI machines are noisy) whose job is to
//! catch the instrumentation becoming accidentally hot, not 5%
//! regressions.

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

struct PresetBench {
    name: String,
    points: usize,
    spread: Spread,
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

fn bench_preset(spec: &SweepSpec) -> PresetBench {
    let mut counters_per_run = Vec::new();
    let times = (0..RUNS)
        .map(|run| {
            let before = ng_obs::counter::snapshot();
            let started = Instant::now();
            let outcome = SweepEngine::new().run(spec).expect("preset specs validate");
            let elapsed = started.elapsed();
            assert_eq!(outcome.stats.evaluated, spec.point_count());
            if run == 0 {
                counters_per_run = ng_obs::counter::snapshot()
                    .delta_since(&before)
                    .iter()
                    .map(|(name, v)| (name.to_string(), v))
                    .collect();
            }
            elapsed
        })
        .collect();
    let bench = PresetBench {
        name: spec.name.clone(),
        points: spec.point_count(),
        spread: Spread::of(times),
        counters_per_run,
    };
    println!("[{}]", bench.name);
    println!("sweep:  {}  ({} points)", bench.spread.line(), bench.points);
    bench
}

/// The guided search over the exploded preset.
struct GuidedBench {
    space_points: usize,
    budget: usize,
    evaluations: usize,
    spread: Spread,
    recovered_headline: bool,
}

fn bench_guided() -> GuidedBench {
    let spec = SweepSpec::guided_lanes();
    let search = SearchSpec::for_space(&spec);
    let outcomes: Vec<_> =
        (0..RUNS).map(|_| Searcher::new().run(&spec, &search).expect("preset validates")).collect();
    let outcome = &outcomes[0];
    let recovered = outcome.frontier.iter().any(|a| a.is_paper_organisation());
    let stats = &outcome.stats;
    let bench = GuidedBench {
        space_points: stats.space_points,
        budget: stats.budget,
        evaluations: stats.evaluations,
        spread: Spread::of(outcomes.iter().map(|o| o.stats.wall).collect()),
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
    bench
}

/// The `median_points_per_sec` recorded for `preset` in the committed
/// trajectory file, extracted with a string scan (the file is written
/// by this binary, so the shape is known; no JSON dependency needed).
fn baseline_median_throughput(path: &str, preset: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let entry = text.find(&format!("\"preset\": \"{preset}\""))?;
    let tail = &text[entry..];
    let key = "\"median_points_per_sec\":";
    let field = tail.find(key)?;
    let value = tail[field + key.len()..].trim_start();
    let end = value.find([',', '\n', '}'])?;
    value[..end].trim().parse().ok()
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

    // The overhead baseline comes from the *committed* trajectory file,
    // read before anything overwrites it.
    let overhead_baseline = if check_overhead {
        match baseline_median_throughput("BENCH_dse.json", "paper") {
            Some(t) => Some(t),
            None => {
                eprintln!(
                    "bench_dse: --check-overhead needs a committed BENCH_dse.json with a \
                     `paper` preset entry"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

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

    let benches: Vec<PresetBench> = specs.iter().map(bench_preset).collect();
    // The guided searcher is benched on the full runs only (its space
    // is a full preset; a --quick run has nothing to search).
    let guided = if quick { None } else { Some(bench_guided()) };

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
                 \"median_points_per_sec\": {},\n      \"counters_per_run\": {{\n{}\n      }}\n    \
                 }}",
                b.name,
                b.points,
                b.spread.json("      "),
                b.median_points_per_sec(),
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
                 {},\n    \"recovered_headline\": {}\n  }}",
                g.space_points,
                g.budget,
                g.evaluations,
                g.spread.json("    "),
                g.recovered_headline,
            )
        })
        .unwrap_or_default();
    // Where this process's wall time went, per span path — the same
    // stage breakdown `dse trace` reconstructs from a ledger, taken
    // from the in-process profile registry.
    let stage_rows: Vec<String> = ng_obs::profile_snapshot()
        .iter()
        .map(|(path, s)| {
            format!(
                "    \"{path}\": {{ \"calls\": {}, \"total_us\": {}, \"self_us\": {} }}",
                s.calls, s.total_us, s.self_us
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

    if let Some(baseline) = overhead_baseline {
        let Some(paper) = benches.iter().find(|b| b.name == "paper") else {
            eprintln!("bench_dse: --check-overhead needs the `paper` preset (drop --quick)");
            return ExitCode::FAILURE;
        };
        let median = paper.median_points_per_sec();
        if median < baseline * 0.5 {
            eprintln!(
                "bench_dse: REGRESSION — median tracing-off throughput on `paper` fell to \
                 {median:.0} points/sec, below half the committed median ({baseline:.0}); the \
                 instrumentation has become hot"
            );
            return ExitCode::FAILURE;
        }
        println!("overhead check: median {median:.0} points/sec vs {baseline:.0} baseline — ok");
    }

    ExitCode::SUCCESS
}
