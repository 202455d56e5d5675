//! `bench_dse` — the tracked perf harness of the DSE pipeline.
//!
//! For each tracked preset, times one sweep (every point evaluated in
//! memory, as `dse` runs it) and writes a machine-readable
//! `BENCH_dse.json` with one entry per preset (`{preset, cold_s,
//! points, cold_points_per_sec, counters_cold}`) for the paper and
//! mac-arrays presets, plus a `guided` entry for the budgeted searcher
//! over the exploded guided-lanes space (`{space_points, budget,
//! evaluations, wall_s, points_per_sec, recovered_headline}`).
//! `counters_cold` holds the `ng-obs` counter deltas of the sweep, and
//! the file closes with a `stage_profile_us` breakdown of where this
//! process's wall time went (per span path). "Cold" means the first
//! sweep of the preset in this process.
//!
//! ```text
//! bench_dse [--quick] [--check-overhead] [--out PATH]
//! ```
//!
//! `--quick` benches the 16-point quick preset instead of the tracked
//! paper + mac-arrays presets; `--check-overhead` compares this run's
//! tracing-off throughput on the paper preset against the committed
//! `BENCH_dse.json` and fails if it fell below half the recorded
//! baseline — a deliberately generous floor (CI machines are noisy)
//! whose job is to catch the instrumentation becoming accidentally
//! hot, not 5% regressions.

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use ng_dse::{SearchSpec, Searcher, SweepEngine, SweepSpec};

struct PresetBench {
    name: String,
    cold_s: f64,
    points: usize,
    cold_points_per_sec: f64,
    /// Counter growth during the sweep, `(name, delta)` in name order —
    /// the observability cross-check that the timing numbers measured
    /// what they claim (e.g. `sweep.fresh_evals == points`).
    counters_cold: Vec<(String, u64)>,
}

fn bench_preset(spec: &SweepSpec) -> PresetBench {
    let before = ng_obs::counter::snapshot();
    let started = Instant::now();
    let outcome = SweepEngine::new().run(spec).expect("preset specs validate");
    let cold_s = started.elapsed().as_secs_f64();
    let counters_cold: Vec<(String, u64)> = ng_obs::counter::snapshot()
        .delta_since(&before)
        .iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();

    println!("[{}]", spec.name);
    println!(
        "sweep:       {:8.1} ms  ({} points evaluated)",
        cold_s * 1e3,
        outcome.stats.evaluated
    );
    PresetBench {
        name: spec.name.clone(),
        cold_s,
        points: spec.point_count(),
        cold_points_per_sec: outcome.stats.points_per_sec(),
        counters_cold,
    }
}

/// One guided search over the exploded preset.
struct GuidedBench {
    space_points: usize,
    budget: usize,
    evaluations: usize,
    wall_s: f64,
    points_per_sec: f64,
    recovered_headline: bool,
}

fn bench_guided() -> GuidedBench {
    let spec = SweepSpec::guided_lanes();
    let search = SearchSpec::for_space(&spec);
    let outcome = Searcher::new().run(&spec, &search).expect("preset validates");
    let recovered = outcome.frontier.iter().any(|a| a.is_paper_organisation());
    let stats = &outcome.stats;
    let wall_s = stats.wall.as_secs_f64();
    println!("[guided-lanes --search]");
    println!(
        "search:      {:8.1} ms  ({} of {} points evaluated, {:.2}% of the space, headline {})",
        wall_s * 1e3,
        stats.evaluations,
        stats.space_points,
        100.0 * stats.budget_fraction_used(),
        if recovered { "recovered" } else { "MISSED" },
    );
    GuidedBench {
        space_points: stats.space_points,
        budget: stats.budget,
        evaluations: stats.evaluations,
        wall_s,
        points_per_sec: if wall_s > 0.0 { stats.evaluations as f64 / wall_s } else { 0.0 },
        recovered_headline: recovered,
    }
}

/// The `cold_points_per_sec` recorded for `preset` in the committed
/// trajectory file, extracted with a string scan (the file is written
/// by this binary, so the shape is known; no JSON dependency needed).
fn baseline_cold_throughput(path: &str, preset: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let entry = text.find(&format!("\"preset\": \"{preset}\""))?;
    let tail = &text[entry..];
    let field = tail.find("\"cold_points_per_sec\":")?;
    let value = tail[field + "\"cold_points_per_sec\":".len()..].trim_start();
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
        match baseline_cold_throughput("BENCH_dse.json", "paper") {
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
    // *first* preset's sweep pays it (~0.02 ms). Keep `paper` first so
    // the trajectory stays comparable across PRs.
    let specs: Vec<SweepSpec> = if quick {
        vec![SweepSpec::quick()]
    } else {
        vec![SweepSpec::paper(), SweepSpec::mac_arrays()]
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
                .counters_cold
                .iter()
                .map(|(name, v)| format!("        \"{name}\": {v}"))
                .collect();
            format!(
                "    {{\n      \"preset\": \"{}\",\n      \"cold_s\": {},\n      \
                 \"points\": {},\n      \"cold_points_per_sec\": {},\n      \
                 \"counters_cold\": {{\n{}\n      }}\n    }}",
                b.name,
                b.cold_s,
                b.points,
                b.cold_points_per_sec,
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
                 \"wall_s\": {},\n    \"points_per_sec\": {},\n    \
                 \"recovered_headline\": {}\n  }}",
                g.space_points,
                g.budget,
                g.evaluations,
                g.wall_s,
                g.points_per_sec,
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
        let paper = benches.iter().find(|b| b.name == "paper");
        match paper {
            Some(b) if b.cold_points_per_sec < baseline * 0.5 => {
                eprintln!(
                    "bench_dse: REGRESSION — tracing-off throughput on `paper` fell to \
                     {:.0} points/sec, below half the committed baseline ({:.0}); the \
                     instrumentation has become hot",
                    b.cold_points_per_sec, baseline
                );
                return ExitCode::FAILURE;
            }
            Some(b) => println!(
                "overhead check: {:.0} points/sec vs {:.0} baseline — ok",
                b.cold_points_per_sec, baseline
            ),
            None => {
                eprintln!("bench_dse: --check-overhead needs the `paper` preset (drop --quick)");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
