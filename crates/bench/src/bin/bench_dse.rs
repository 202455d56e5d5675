//! `bench_dse` — the tracked perf harness of the DSE pipeline and its
//! model layers.
//!
//! Times each tracked space's sweep as `dse` runs it without output
//! files — one streamed pass of evaluation, the cross-app fold and the
//! frontier — [`RUNS`] times each in one process with `ng-obs`
//! recording off and [`RUNS`] times with it on, alternating. It writes
//! a machine-readable `BENCH_dse.json` with one entry per space
//! (`{preset, points, runs, median_s, min_s, max_s,
//! median_points_per_sec, recording_on_median_s, counters_per_run}`):
//! the paper, mac-arrays and guided-lanes presets, and [`wide`], a
//! 24,883,200-point widening of guided-lanes. The row medians are
//! recording off. `counters_per_run` holds the `ng-obs` counter growth
//! of one sweep.
//!
//! Each entry also reads its recording-on runs' ledgers: `layers` has
//! one row per factor table (`{layer, entries, us_per_build,
//! ns_per_entry}`: the table's distinct tuples and its span's mean
//! time), and `stage_profile_us` has that row's calls, total and self
//! time per span path, summed over the runs. Spans record whole
//! microseconds, so a table that builds in a few µs reads mostly
//! rounding.
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

use ng_dse::factors::FactorTables;
use ng_dse::spec::Space;
use ng_dse::{Constraints, SweepEngine, SweepSpec};
use ng_neural::render::image::Resolution;
use ng_obs::Ledger;

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
fn alternate(ledger: &mut Ledger, mut run: impl FnMut() -> Duration) -> (Spread, Spread) {
    let mut off = Vec::with_capacity(RUNS);
    let mut on = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        off.push(run());
        ng_obs::sink::enable();
        on.push(run());
        ledger.events.extend(ng_obs::sink::finish().events);
    }
    (Spread::of(off), Spread::of(on))
}

/// The `layers` and `stage_profile_us` fields of a row whose
/// recording-on runs wrote `ledger`, with each line after the first
/// indented by `indent`. The layer rows are `spec`'s factor tables,
/// whose spans sit under the span path `tables`; each is also printed.
fn profile_json(ledger: &Ledger, spec: &SweepSpec, tables: &str, indent: &str) -> String {
    let stages = ledger.profile();
    let layers: Vec<String> = FactorTables::new(Space::new(spec))
        .layers()
        .iter()
        .map(|&(layer, entries)| {
            let path = format!("{tables}/{layer}");
            let span = stages.iter().find(|s| s.path == path).expect("every table has a span");
            let us_per_build = span.total_us as f64 / span.calls as f64;
            let ns_per_entry = us_per_build * 1e3 / entries as f64;
            println!(
                "  {layer:<13} {entries:>6} entries  {us_per_build:9.1} µs/build  \
                 {ns_per_entry:8.1} ns/entry"
            );
            format!(
                "{indent}  {{ \"layer\": \"{layer}\", \"entries\": {entries}, \
                 \"us_per_build\": {us_per_build}, \"ns_per_entry\": {ns_per_entry} }}"
            )
        })
        .collect();
    let stages: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "{indent}  \"{}\": {{ \"calls\": {}, \"total_us\": {}, \"self_us\": {} }}",
                s.path, s.calls, s.total_us, s.self_us
            )
        })
        .collect();
    format!(
        "\"layers\": [\n{}\n{indent}],\n{indent}\"stage_profile_us\": {{\n{}\n{indent}}}",
        layers.join(",\n"),
        stages.join(",\n")
    )
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
    /// The `layers` and `stage_profile_us` JSON fields.
    profile: String,
}

impl PresetBench {
    fn median_points_per_sec(&self) -> f64 {
        self.points as f64 / self.spread.median_s
    }
}

/// Time one preset's sweep: evaluation, the cross-app fold and the
/// unconstrained frontier, as `dse --preset NAME` runs them before it
/// prints.
fn bench_preset(spec: &SweepSpec) -> PresetBench {
    let mut counters_per_run = None;
    let mut ledger = Ledger::default();
    let (spread, recording_on) = alternate(&mut ledger, || {
        let before = ng_obs::counter::snapshot();
        let started = Instant::now();
        let sweep = SweepEngine::new().run(spec, &Constraints::NONE, false);
        let elapsed = started.elapsed();
        assert_eq!(sweep.expect("preset specs validate").stats.evaluated, spec.point_count());
        counters_per_run.get_or_insert_with(|| {
            ng_obs::counter::snapshot()
                .delta_since(&before)
                .iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect()
        });
        elapsed
    });
    println!("[{}]", spec.name);
    println!("sweep:  {}  ({} points)", spread.line(), spec.point_count());
    println!("traced: {}", recording_on.line());
    PresetBench {
        name: spec.name.clone(),
        points: spec.point_count(),
        spread,
        recording_on,
        counters_per_run: counters_per_run.expect("RUNS > 0"),
        profile: profile_json(&ledger, spec, "sweep/evaluate/tables", "      "),
    }
}

/// The `wide` space: guided-lanes with six clocks, four frame sizes
/// (HD to 4K), five SRAM sizes, four bank counts, four lane counts and
/// four FIFO depths (24,883,200 points), big enough that the fold, not
/// process start, sets its time. It is not a `dse` preset: `dse
/// --preset guided-lanes` with the same axis flags sweeps it.
fn wide() -> SweepSpec {
    SweepSpec {
        name: "wide".to_string(),
        clock_ghz: vec![0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
        pixels: [Resolution::Hd, Resolution::Fhd, Resolution::Qhd, Resolution::Uhd4k]
            .map(Resolution::pixels)
            .to_vec(),
        grid_sram_kb: vec![128, 256, 512, 1024, 2048],
        grid_sram_banks: vec![1, 2, 4, 8],
        lanes_per_engine: vec![1, 2, 4, 8],
        input_fifo_depth: vec![2, 8, 16, 64],
        ..SweepSpec::guided_lanes()
    }
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
    // first row's first run pays it (~0.02 ms).
    let specs: Vec<SweepSpec> = if quick {
        vec![SweepSpec::quick()]
    } else {
        vec![SweepSpec::paper(), SweepSpec::mac_arrays(), SweepSpec::guided_lanes(), wide()]
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
                 \"counters_per_run\": {{\n{}\n      }},\n      {}\n    }}",
                b.name,
                b.points,
                b.spread.json("      "),
                b.median_points_per_sec(),
                b.recording_on.median_s,
                counters.join(",\n"),
                b.profile,
            )
        })
        .collect();
    let json = format!("{{\n  \"presets\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
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
