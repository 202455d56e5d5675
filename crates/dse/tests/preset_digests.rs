//! "Same outputs" as a test: pins FNV-1a digests of every preset's CSV
//! and cross-app frontier, and of the guided searcher's frontier and
//! accounting on guided-lanes, so that a change meant to keep outputs
//! byte-identical fails here if it does not. A change to the model
//! itself updates the values below and says why; on a mismatch the
//! failure message prints the whole table as it now is.

use ng_dse::{
    ArchPoint, Constraints, SearchSpec, SearchStrategy, Searcher, SweepEngine, SweepSpec,
};
use ng_neural::math::fnv1a64;

/// `(preset, CSV digest, cross-app frontier digest)`.
const PRESETS: [(&str, u64, u64); 6] = [
    ("quick", 0x6d88f259fc122d6d, 0xc1158963b59af0d8),
    ("paper", 0xc7429e2620d6f127, 0xba16545a5d70113f),
    ("clocks", 0x7ddb587184cdd560, 0x0d70053f51011723),
    ("resolutions", 0xc6b48187902d5717, 0x56dec31a09875f58),
    ("mac-arrays", 0x2b4afa5e406af015, 0x00fdb999dd6eb01a),
    ("guided-lanes", 0xf2457d6118f4a87b, 0x389c6d58902c10db),
];

/// `(strategy, seed, frontier digest, evaluations, archs visited)` on
/// guided-lanes at the default 5%-of-space budget.
const SEARCHES: [(&str, u64, u64, usize, usize); 6] = [
    ("hill", 1, 0x389c6d58902c10db, 7588, 1897),
    ("hill", 2, 0x389c6d58902c10db, 7620, 1905),
    ("hill", 3, 0x389c6d58902c10db, 6820, 1705),
    ("evolve", 1, 0x706f6508c6bb1e75, 6796, 1699),
    ("evolve", 2, 0xb2832884c411e9eb, 6940, 1735),
    ("evolve", 3, 0x7964b2f4324d0946, 8980, 2245),
];

/// A frontier as text: one `Debug` line per architecture, whose `f64`
/// fields print as their shortest round-tripping decimal.
fn frontier_digest(frontier: &[ArchPoint]) -> u64 {
    fnv1a64(&frontier.iter().map(|a| format!("{a:?}\n")).collect::<String>())
}

#[test]
fn preset_csvs_and_frontiers_are_pinned() {
    let got: Vec<(&str, u64, u64)> = PRESETS
        .iter()
        .map(|&(name, ..)| {
            let spec = SweepSpec::preset(name).unwrap();
            let sweep = SweepEngine::new().run(&spec, &Constraints::NONE, false).unwrap();
            let mut csv = Vec::new();
            sweep.write_csv(&mut csv).unwrap();
            let csv = fnv1a64(std::str::from_utf8(&csv).unwrap());
            (name, csv, frontier_digest(&sweep.frontiers.cross_app))
        })
        .collect();
    let table: String =
        got.iter().map(|(n, csv, f)| format!("    (\"{n}\", {csv:#018x}, {f:#018x}),\n")).collect();
    assert!(got == PRESETS, "preset digests changed; now:\n{table}");
}

#[test]
fn guided_searches_are_pinned() {
    let spec = SweepSpec::guided_lanes();
    let got: Vec<(&str, u64, u64, usize, usize)> = SEARCHES
        .iter()
        .map(|&(strategy, seed, ..)| {
            let search = SearchSpec {
                strategy: SearchStrategy::parse(strategy).unwrap(),
                seed,
                ..SearchSpec::for_space(&spec)
            };
            let outcome = Searcher::new().run(&spec, &search).unwrap();
            let stats = outcome.stats;
            (
                strategy,
                seed,
                frontier_digest(&outcome.frontier),
                stats.evaluations,
                stats.archs_visited,
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(s, seed, f, evals, archs)| {
            format!("    (\"{s}\", {seed}, {f:#018x}, {evals}, {archs}),\n")
        })
        .collect();
    assert!(got == SEARCHES, "search digests changed; now:\n{table}");
}
