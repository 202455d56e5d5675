//! Guided search through the public API: seed → budget → frontier.
//!
//! The exploded `guided-lanes` space (~260k points over 11 architecture
//! axes, including the query-lane and input-FIFO axes) is too large for
//! an interactive exhaustive sweep to stay the default answer. This
//! example drives `ng_dse`'s budgeted searcher over it the same way
//! `mac_array_sweep.rs` drives the exhaustive engine:
//!
//! 1. build the spec and a [`SearchSpec`] (strategy, budget, seed);
//! 2. run the hill-climbing searcher under a 5%-of-space budget;
//! 3. read the recovered Pareto frontier and the budget accounting;
//! 4. sanity-check it against a small exhaustively-swept subspace.
//!
//! Run with: `cargo run --release --example guided_search`

use ng_dse::report::frontier_table;
use ng_dse::{Constraints, SearchSpec, SearchStrategy, Searcher, SweepEngine, SweepSpec};

fn main() {
    // 1. The exploded space and a budgeted search spec. The default
    //    budget is 5% of the space's point count; the seed pins the
    //    exact trajectory (same seed, same frontier, every run).
    let spec = SweepSpec::guided_lanes();
    let mut search = SearchSpec::for_space(&spec);
    search.strategy = SearchStrategy::HillClimb;
    search.seed = 42;
    println!(
        "space: {} points ({} architectures x {} apps), budget {} evaluations ({:.0}%)",
        spec.point_count(),
        spec.point_count() / spec.apps.len(),
        spec.apps.len(),
        search.budget,
        100.0 * SearchSpec::DEFAULT_BUDGET_FRACTION,
    );

    // 2. Search. Revisited architectures are free (in-search memo);
    //    only fresh emulator calls consume the budget.
    let outcome = Searcher::new().run(&spec, &search).expect("preset validates");
    let stats = &outcome.stats;
    println!(
        "searched {} architectures with {} evaluations ({:.2}% of the space) in {:.1} ms",
        stats.archs_visited,
        stats.evaluations,
        100.0 * stats.budget_fraction_used(),
        stats.wall.as_secs_f64() * 1e3,
    );

    // 3. The recovered cross-app Pareto frontier, best-value end first.
    println!("\nrecovered frontier ({} architectures):", outcome.frontier.len());
    print!("{}", frontier_table(&outcome.frontier, 12));

    // The paper's NGPC-64 organisation must be among them (the CI win
    // condition): hashgrid, 64 units, 1 MB/8-bank SRAMs, 16 engines,
    // 64x64 MACs — with the FIFO right-sized by the search itself.
    let headline = outcome
        .frontier
        .iter()
        .find(|a| {
            a.nfp_units == 64
                && a.grid_sram_kb == 1024
                && a.encoding_engines == 16
                && a.mac_rows == 64
                && a.mac_cols == 64
        })
        .expect("guided search recovers the paper's NGPC-64 organisation");
    println!(
        "\nNGPC-64 recovered: {:.2}x avg, {:.2}% area, {:.2}% power ({} lane(s), {}-deep FIFO)",
        headline.avg_speedup,
        headline.area_pct_of_gpu,
        headline.power_pct_of_gpu,
        headline.lanes_per_engine,
        headline.input_fifo_depth,
    );

    // 4. Degeneration check on a subspace small enough to exhaust: with
    //    the budget covering every point, the searcher IS the sweep.
    let mut small = SweepSpec::quick();
    small.nfp_units = vec![8, 16, 32, 64];
    small.lanes_per_engine = vec![1, 2];
    small.input_fifo_depth = vec![8, 64];
    let exhaustive = SweepEngine::new().run(&small, &Constraints::NONE, false).expect("valid");
    let full_frontier = exhaustive.frontiers.cross_app;
    let saturated = SearchSpec { budget: small.point_count(), ..search };
    let degenerate = Searcher::new().run(&small, &saturated).expect("valid");
    assert_eq!(degenerate.frontier.len(), full_frontier.len());
    println!(
        "\nsaturated-budget check: searched frontier == exhaustive frontier \
         ({} architectures) on a {}-point subspace",
        full_frontier.len(),
        small.point_count(),
    );
}
