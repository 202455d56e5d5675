//! Design-space exploration with `ng-dse`: sweep NFP counts, clocks and
//! encodings in parallel, extract the Pareto frontier over
//! {speedup, area, power}, and read off the trade-off a real architect
//! would take from Figs. 12 and 15 together.
//!
//! Run with: `cargo run --release --example design_space`

use ng_dse::report::frontier_table;
use ng_dse::{Constraints, SweepEngine, SweepSpec};

fn main() {
    // The paper's axes plus a clock sweep, declared instead of nested
    // loops; evaluation is parallel and deterministic.
    let spec = SweepSpec {
        name: "design-space-example".to_string(),
        nfp_units: vec![4, 8, 16, 32, 64, 128],
        clock_ghz: vec![0.5, 1.0, 2.0],
        ..SweepSpec::default()
    };
    let engine = SweepEngine::new();
    let sweep = engine.run(&spec, &Constraints::NONE, false).expect("valid spec");
    println!(
        "evaluated {} points in {:.1} ms ({} threads)\n",
        sweep.stats.total_points,
        sweep.stats.wall.as_secs_f64() * 1e3,
        sweep.stats.threads,
    );

    println!("unconstrained cross-app frontier (hashgrid, FHD):");
    print!("{}", frontier_table(&sweep.frontiers.cross_app, 20));

    // The budget question the paper's Fig. 15 invites: what is the best
    // architecture costing at most 10% of the die and 10% of TDP? The
    // budget filters points before the frontier, so it is its own sweep.
    let budget = Constraints {
        max_area_pct: Some(10.0),
        max_power_pct: Some(10.0),
        ..Constraints::default()
    };
    let affordable = engine.run(&spec, &budget, false).expect("valid spec").frontiers.cross_app;
    println!("\nwithin a 10% area / 10% power budget:");
    print!("{}", frontier_table(&affordable, 20));
    if let Some(best) = affordable.iter().max_by(|a, b| a.avg_speedup.total_cmp(&b.avg_speedup)) {
        println!(
            "\nbest affordable: NGPC-{} @ {} GHz — {:.2}x avg speedup for {:.2}% area / {:.2}% power",
            best.nfp_units,
            best.clock_ghz,
            best.avg_speedup,
            best.area_pct_of_gpu,
            best.power_pct_of_gpu,
        );
    }

    println!(
        "\nReading: past each app's Amdahl plateau additional NFPs buy no\n\
         speedup but cost linear area/power, so the frontier bends at the\n\
         paper's NGPC-16..64 range — the sweet spot the paper reads off\n\
         Figs. 12 and 15."
    );
}
