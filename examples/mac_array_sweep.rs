//! The MAC-array / engine-count axes end to end: probe single points
//! through the public `EmulatorInput` fields, then sweep the
//! `mac-arrays` preset with `ng-dse` and read off which NFP
//! microarchitectures are worth their silicon.
//!
//! Until the compositional timing model landed, `mac_rows`, `mac_cols`
//! and `encoding_engines` changed area and power but never throughput;
//! now the emulator derives per-query cycles from the MLP engine's tile
//! model and the encoding gang's level folding, calibrated to reproduce
//! the paper's numbers exactly at 64x64 MACs / 16 engines.
//!
//! Run with: `cargo run --release --example mac_array_sweep`

use ng_dse::report::frontier_table;
use ng_dse::{Constraints, SweepEngine, SweepSpec};
use ng_neural::apps::{AppKind, EncodingKind};
use ngpc::emulator::{emulate, mac_engine_factor, per_sample_cycles, EmulatorInput};
use ngpc::NfpConfig;

fn main() {
    // 1. Single points: shrink the MAC array, shrink the engine gang,
    //    and watch the cycle model charge both.
    let nsdf_16 =
        |nfp| EmulatorInput { app: AppKind::Nsdf, nfp_units: 16, nfp, ..Default::default() };
    let paper = nsdf_16(NfpConfig::default());
    let narrow = nsdf_16(NfpConfig { mac_rows: 32, mac_cols: 32, ..NfpConfig::default() });
    let few_engines = nsdf_16(NfpConfig { encoding_engines: 8, ..NfpConfig::default() });
    println!("NSDF on NGPC-16 (hashgrid):");
    for (label, input) in [
        ("64x64 / 16 engines", &paper),
        ("32x32 / 16 engines", &narrow),
        ("64x64 /  8 engines", &few_engines),
    ] {
        let r = emulate(input);
        let cycles = per_sample_cycles(input.app, input.encoding, &input.nfp);
        println!(
            "  {label}: {:5.2} cycles/query, factor {:.3}, {:6.2}x end to end, {:5.2}% area",
            cycles,
            mac_engine_factor(input.app, input.encoding, &input.nfp),
            r.speedup,
            r.area_pct_of_gpu,
        );
    }

    // 2. The factor is exactly 1.0 at the paper's NFP for every
    //    workload — the calibration contract that keeps the published
    //    numbers byte-identical.
    for enc in EncodingKind::ALL {
        for app in AppKind::ALL {
            assert_eq!(mac_engine_factor(app, enc, &NfpConfig::default()), 1.0);
        }
    }
    println!("\nmac/engine factor == 1.0 at the paper NFP for all 12 (app, encoding) pairs");

    // 3. The preset sweep: {32,64,128}^2 MAC shapes x {8,16,32} engines
    //    at the paper's scaling factors, Pareto-reduced.
    let spec = SweepSpec::mac_arrays();
    let sweep = SweepEngine::new().run(&spec, &Constraints::NONE, false);
    let sweep = sweep.expect("preset validates");
    println!(
        "\nswept {} points in {:.1} ms ({} threads)",
        sweep.stats.total_points,
        sweep.stats.wall.as_secs_f64() * 1e3,
        sweep.stats.threads,
    );
    let frontier = sweep.frontiers.cross_app;
    println!("cross-app Pareto frontier of the MAC-array / engine-count space:");
    print!("{}", frontier_table(&frontier, 16));

    // 4. What an architect reads off it: which microarchitectures earn
    //    a frontier slot at the paper's flagship NGPC-64 scale.
    let at_64: Vec<_> = frontier.iter().filter(|a| a.nfp_units == 64).collect();
    println!("\nfrontier slots at NGPC-64:");
    for a in &at_64 {
        println!(
            "  {}x{} MACs / {} engines: {:.2}x avg for {:.2}% area",
            a.mac_rows, a.mac_cols, a.encoding_engines, a.avg_speedup, a.area_pct_of_gpu
        );
    }
    assert!(
        at_64.iter().any(|a| a.mac_rows == 64 && a.mac_cols == 64 && a.encoding_engines == 16),
        "the paper's choice must hold its frontier slot"
    );
}
