//! The sweep evaluates from factor tables: each model factor once per
//! distinct tuple of the axes it reads, a point as table reads plus
//! `ngpc::compose`. This pins that path bit for bit against one
//! `ngpc::emulate` call per point (`evaluate_points`) on random specs
//! over every axis: random subsets in random order, single-value axes,
//! the app axis out of enum order, and thread counts whose chunks cross
//! app boundaries. A table keyed on fewer axes than its factor reads
//! fails here. The searcher's per-architecture fold,
//! [`FactorTables::arch`], is pinned the same way on random
//! architectures of the same specs.

use ng_dse::factors::FactorTables;
use ng_dse::spec::Space;
use ng_dse::sweep::evaluate_points;
use ng_dse::{ArchPoint, EvaluatedPoint, SweepEngine, SweepSpec};
use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::math::Pcg32;
use proptest::prelude::*;

/// Upper bound on a random spec's points (the oracle is one `emulate`
/// call a point in a debug build).
const MAX_POINTS: usize = 3000;

/// A random non-empty subset of `pool`, in random order.
fn subset<T: Copy>(rng: &mut Pcg32, pool: &[T], len: usize) -> Vec<T> {
    let mut items = pool.to_vec();
    for i in (1..items.len()).rev() {
        items.swap(i, rng.bounded(i as u32 + 1) as usize);
    }
    items.truncate(len.clamp(1, pool.len()));
    items
}

/// A random spec over every axis, at most [`MAX_POINTS`] points.
fn random_spec(seed: u64) -> SweepSpec {
    let mut rng = Pcg32::new(seed);
    // Two to four apps, never in enum order, so that table positions
    // differ from enum discriminants.
    let app_count = 2 + rng.bounded(3) as usize;
    let mut apps = subset(&mut rng, &AppKind::ALL, app_count);
    if apps.windows(2).all(|w| (w[0] as u8) < (w[1] as u8)) {
        apps.reverse();
    }
    // Arch-axis lengths: 1 (a single-value axis) to 3, shrunk at
    // random until the space fits.
    let mut lens: Vec<usize> = (0..11).map(|_| 1 + rng.bounded(3) as usize).collect();
    while apps.len() * lens.iter().product::<usize>() > MAX_POINTS {
        let i = rng.bounded(11) as usize;
        lens[i] = (lens[i] - 1).max(1);
    }
    SweepSpec {
        name: format!("random-{seed}"),
        apps,
        encodings: subset(&mut rng, &EncodingKind::ALL, lens[0]),
        pixels: subset(&mut rng, &[1280 * 720, 1920 * 1080, 3840 * 2160], lens[1]),
        nfp_units: subset(&mut rng, &[4, 8, 16, 32, 64, 128], lens[2]),
        clock_ghz: subset(&mut rng, &[0.5, 1.0, 1.5, 2.0], lens[3]),
        grid_sram_kb: subset(&mut rng, &[128, 256, 512, 1024, 2048], lens[4]),
        grid_sram_banks: subset(&mut rng, &[1, 2, 4, 8, 16], lens[5]),
        encoding_engines: subset(&mut rng, &[2, 4, 8, 16, 32], lens[6]),
        mac_rows: subset(&mut rng, &[16, 32, 64, 128], lens[7]),
        mac_cols: subset(&mut rng, &[16, 32, 64, 128], lens[8]),
        lanes_per_engine: subset(&mut rng, &[1, 2, 4], lens[9]),
        input_fifo_depth: subset(&mut rng, &[1, 2, 8, 16, 64], lens[10]),
        ..SweepSpec::default()
    }
}

/// The bits of every output of a point, with the point itself.
fn bits(p: &EvaluatedPoint) -> (ng_dse::DesignPoint, [u64; 6], bool) {
    let outputs = [
        p.speedup,
        p.area_pct_of_gpu,
        p.power_pct_of_gpu,
        p.gpu_ms,
        p.ngpc_frame_ms,
        p.amdahl_bound,
    ];
    (p.point, outputs.map(f64::to_bits), p.plateaued)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_path_matches_emulate_bit_for_bit(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let n = spec.point_count();
        let archs = n / spec.apps.len();
        let oracle: Vec<_> = evaluate_points(&spec.points(), 1).iter().map(bits).collect();
        // One worker, a worker count whose chunks end inside an app's
        // block of architectures, and many small chunks.
        let crossing = (2..=n).find(|&t| n.div_ceil(t) % archs != 0).unwrap_or(2);
        for threads in [1, crossing, 64] {
            let outcome = SweepEngine::new().with_threads(threads).run(&spec).unwrap();
            prop_assert_eq!(outcome.points.len(), n);
            for (i, (got, want)) in outcome.points.iter().map(bits).zip(&oracle).enumerate() {
                prop_assert!(
                    got == *want,
                    "{} point {i} at {threads} threads: {:?} vs {:?}",
                    spec.name,
                    got,
                    want
                );
            }
        }
    }
}

/// The bits of every objective of an architecture, with the rest of it.
fn arch_bits(a: &ArchPoint) -> (ArchPoint, [u64; 3]) {
    (*a, [a.avg_speedup, a.area_pct_of_gpu, a.power_pct_of_gpu].map(f64::to_bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arch_fold_matches_emulate_bit_for_bit(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let space = Space::new(&spec);
        let tables = FactorTables::new(space);
        let mut rng = Pcg32::new(seed ^ 0xa5c4);
        for _ in 0..16 {
            let idx = space.random(&mut rng);
            let points: Vec<_> = (0..spec.apps.len()).map(|a| space.point(&idx, a)).collect();
            let want = ArchPoint::from_app_points(evaluate_points(&points, 1));
            let got = tables.arch(&idx);
            prop_assert!(
                arch_bits(&got) == arch_bits(&want),
                "{} arch {:?}: {:?} vs {:?}",
                spec.name,
                idx,
                got,
                want
            );
        }
    }
}

#[test]
fn presets_match_emulate_bit_for_bit() {
    for name in ["quick", "paper", "clocks", "resolutions", "mac-arrays"] {
        let spec = SweepSpec::preset(name).unwrap();
        let oracle: Vec<_> = evaluate_points(&spec.points(), 1).iter().map(bits).collect();
        let outcome = SweepEngine::new().with_threads(3).run(&spec).unwrap();
        let got: Vec<_> = outcome.points.iter().map(bits).collect();
        assert!(got == oracle, "{name}");
    }
}
