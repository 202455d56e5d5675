//! The sweep evaluates from factor tables: each model factor once per
//! distinct tuple of the axes it reads, a point as table reads plus
//! `ngpc::compose`. This pins that path bit for bit against one
//! `ngpc::emulate` call per point (`evaluate_points`) on random specs
//! over every axis: random subsets in random order, single-value axes,
//! and the app axis out of enum order. A table keyed on fewer axes than
//! its factor reads fails here. The sweep's emitters refill blocks of
//! points from the tables, so their CSV is compared with the oracle's
//! (shortest round-trip floats: equal bytes are equal bits), and on
//! every preset the CSV and JSON a streamed sweep writes are compared
//! byte for byte with the held-points writers' output. The frontiers
//! the sweep's workers fold and merge are compared with the oracle's
//! on the random specs, under a budget and without, with and without
//! the per-app frontiers. The scorer the workers and the searcher share
//! is pinned against the oracle on walks and random-access probes of
//! the same specs ([`FactorTables::walk`], [`FactorTables::score_at`]).
//! And every point a valid spec can name evaluates to finite, positive
//! metrics.

use std::io;
use std::time::Duration;

use ng_dse::emit::{outcome_to_json, points_to_csv};
use ng_dse::factors::{FactorTables, Score};
use ng_dse::spec::Space;
use ng_dse::sweep::evaluate_points;
use ng_dse::{ArchPoint, Constraints, SweepEngine, SweepOutcome, SweepSpec, SweepStats};
use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::math::Pcg32;
use proptest::prelude::*;

/// Upper bound on a random spec's points (the oracle is one `emulate`
/// call a point in a debug build). Above the emitters' 4,096-point
/// block, so most specs are refilled from starts inside the space,
/// partway through an app's architectures.
const MAX_POINTS: usize = 12_000;

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

/// A writer that checks every byte written against `expected`, in
/// order, so a 100 MB document is compared without a second copy.
struct Expect<'a> {
    what: &'a str,
    rest: &'a [u8],
    offset: usize,
}

impl<'a> Expect<'a> {
    fn new(what: &'a str, expected: &'a str) -> Self {
        Expect { what, rest: expected.as_bytes(), offset: 0 }
    }

    /// Panics unless every expected byte was written.
    fn finish(self) {
        assert!(self.rest.is_empty(), "{}: {} bytes short", self.what, self.rest.len());
    }
}

impl io::Write for Expect<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.rest.len());
        if n < buf.len() || buf != &self.rest[..n] {
            let at = (0..buf.len()).find(|&i| i >= n || buf[i] != self.rest[i]).unwrap_or(n);
            panic!("{}: first difference at byte {}", self.what, self.offset + at);
        }
        self.rest = &self.rest[n..];
        self.offset += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An outcome holding the `emulate` oracle's points of `spec`, with
/// zeroed stats.
fn oracle(spec: &SweepSpec) -> SweepOutcome {
    SweepOutcome {
        spec: spec.clone(),
        points: evaluate_points(&spec.points(), 2),
        stats: SweepStats {
            total_points: 0,
            evaluated: 0,
            cache_hits: 0,
            cache_hit: false,
            threads: 0,
            wall: Duration::ZERO,
        },
        cache_path: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The refilled CSV equals the oracle's, and the frontiers the
    /// workers fold from their architecture ranges equal the oracle's
    /// at thread counts that split the architectures unevenly, with and
    /// without a budget, and with and without the per-app frontiers.
    #[test]
    fn table_path_matches_emulate_bit_for_bit(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let oracle = oracle(&spec);
        let csv = points_to_csv(&oracle.points);
        let sweep = SweepEngine::new().with_threads(3).run(&spec, false);
        let mut expect = Expect::new(&spec.name, &csv);
        sweep.unwrap().write_csv(&mut expect).unwrap();
        expect.finish();

        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let cross_app = oracle.cross_app();
        let budget = Constraints {
            max_area_pct: Some(median(cross_app.iter().map(|a| a.area_pct_of_gpu).collect())),
            max_power_pct: None,
            min_speedup: Some(median(cross_app.iter().map(|a| a.avg_speedup).collect())),
        };
        for constraints in [Constraints::NONE, budget] {
            let bounded = SweepSpec { constraints, ..spec.clone() };
            let want_cross_app = oracle.cross_app_frontier(&constraints);
            let want_per_app: Vec<_> = AppKind::ALL
                .into_iter()
                .filter(|app| spec.apps.contains(app))
                .map(|app| (app, oracle.per_app_frontier(app, &constraints)))
                .collect();
            for threads in [3, 7] {
                let sweep = SweepEngine::new().with_threads(threads);
                let frontiers = sweep.run(&bounded, true).unwrap().frontiers;
                prop_assert_eq!(frontiers.archs, cross_app.len());
                prop_assert_eq!(&frontiers.cross_app, &want_cross_app, "{} threads", threads);
                prop_assert_eq!(&frontiers.per_app, &want_per_app, "{} threads", threads);
                // `dse`'s default: the cross-app frontier alone.
                let frontiers = sweep.run(&bounded, false).unwrap().frontiers;
                prop_assert_eq!(frontiers.archs, cross_app.len());
                prop_assert_eq!(&frontiers.cross_app, &want_cross_app, "{} threads", threads);
                prop_assert!(frontiers.per_app.is_empty());
            }
        }
    }
}

/// The bits of a speedup, an area and a power percentage.
fn bits(speedup: f64, area_pct: f64, power_pct: f64) -> [u64; 3] {
    [speedup, area_pct, power_pct].map(f64::to_bits)
}

/// Flat numbers of walk starts over `archs` architectures: random ones,
/// the last architecture, and starts whose first step carries across
/// at least three axes (the scan stops at the space's end).
fn walk_starts(space: &Space, rng: &mut Pcg32) -> Vec<usize> {
    let archs = space.arch_count();
    let mut starts: Vec<usize> = (0..6).map(|_| rng.bounded(archs as u32) as usize).collect();
    starts.push(archs - 1);
    for _ in 0..4 {
        let mut flat = rng.bounded(archs as u32) as usize;
        while flat + 1 < archs {
            let (here, next) = (space.decode(flat), space.decode(flat + 1));
            if here.iter().zip(&next).filter(|(a, b)| a != b).count() >= 3 {
                break;
            }
            flat += 1;
        }
        starts.push(flat);
    }
    starts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scorer, walked as an odometer from random starts and probed
    /// at random access, gives every architecture the objectives of the
    /// oracle's `ArchPoint::from_app_points` and every app the speedup
    /// of its `emulate` call, bit for bit.
    #[test]
    fn arch_fold_matches_emulate_bit_for_bit(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let space = Space::new(&spec);
        let tables = FactorTables::new(space);
        let mut rng = Pcg32::new(seed ^ 0xa5c4);
        let archs = space.arch_count();
        let want = |flat: usize| {
            let idx = space.decode(flat);
            let points: Vec<_> = (0..spec.apps.len()).map(|a| space.point(&idx, a)).collect();
            let oracle = evaluate_points(&points, 1);
            let speedups: Vec<u64> = oracle.iter().map(|p| p.speedup.to_bits()).collect();
            let arch = ArchPoint::from_app_points(oracle);
            (bits(arch.avg_speedup, arch.area_pct_of_gpu, arch.power_pct_of_gpu), speedups)
        };
        let got = |score: &Score| {
            let o = score.objectives;
            let speedups: Vec<u64> = score.speedups().iter().map(|s| s.to_bits()).collect();
            (bits(o.speedup, o.area_pct, o.power_pct), speedups)
        };
        for start in walk_starts(&space, &mut rng) {
            let end = (start + 1 + rng.bounded(12) as usize).min(archs);
            let mut walked = Vec::new();
            let _ = tables.fold(start..end, |flat, score: &Score| walked.push((flat, got(score))));
            prop_assert_eq!(
                walked.iter().map(|(flat, _)| *flat).collect::<Vec<_>>(),
                (start..end).collect::<Vec<_>>()
            );
            for (flat, scored) in walked {
                let want = want(flat);
                prop_assert_eq!(&scored, &want, "{} walk from {}, arch {}", &spec.name, start, flat);
                let probed = got(&tables.score_at(&space.decode(flat)));
                prop_assert_eq!(&probed, &want, "{} arch {} at random access", &spec.name, flat);
            }
        }
    }
}

/// On every preset (guided-lanes refills 65 blocks whose boundaries
/// cross app boundaries) and at thread counts that split the
/// architectures unevenly, the streamed CSV equals the held-points
/// CSV of the `emulate` oracle, and the streamed JSON equals the
/// held-points JSON of an oracle outcome with the same stats.
#[test]
fn streamed_emitters_match_the_held_points_writers() {
    for name in SweepSpec::PRESETS {
        let spec = SweepSpec::preset(name).unwrap();
        let mut oracle = oracle(&spec);
        let csv = points_to_csv(&oracle.points);
        let frontier = oracle.cross_app_frontier(&Constraints::NONE);
        for threads in [1, 2, 3, 7] {
            let sweep = SweepEngine::new().with_threads(threads);
            let sweep = sweep.run(&spec, false).unwrap();
            let what = format!("{name} CSV at {threads} threads");
            let mut expect = Expect::new(&what, &csv);
            sweep.write_csv(&mut expect).unwrap();
            expect.finish();

            oracle.stats = sweep.stats;
            let json = outcome_to_json(&oracle, &frontier);
            let what = format!("{name} JSON at {threads} threads");
            let mut expect = Expect::new(&what, &json);
            sweep.write_json(&mut expect).unwrap();
            expect.finish();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single point drawn inside `SweepSpec::validate`'s bounds
    /// (log-uniform where an axis spans decades) evaluates to finite,
    /// positive metrics.
    #[test]
    fn every_valid_point_has_finite_positive_metrics(
        app in 0usize..4,
        encoding in 0usize..3,
        pixels_exp in 0u32..33,
        pixels_mul in 1u64..=2,
        nfp_units in 1u32..=1024,
        clock_ghz in 0.1f64..5.0,
        sram_kb_exp in 2u32..=16,
        banks_exp in 0u32..=10,
        engines in 1u32..=64,
        mac_rows in 1u32..=1024,
        mac_cols in 1u32..=1024,
        lanes in 1u32..=16,
        fifo in 1u32..=4096,
    ) {
        let spec = SweepSpec {
            name: "random-point".to_string(),
            apps: vec![AppKind::ALL[app]],
            encodings: vec![EncodingKind::ALL[encoding]],
            pixels: vec![pixels_mul << pixels_exp],
            nfp_units: vec![nfp_units],
            clock_ghz: vec![clock_ghz],
            grid_sram_kb: vec![1 << sram_kb_exp],
            grid_sram_banks: vec![1 << banks_exp],
            encoding_engines: vec![engines],
            mac_rows: vec![mac_rows],
            mac_cols: vec![mac_cols],
            lanes_per_engine: vec![lanes],
            input_fifo_depth: vec![fifo],
            ..SweepSpec::default()
        };
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let sweep = SweepEngine::new().with_threads(1).run(&spec, true);
        let sweep = sweep.unwrap();
        // One point is its own app's whole frontier.
        let p = &sweep.frontiers.per_app[0].1[0];
        for (name, value) in [
            ("speedup", p.speedup),
            ("area %", p.area_pct_of_gpu),
            ("power %", p.power_pct_of_gpu),
            ("gpu_ms", p.gpu_ms),
            ("ngpc_frame_ms", p.ngpc_frame_ms),
            ("amdahl_bound", p.amdahl_bound),
        ] {
            prop_assert!(value.is_finite() && value > 0.0, "{} = {} at {:?}", name, value, p.point);
        }
    }
}
