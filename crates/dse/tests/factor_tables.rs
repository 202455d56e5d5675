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
//! on the random specs, under a budget and without. The searcher's
//! per-architecture fold, [`FactorTables::arch`], is pinned against the
//! oracle on random architectures of the same specs.

use std::io;
use std::time::Duration;

use ng_dse::emit::{outcome_to_json, points_to_csv};
use ng_dse::factors::FactorTables;
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
    /// without a budget.
    #[test]
    fn table_path_matches_emulate_bit_for_bit(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let oracle = oracle(&spec);
        let csv = points_to_csv(&oracle.points);
        let sweep = SweepEngine::new().with_threads(3).run(&spec, &Constraints::NONE, false);
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
            let want_cross_app = oracle.cross_app_frontier(&constraints);
            let want_per_app: Vec<_> = AppKind::ALL
                .into_iter()
                .filter(|app| spec.apps.contains(app))
                .map(|app| (app, oracle.per_app_frontier(app, &constraints)))
                .collect();
            for threads in [3, 7] {
                let sweep = SweepEngine::new().with_threads(threads);
                let frontiers = sweep.run(&spec, &constraints, true).unwrap().frontiers;
                prop_assert_eq!(frontiers.archs, cross_app.len());
                prop_assert_eq!(&frontiers.cross_app, &want_cross_app, "{} threads", threads);
                prop_assert_eq!(&frontiers.per_app, &want_per_app, "{} threads", threads);
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
            let sweep = sweep.run(&spec, &Constraints::NONE, false).unwrap();
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
