//! The sweep's walk is bounded: it skips every block of architectures
//! whose optimistic bound the worker's frontiers reject. Skipping must
//! change nothing a run reports. On random small specs, with and without
//! the per-app frontiers and a budget, at 1, 2 and 7 threads, the
//! sweep's frontiers equal those of the `emulate` oracle
//! (`evaluate_points`), payloads and order, and the frontier churn
//! (`frontier.inserts`, `frontier.prunes`) equals what one unbounded
//! pass over the oracle's points counts when split into the same
//! ranges and merged in range order. This file holds one test, so no
//! other test of its process moves those counters while it reads them.

use std::time::Duration;

use ng_dse::spec::Space;
use ng_dse::sweep::{evaluate_points, Frontiers};
use ng_dse::{
    Constraints, Objectives, StreamingFrontier, SweepEngine, SweepOutcome, SweepSpec, SweepStats,
};
use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::math::Pcg32;
use proptest::prelude::*;

/// Upper bound on a random spec's points (the oracle is one `emulate`
/// call a point in a debug build).
const MAX_POINTS: usize = 6_000;

/// A random non-empty prefix of a shuffled `pool`.
fn subset<T: Copy>(rng: &mut Pcg32, pool: &[T], len: usize) -> Vec<T> {
    let mut items = pool.to_vec();
    for i in (1..items.len()).rev() {
        items.swap(i, rng.bounded(i as u32 + 1) as usize);
    }
    items.truncate(len.clamp(1, pool.len()));
    items
}

/// A random spec of at most [`MAX_POINTS`] points. The last four arch
/// axes (MAC rows and columns, and the block axes, lanes and FIFO
/// depth) get two or three values, so that blocks hold several
/// architectures and ranges cut some of them.
fn random_spec(seed: u64) -> SweepSpec {
    let mut rng = Pcg32::new(seed);
    let app_count = 1 + rng.bounded(4) as usize;
    let apps = subset(&mut rng, &AppKind::ALL, app_count);
    let mut lens: Vec<usize> = (0..11)
        .map(|axis| if axis >= 7 { 2 + rng.bounded(2) } else { 1 + rng.bounded(3) } as usize)
        .collect();
    while apps.len() * lens.iter().product::<usize>() > MAX_POINTS {
        let i = rng.bounded(7) as usize;
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

/// Offer `objectives` to `frontier`, adding an accepted offer to
/// `churn[0]` and the members it evicted to `churn[1]`.
fn offer<T>(
    frontier: &mut StreamingFrontier<T>,
    objectives: Objectives,
    payload: T,
    c: &Constraints,
    churn: &mut [u64; 2],
) {
    let before = frontier.len();
    if frontier.insert_constrained(objectives, payload, c) {
        churn[0] += 1;
        churn[1] += (before + 1 - frontier.len()) as u64;
    }
}

/// The churn of an unbounded fold of the oracle's points: each of
/// `threads` ranges (split as the sweep splits them) into its own
/// frontiers, merged in range order by re-inserting the survivors.
fn oracle_churn(oracle: &SweepOutcome, c: &Constraints, per_app: bool, threads: usize) -> [u64; 2] {
    let archs = oracle.cross_app();
    let apps = oracle.spec.apps.len();
    let chunk = archs.len().div_ceil(threads.min(archs.len()));
    let mut churn = [0; 2];
    // Per range: the cross-app frontier, then one per app if asked for.
    let parts: Vec<Vec<StreamingFrontier<usize>>> = (0..archs.len())
        .step_by(chunk)
        .map(|lo| {
            let mut frontiers: Vec<_> =
                (0..1 + if per_app { apps } else { 0 }).map(|_| StreamingFrontier::new()).collect();
            for flat in lo..(lo + chunk).min(archs.len()) {
                for (app, frontier) in frontiers[1..].iter_mut().enumerate() {
                    let point = &oracle.points[app * archs.len() + flat];
                    offer(frontier, point.objectives(), flat, c, &mut churn);
                }
                offer(&mut frontiers[0], archs[flat].objectives(), flat, c, &mut churn);
            }
            frontiers
        })
        .collect();
    let mut parts = parts.into_iter();
    let mut whole = parts.next().expect("a space has an architecture");
    for part in parts {
        for (frontier, later) in whole.iter_mut().zip(part) {
            for (objectives, flat) in later.iter() {
                offer(frontier, *objectives, *flat, &Constraints::NONE, &mut churn);
            }
        }
    }
    churn
}

/// The current values of the churn counters and of `eval.ticks`.
fn counters() -> [u64; 3] {
    ["frontier.inserts", "frontier.prunes", "eval.ticks"].map(|name| ng_obs::counter(name).get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bounded_fold_matches_the_oracle_and_its_churn(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        let oracle = SweepOutcome {
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
        };
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let archs = oracle.cross_app();
        let budget = Constraints {
            max_area_pct: Some(median(archs.iter().map(|a| a.area_pct_of_gpu).collect())),
            max_power_pct: None,
            min_speedup: Some(median(archs.iter().map(|a| a.avg_speedup).collect())),
        };
        for c in [Constraints::NONE, budget] {
            let bounded = SweepSpec { constraints: c, ..spec.clone() };
            for per_app in [false, true] {
                let want = Frontiers {
                    archs: Space::new(&spec).arch_count(),
                    cross_app: oracle.cross_app_frontier(&c),
                    per_app: if per_app {
                        AppKind::ALL
                            .into_iter()
                            .filter(|app| spec.apps.contains(app))
                            .map(|app| (app, oracle.per_app_frontier(app, &c)))
                            .collect()
                    } else {
                        Vec::new()
                    },
                };
                for threads in [1, 2, 7] {
                    let churn = oracle_churn(&oracle, &c, per_app, threads);
                    let before = counters();
                    let sweep = SweepEngine::new().with_threads(threads).run(&bounded, per_app);
                    let after = counters();
                    let at = format!("{}, {c:?}, per_app {per_app}, {threads} threads", spec.name);
                    prop_assert_eq!(&sweep.unwrap().frontiers, &want, "{}", at);
                    prop_assert_eq!([after[0] - before[0], after[1] - before[1]], churn, "{}", at);
                    prop_assert_eq!(after[2] - before[2], spec.point_count() as u64, "{}", at);
                }
            }
        }
    }
}
