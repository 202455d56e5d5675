//! The incremental-evaluation contract of the point-level cache
//! (ISSUE 2 satellites): growing a cached sweep must (a) evaluate only
//! the delta and (b) produce results point-for-point identical to a
//! cold full evaluation, and shard corruption must degrade to misses
//! for exactly the points the shard held.

use std::fs;
use std::path::PathBuf;

use ng_dse::{EvalCache, SweepEngine, SweepSpec};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ng-dse-incremental-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A family of spec pairs (subset, full): the full spec is `quick`
/// grown along one axis; the subset drops the axis's tail.
fn grown_axis_cases() -> Vec<(SweepSpec, SweepSpec)> {
    let mut cases = Vec::new();

    let mut full = SweepSpec::quick();
    full.clock_ghz = vec![0.75, 1.0, 1.25];
    let mut half = full.clone();
    half.clock_ghz.truncate(1);
    cases.push((half, full));

    let mut full = SweepSpec::quick();
    full.nfp_units = vec![8, 16, 32, 64];
    let mut half = full.clone();
    half.nfp_units.truncate(2);
    cases.push((half, full));

    let mut full = SweepSpec::quick();
    full.grid_sram_kb = vec![512, 1024, 2048];
    let mut half = full.clone();
    half.grid_sram_kb.truncate(2);
    cases.push((half, full));

    let mut full = SweepSpec::quick();
    full.pixels = vec![1280 * 720, 1920 * 1080];
    let mut half = full.clone();
    half.pixels.truncate(1);
    cases.push((half, full));

    // The lane/FIFO axes opened in ISSUE 4: growing either must hit the
    // cached paper-default points and evaluate only the new values.
    let mut full = SweepSpec::quick();
    full.lanes_per_engine = vec![1, 2, 4];
    let mut half = full.clone();
    half.lanes_per_engine.truncate(1);
    cases.push((half, full));

    let mut full = SweepSpec::quick();
    full.input_fifo_depth = vec![64, 8, 2];
    let mut half = full.clone();
    half.input_fifo_depth.truncate(1);
    cases.push((half, full));

    cases
}

#[test]
fn half_then_grown_equals_full_sweep_point_for_point() {
    for (i, (half, full)) in grown_axis_cases().into_iter().enumerate() {
        let dir = tmpdir(&format!("grow-{i}"));
        let engine = SweepEngine::new().with_cache_dir(&dir);

        let warmup = engine.run(&half).unwrap();
        let grown = engine.run(&full).unwrap();
        let reference = SweepEngine::new().run(&full).unwrap();

        assert_eq!(grown.points.len(), reference.points.len(), "case {i}");
        for (a, b) in grown.points.iter().zip(&reference.points) {
            assert_eq!(a, b, "case {i}: cached-then-grown diverges from cold full sweep");
        }
        // Only the delta was evaluated.
        assert_eq!(
            grown.stats.evaluated,
            full.point_count() - half.point_count(),
            "case {i}: grown run must evaluate only the new points"
        );
        assert_eq!(grown.stats.cache_hits, warmup.stats.total_points, "case {i}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized prefix split: evaluating any prefix of an axis first,
    /// then the full spec, is indistinguishable from one cold sweep.
    #[test]
    fn random_prefix_then_full_matches_cold(split in 1usize..4, case in 0usize..4) {
        let (_, full) = grown_axis_cases().into_iter().nth(case).unwrap();
        let mut half = full.clone();
        // Shrink one axis to a random prefix (pick the axis the case grew).
        match case {
            0 => half.clock_ghz.truncate(split.min(half.clock_ghz.len() - 1)),
            1 => half.nfp_units.truncate(split.min(half.nfp_units.len() - 1)),
            2 => half.grid_sram_kb.truncate(split.min(half.grid_sram_kb.len() - 1)),
            _ => half.pixels.truncate(split.min(half.pixels.len() - 1)),
        }
        let dir = tmpdir(&format!("prop-{case}-{split}"));
        let engine = SweepEngine::new().with_cache_dir(&dir);
        engine.run(&half).unwrap();
        let grown = engine.run(&full).unwrap();
        let reference = SweepEngine::new().run(&full).unwrap();
        prop_assert_eq!(&grown.points, &reference.points);
        prop_assert_eq!(
            grown.stats.evaluated,
            full.point_count() - half.point_count()
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupted_shard_misses_only_its_points() {
    let dir = tmpdir("corrupt-shard");
    let spec = SweepSpec::quick();
    let engine = SweepEngine::new().with_cache_dir(&dir);
    let first = engine.run(&spec).unwrap();

    // Overwrite one whole shard with garbage; every other shard is
    // untouched.
    let cache = EvalCache::new(&dir);
    let points = spec.points();
    let victim_key = EvalCache::point_key(&points[0]);
    let victim_shard = cache.shard_path(victim_key);
    let in_victim =
        points.iter().filter(|p| cache.shard_path(EvalCache::point_key(p)) == victim_shard).count();
    assert!(in_victim > 0 && in_victim < points.len(), "quick spec spans several shards");
    fs::write(&victim_shard, "total garbage\nnot,a,row\n").unwrap();

    let second = engine.run(&spec).unwrap();
    assert_eq!(
        second.stats.evaluated, in_victim,
        "exactly the corrupted shard's points are re-evaluated"
    );
    assert_eq!(second.stats.cache_hits, points.len() - in_victim);
    assert_eq!(second.points, first.points, "results unchanged after self-heal");

    // The re-evaluation healed the shard: a third run is a full hit.
    let third = engine.run(&spec).unwrap();
    assert!(third.stats.cache_hit);
    assert_eq!(third.stats.evaluated, 0);
    fs::remove_dir_all(&dir).unwrap();
}
