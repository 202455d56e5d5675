//! Property tests of the guided searcher: with a budget covering the
//! whole space, guided search degenerates to exactly the cross-app
//! Pareto frontier of one `ngpc::emulate` call a point — for arbitrary
//! (small) axis subsets, both strategies, and any seed. The reference does not read the factor tables the searcher
//! evaluates from.

use ng_dse::spec::Space;
use ng_dse::sweep::{arch_frontier, evaluate_points};
use ng_dse::{ArchPoint, Constraints, SearchSpec, SearchStrategy, Searcher, SweepSpec};
use ng_neural::apps::EncodingKind;
use proptest::prelude::*;

/// Sort frontier objectives for set comparison.
fn canon(frontier: &[ArchPoint]) -> Vec<(u64, u64, u64)> {
    let mut keys: Vec<(u64, u64, u64)> = frontier
        .iter()
        .map(|a| {
            (a.avg_speedup.to_bits(), a.area_pct_of_gpu.to_bits(), a.power_pct_of_gpu.to_bits())
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Every architecture of `spec`, in arch order, folded from one
/// [`evaluate_points`] call over its app points.
fn reference_archs(spec: &SweepSpec) -> Vec<ArchPoint> {
    let space = Space::new(spec);
    (0..space.arch_count())
        .map(|k| {
            let idx = space.decode(k);
            let points: Vec<_> = (0..spec.apps.len()).map(|a| space.point(&idx, a)).collect();
            ArchPoint::from_app_points(evaluate_points(&points, 1))
        })
        .collect()
}

/// A small randomized spec: every axis draws a subset so the space
/// stays a few dozen architectures.
fn small_spec(
    encodings: usize,
    units: usize,
    srams: usize,
    lanes: usize,
    fifos: usize,
) -> SweepSpec {
    let take = |all: &[u32], n: usize| all[..n.max(1)].to_vec();
    let mut spec = SweepSpec::quick();
    spec.encodings = EncodingKind::ALL[..encodings.max(1)].to_vec();
    spec.nfp_units = take(&[8, 16, 32, 64], units);
    spec.grid_sram_kb = take(&[1024, 512], srams);
    spec.lanes_per_engine = take(&[1, 2], lanes);
    spec.input_fifo_depth = take(&[64, 8], fifos);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn saturated_budget_recovers_the_exhaustive_frontier(
        encodings in 1usize..=3,
        units in 1usize..=4,
        srams in 1usize..=2,
        lanes in 1usize..=2,
        fifos in 1usize..=2,
        seed in 0u64..1_000_000,
        evolutionary in 0u8..2,
    ) {
        let strategy =
            if evolutionary == 1 { SearchStrategy::Evolutionary } else { SearchStrategy::HillClimb };
        let spec = small_spec(encodings, units, srams, lanes, fifos);
        let expected = arch_frontier(&reference_archs(&spec), &Constraints::NONE);
        let search = SearchSpec { strategy, budget: spec.point_count(), seed };
        let outcome = Searcher::new().run(&spec, &search).unwrap();
        prop_assert!(outcome.stats.exhaustive);
        prop_assert_eq!(outcome.stats.evaluations, spec.point_count());
        prop_assert_eq!(canon(&outcome.frontier), canon(&expected));
    }

    #[test]
    fn partial_budget_frontier_members_are_truly_non_dominated(
        seed in 0u64..1_000_000,
    ) {
        // With a partial budget the searched frontier is a subset of
        // the visited set's frontier; every member must survive against
        // the TRUE exhaustive frontier's dominance (a searched point may
        // be missing, but never bogus: whatever the searcher reports as
        // non-dominated among its visits must not be dominated by any
        // other *reported* point, and every reported point must appear
        // in the exhaustive evaluation with identical objectives).
        let spec = small_spec(2, 4, 2, 2, 2);
        let all = reference_archs(&spec);
        let search = SearchSpec {
            budget: spec.point_count() / 3,
            seed,
            ..SearchSpec::default()
        };
        let outcome = Searcher::new().run(&spec, &search).unwrap();
        prop_assert!(outcome.stats.evaluations <= search.budget);
        for a in &outcome.frontier {
            let twin = all.iter().find(|b| {
                b.encoding == a.encoding
                    && b.nfp_units == a.nfp_units
                    && b.grid_sram_kb == a.grid_sram_kb
                    && b.lanes_per_engine == a.lanes_per_engine
                    && b.input_fifo_depth == a.input_fifo_depth
            });
            let twin = twin.expect("searched arch exists in the exhaustive fold");
            prop_assert_eq!(twin.avg_speedup.to_bits(), a.avg_speedup.to_bits());
            prop_assert_eq!(twin.area_pct_of_gpu.to_bits(), a.area_pct_of_gpu.to_bits());
        }
    }
}
