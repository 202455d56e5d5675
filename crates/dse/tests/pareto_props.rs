//! Property tests of the Pareto module: the streaming frontier against
//! an all-pairs oracle, its internal consistency, insertion-order
//! invariance, and constraint soundness over randomized objective
//! clouds.

use ng_dse::{Constraints, Objectives, StreamingFrontier};
use proptest::prelude::*;

/// Build an objective cloud from a flat coordinate vector (3 per point).
fn cloud(coords: &[f64]) -> Vec<Objectives> {
    coords
        .chunks_exact(3)
        .map(|c| Objectives { speedup: c[0], area_pct: c[1], power_pct: c[2] })
        .collect()
}

/// Indices the streaming frontier keeps, ascending.
fn streamed(objs: &[Objectives], constraints: &Constraints) -> Vec<usize> {
    let mut f = StreamingFrontier::new();
    for (i, &o) in objs.iter().enumerate() {
        f.insert_constrained(o, i, constraints);
    }
    let mut kept = f.into_payloads();
    kept.sort_unstable();
    kept
}

/// The O(n²) definition of the frontier: admitted points that no
/// admitted point dominates, ascending.
fn oracle(objs: &[Objectives], constraints: &Constraints) -> Vec<usize> {
    let admitted = |o: &Objectives| constraints.admits(o);
    (0..objs.len())
        .filter(|&i| {
            admitted(&objs[i]) && !objs.iter().any(|o| admitted(o) && o.dominates(&objs[i]))
        })
        .collect()
}

/// Deterministic Fisher–Yates from a seed (xorshift64).
fn permute<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    seed |= 1;
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

/// Sort objective triples for set comparison (values, not indices).
fn sorted_bits(objs: &[Objectives]) -> Vec<(u64, u64, u64)> {
    let mut keys: Vec<(u64, u64, u64)> = objs
        .iter()
        .map(|o| (o.speedup.to_bits(), o.area_pct.to_bits(), o.power_pct.to_bits()))
        .collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_frontier_point_dominates_another(
        coords in prop::collection::vec(0.0f64..100.0, 0..120),
    ) {
        let objs = cloud(&coords);
        let frontier = streamed(&objs, &Constraints::NONE);
        for &i in &frontier {
            for &j in &frontier {
                prop_assert!(
                    !objs[i].dominates(&objs[j]),
                    "frontier point {i} dominates frontier point {j}"
                );
            }
        }
    }

    #[test]
    fn every_excluded_point_is_dominated_by_a_frontier_point(
        coords in prop::collection::vec(0.0f64..50.0, 0..90),
    ) {
        let objs = cloud(&coords);
        let frontier = streamed(&objs, &Constraints::NONE);
        for i in 0..objs.len() {
            if frontier.contains(&i) {
                continue;
            }
            prop_assert!(
                frontier.iter().any(|&j| objs[j].dominates(&objs[i])),
                "excluded point {i} is dominated by no frontier point"
            );
        }
    }

    #[test]
    fn constraints_never_admit_an_out_of_budget_point(
        coords in prop::collection::vec(0.0f64..100.0, 0..120),
        max_area in 0.0f64..100.0,
        max_power in 0.0f64..100.0,
        min_speedup in 0.0f64..100.0,
    ) {
        let objs = cloud(&coords);
        let budget = Constraints {
            max_area_pct: Some(max_area),
            max_power_pct: Some(max_power),
            min_speedup: Some(min_speedup),
        };
        for &i in &streamed(&objs, &budget) {
            prop_assert!(objs[i].area_pct <= max_area);
            prop_assert!(objs[i].power_pct <= max_power);
            prop_assert!(objs[i].speedup >= min_speedup);
        }
        // And the filter alone (independent of frontier extraction)
        // agrees with admits().
        for (i, o) in objs.iter().enumerate() {
            if budget.admits(o) {
                prop_assert!(
                    o.area_pct <= max_area && o.power_pct <= max_power
                        && o.speedup >= min_speedup,
                    "admits() admitted out-of-budget point {i}"
                );
            }
        }
    }

    #[test]
    fn streaming_frontier_is_set_equal_to_the_all_pairs_oracle(
        coords in prop::collection::vec(0.0f64..50.0, 0..120),
        dup_seed in 0u64..1_000_000,
        max_area in 0.0f64..70.0,
        min_speedup in 0.0f64..35.0,
        unconstrained in 0u8..2,
    ) {
        // Build a cloud, then splice in exact duplicates of some points
        // (picked by a seeded walk) so ties-on-all-objectives are
        // exercised, not just hoped for.
        let mut objs = cloud(&coords);
        if !objs.is_empty() {
            let mut seed = dup_seed | 1;
            for _ in 0..objs.len() / 4 + 1 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let copy = objs[(seed % objs.len() as u64) as usize];
                objs.push(copy);
            }
        }
        let constraints = if unconstrained == 1 {
            Constraints::NONE
        } else {
            Constraints {
                max_area_pct: Some(max_area),
                min_speedup: Some(min_speedup),
                ..Constraints::NONE
            }
        };
        prop_assert_eq!(streamed(&objs, &constraints), oracle(&objs, &constraints));
    }

    #[test]
    fn streaming_insert_order_is_irrelevant(
        coords in prop::collection::vec(0.0f64..100.0, 0..90),
        seed in 0u64..1_000_000,
    ) {
        let objs = cloud(&coords);
        let shuffled = permute(&objs, seed);
        let run = |input: &[Objectives]| -> Vec<Objectives> {
            let mut f = StreamingFrontier::new();
            for &o in input {
                f.insert(o, o);
            }
            f.into_payloads()
        };
        prop_assert_eq!(sorted_bits(&run(&objs)), sorted_bits(&run(&shuffled)));
    }

    #[test]
    fn duplicating_a_frontier_point_keeps_both_copies(
        coords in prop::collection::vec(0.0f64..100.0, 3..60),
    ) {
        let objs = cloud(&coords);
        let frontier = streamed(&objs, &Constraints::NONE);
        if let Some(&i) = frontier.first() {
            let mut doubled = objs.clone();
            doubled.push(objs[i]);
            let f2 = streamed(&doubled, &Constraints::NONE);
            prop_assert!(f2.contains(&i));
            prop_assert!(f2.contains(&(doubled.len() - 1)), "equal duplicate must survive");
        }
    }
}
