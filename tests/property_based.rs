//! Property-based tests (proptest) on the core invariants that hold for
//! *arbitrary* inputs: encoding interpolation, hardware/software
//! equivalence, optimizer behaviour and the emulator's ordering
//! properties.

use neural_graphics_hw::prelude::*;
use ng_neural::apps::nsdf::NsdfModel;
use ng_neural::encoding::interp::CellPosition;
use ng_neural::encoding::{Encoding, GridConfig, MultiResGrid};
use ngpc::engine::FusedNfp;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpolation_weights_partition_unity(
        x in 0.0f32..1.0,
        y in 0.0f32..1.0,
        z in 0.0f32..1.0,
        scale in 1u32..512,
    ) {
        let cell = CellPosition::from_normalized(&[x, y, z], scale);
        let total: f32 = (0..cell.corner_count()).map(|c| cell.corner_weight(c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
        for c in 0..cell.corner_count() {
            prop_assert!(cell.corner_weight(c) >= 0.0);
        }
    }

    #[test]
    fn grid_encoding_bounded_by_table_extrema(
        x in 0.0f32..1.0,
        y in 0.0f32..1.0,
        seed in 0u64..50,
    ) {
        // Interpolation is a convex combination: outputs stay within the
        // per-level table min/max.
        let grid = MultiResGrid::new(GridConfig::hashgrid(2, 8, 1.4), seed).unwrap();
        let lo = grid.params().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = grid.params().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let out = grid.encode(&[x, y]).unwrap();
        for v in out {
            prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
        }
    }

    #[test]
    fn hardware_matches_software_for_random_points(
        x in 0.0f32..1.0,
        y in 0.0f32..1.0,
        z in 0.0f32..1.0,
    ) {
        // One shared model per test run would be faster, but proptest
        // closures take ownership; keep the grid tiny instead.
        let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 1);
        let table = std::sync::Arc::new(model.field().encoding.params().to_vec());
        let mut nfp =
            FusedNfp::from_field_shared(NfpConfig::default(), model.field(), &table).unwrap();
        let p = [x, y, z];
        prop_assert_eq!(nfp.query(&p).unwrap(), model.field().forward(&p).unwrap());
    }

    #[test]
    fn emulator_monotone_and_bounded(
        n1 in 1u32..256,
        n2 in 1u32..256,
    ) {
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let run = |n| emulate(&EmulatorInput { nfp_units: n, ..EmulatorInput::default() });
        let a = run(lo);
        let b = run(hi);
        prop_assert!(b.speedup + 1e-9 >= a.speedup);
        prop_assert!(a.speedup <= a.amdahl_bound + 1e-9);
        prop_assert!(b.speedup <= b.amdahl_bound + 1e-9);
    }

    #[test]
    fn adam_step_is_bounded_by_learning_rate(
        grad in prop::collection::vec(-100.0f32..100.0, 4),
        lr in 0.001f32..0.5,
    ) {
        // |update| <= lr / (1 - beta1) in the worst bias-corrected case;
        // with the first step it is ~lr per coordinate.
        use ng_neural::mlp::{Adam, AdamConfig};
        let mut adam = Adam::new(
            AdamConfig { learning_rate: lr, ..AdamConfig::default() },
            grad.len(),
        );
        let mut params = vec![0.0f32; grad.len()];
        adam.step(&mut params, &grad).unwrap();
        for (i, p) in params.iter().enumerate() {
            if grad[i] != 0.0 {
                prop_assert!(p.abs() <= lr * 1.01, "param {i} moved {p} with lr {lr}");
            }
        }
    }

    #[test]
    fn spatial_hash_stays_in_table(
        cx in 0u32..100_000,
        cy in 0u32..100_000,
        cz in 0u32..100_000,
        log2 in 4u32..24,
    ) {
        use ng_neural::encoding::hash::spatial_hash;
        prop_assert!(spatial_hash(&[cx, cy, cz], log2) < (1u32 << log2));
    }

    #[test]
    fn pipeline_makespan_bounds(
        a in 0.01f64..10.0,
        b in 0.01f64..10.0,
        n in 1u64..100,
    ) {
        use ngpc::sched::{overlapped_makespan_ms, serial_makespan_ms};
        let over = overlapped_makespan_ms(n, a, b);
        let serial = serial_makespan_ms(n, a, b);
        prop_assert!(over <= serial + 1e-9);
        // Lower bound: the busier stage must run n times.
        prop_assert!(over + 1e-9 >= n as f64 * a.max(b));
    }
}
