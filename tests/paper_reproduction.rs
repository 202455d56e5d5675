//! Integration tests pinning every *published* number of the paper's
//! evaluation to this reproduction, across crate boundaries.

use neural_graphics_hw::prelude::*;
use ngpc::emulator::average_speedup;
use ngpc::kernels::{kernel_speedup, AcceleratedKernel, REST_FUSION_SPEEDUP};

const FHD: u64 = 1920 * 1080;
const UHD4K: u64 = 3840 * 2160;

#[test]
fn section3_fhd_frame_times() {
    let hg = EncodingKind::MultiResHashGrid;
    assert_eq!(frame_time_ms(AppKind::Nerf, hg, FHD), 231.0);
    assert_eq!(frame_time_ms(AppKind::Nsdf, hg, FHD), 27.87);
    assert_eq!(frame_time_ms(AppKind::Gia, hg, FHD), 2.12);
    assert_eq!(frame_time_ms(AppKind::Nvr, hg, FHD), 6.32);
}

#[test]
fn section1_gap_interval() {
    // "a gap of ~1.51x to 55.50x in the desired performance"
    let hg = EncodingKind::MultiResHashGrid;
    let budget = 1000.0 / 60.0;
    let gaps: Vec<f64> =
        AppKind::ALL.iter().map(|&a| frame_time_ms(a, hg, UHD4K) / budget).collect();
    let max = gaps.iter().cloned().fold(0.0, f64::max);
    assert!((max - 55.50).abs() < 0.1);
    // GIA meets the target, so the *gap* interval starts at NVR's 1.51.
    let min_above_one = gaps.iter().cloned().filter(|g| *g > 1.0).fold(f64::MAX, f64::min);
    assert!((min_above_one - 1.51).abs() < 0.02);
}

#[test]
fn fig12_average_speedups_all_encodings() {
    let cases = [
        (EncodingKind::MultiResHashGrid, [12.94, 20.85, 33.73, 39.04]),
        (EncodingKind::MultiResDenseGrid, [9.05, 14.22, 22.57, 26.22]),
        (EncodingKind::LowResDenseGrid, [9.37, 14.66, 22.97, 26.4]),
    ];
    for (enc, targets) in cases {
        for (&n, target) in NgpcConfig::SCALING_FACTORS.iter().zip(targets) {
            let avg = average_speedup(enc, n);
            assert!(
                (avg - target).abs() / target < 0.015,
                "{enc} NGPC-{n}: {avg} vs paper {target}"
            );
        }
    }
}

#[test]
fn fig13_kernel_speedups_at_64() {
    let e = AcceleratedKernel::InputEncoding;
    let m = AcceleratedKernel::Mlp;
    assert_eq!(kernel_speedup(EncodingKind::MultiResHashGrid, e, 64), 246.0);
    assert_eq!(kernel_speedup(EncodingKind::MultiResHashGrid, m, 64), 1232.0);
    assert_eq!(kernel_speedup(EncodingKind::MultiResDenseGrid, e, 64), 379.0);
    assert_eq!(kernel_speedup(EncodingKind::MultiResDenseGrid, m, 64), 1070.0);
    assert_eq!(kernel_speedup(EncodingKind::LowResDenseGrid, e, 64), 2353.0);
    assert_eq!(kernel_speedup(EncodingKind::LowResDenseGrid, m, 64), 1451.0);
    assert_eq!(REST_FUSION_SPEEDUP, 9.94);
}

#[test]
fn fig14_headline_resolutions() {
    use ng_neural::render::image::Resolution;
    use ngpc::pixels::pixel_budget;
    let hg = EncodingKind::MultiResHashGrid;
    // NeRF: 4k at 30 FPS with NGPC-64.
    let nerf = pixel_budget(AppKind::Nerf, hg, 64, 30.0);
    assert!(nerf.ngpc_pixels >= Resolution::Uhd4k.pixels());
    // GIA + NVR: 8k at 120 FPS.
    for app in [AppKind::Gia, AppKind::Nvr] {
        let b = pixel_budget(app, hg, 64, 120.0);
        assert!(b.ngpc_pixels >= Resolution::Uhd8k.pixels(), "{app}");
    }
}

#[test]
fn fig15_area_power_percentages() {
    let area_targets = [(8u32, 4.52f64), (16, 9.04), (32, 18.01), (64, 36.18)];
    let power_targets = [(8u32, 2.75f64), (16, 5.51), (32, 11.03), (64, 22.06)];
    for ((n, a), (_, p)) in area_targets.into_iter().zip(power_targets) {
        let r = ng_hw::ngpc_area_power(n);
        assert!((r.area_pct_of_gpu - a).abs() / a < 0.06, "area NGPC-{n}: {}", r.area_pct_of_gpu);
        assert!(
            (r.power_pct_of_gpu - p).abs() / p < 0.06,
            "power NGPC-{n}: {}",
            r.power_pct_of_gpu
        );
    }
}

#[test]
fn table3_bandwidths() {
    use ngpc::bandwidth::table3;
    let rows = table3();
    let nerf = rows.iter().find(|r| r.app == AppKind::Nerf).unwrap();
    assert!((nerf.total_gbps - 231.743).abs() < 0.5);
    assert!((nerf.access_time_ms - 4.126).abs() < 0.02);
    let nsdf = rows.iter().find(|r| r.app == AppKind::Nsdf).unwrap();
    assert!((nsdf.total_gbps - 69.523).abs() < 0.2);
    assert!((nsdf.access_time_ms - 1.238).abs() < 0.01);
}

#[test]
fn emulator_against_timeloop_within_seven_percent() {
    // The paper's Fig. 13 cross-check: MLP engine model vs Timeloop +
    // Accelergy within ~7%.
    use ng_timeloop::arch::PeArray;
    use ng_timeloop::energy::EnergyTable;
    use ng_timeloop::evaluate_mlp;
    use ngpc::engine::MlpEngine;

    for (input, layers, output) in [(32usize, 3usize, 16usize), (32, 4, 1), (16, 4, 4)] {
        let mlp = ng_neural::mlp::Mlp::new(
            ng_neural::mlp::MlpConfig::neural_graphics(
                input,
                layers,
                output,
                ng_neural::math::Activation::None,
            ),
            1,
        )
        .unwrap();
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        let batch = 50_000u64;
        let ours = engine.batch_cycles(batch) as f64;
        let ta = evaluate_mlp(
            &PeArray::nfp_mlp_engine(),
            &EnergyTable::default(),
            batch,
            input as u64,
            64,
            layers as u64,
            output as u64,
        )
        .cycles as f64;
        let diff = (ours - ta).abs() / ta;
        assert!(diff < 0.07, "{input}->{layers}x64->{output}: {diff:.3}");
    }
}

#[test]
fn timeloop_best_mapping_equals_the_fixed_tile_model() {
    // The Fig. 13 cross-check at layer granularity: on every MAC array
    // the paper and the sweep presets use, plus non-power-of-two sides,
    // the mapper's best mapping of every Table I MLP layer takes exactly
    // the cycles of the NFP's fixed full-array tiling, so the
    // emulator's MLP stage equals the searched schedule.
    use ng_timeloop::{best_mapping, layer_problem, EnergyTable};
    use ngpc::emulator::{mlp_layer_shapes, mlp_query_cycles};
    use ngpc::engine::mlp_engine::layer_tiles;

    const BATCH: u64 = 4096;
    let sides = [1u32, 3, 7, 32, 48, 64, 100, 128, 1000];
    let mut shapes: Vec<(usize, usize)> = EncodingKind::ALL
        .iter()
        .flat_map(|&enc| AppKind::ALL.iter().flat_map(move |&app| mlp_layer_shapes(app, enc)))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    let table = EnergyTable::default();
    for mac_rows in sides {
        for mac_cols in sides {
            let nfp = NfpConfig { mac_rows, mac_cols, ..NfpConfig::default() };
            let searched: Vec<((usize, usize), u64)> = shapes
                .iter()
                .map(|&(rows, cols)| {
                    let (gemm, arch) = layer_problem(&nfp, rows, cols, BATCH);
                    ((rows, cols), best_mapping(&gemm, &arch, &table).cost.cycles)
                })
                .collect();
            for &((rows, cols), cycles) in &searched {
                let tiles = layer_tiles(rows, cols, mac_rows as usize, mac_cols as usize) as u64;
                assert_eq!(cycles, tiles * BATCH, "{rows}x{cols} layer on {mac_rows}x{mac_cols}");
            }
            for enc in EncodingKind::ALL {
                for app in AppKind::ALL {
                    let stack: u64 = mlp_layer_shapes(app, enc)
                        .map(|shape| searched.iter().find(|(s, _)| *s == shape).unwrap().1)
                        .sum();
                    let fixed = mlp_query_cycles(app, enc, &nfp) * BATCH as f64;
                    assert_eq!(stack as f64, fixed, "{app}/{enc} on {mac_rows}x{mac_cols}");
                }
            }
        }
    }
}

#[test]
fn amdahl_sanity_check_over_full_grid() {
    // The paper's own validation: reported speedup always under the
    // Amdahl-driven analytical bound.
    for enc in EncodingKind::ALL {
        for app in AppKind::ALL {
            for n in [1u32, 2, 8, 16, 32, 64, 128, 512] {
                let r = emulate(&EmulatorInput {
                    app,
                    encoding: enc,
                    nfp_units: n,
                    ..EmulatorInput::default()
                });
                assert!(r.speedup <= r.amdahl_bound + 1e-9, "{app}/{enc}/{n}");
                assert!(r.speedup >= 1.0 || n == 1, "{app}/{enc}/{n}: {}", r.speedup);
            }
        }
    }
}
