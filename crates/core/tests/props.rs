//! Property-based tests of the NGPC hardware model.

use ng_neural::apps::nsdf::NsdfModel;
use ng_neural::apps::EncodingKind;
use ng_neural::encoding::Encoding;
use ngpc::emulator::{emulate, EmulatorInput};
use ngpc::engine::FusedNfp;
use ngpc::sched::{frame_stream, overlapped_makespan_ms};
use ngpc::NfpConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn emulator_output_relations_hold(
        n in 1u32..512,
        clock in 0.2f64..4.0,
    ) {
        let r = emulate(&EmulatorInput {
            nfp_units: n,
            nfp: NfpConfig { clock_ghz: clock, ..NfpConfig::default() },
            ..EmulatorInput::default()
        });
        // A sufficiently starved NGPC (one slow NFP) may lose to the GPU;
        // the definition of speedup must still be self-consistent.
        prop_assert!((r.speedup - r.gpu_ms / r.ngpc_frame_ms).abs() < 1e-9);
        prop_assert!(r.speedup <= r.amdahl_bound + 1e-9);
        prop_assert!((r.gpu_accel_ms + r.gpu_rest_ms - r.gpu_ms).abs() < 1e-9);
        // Plateaued iff the fused-rest stage dominates.
        prop_assert_eq!(r.plateaued, r.ngpc_accel_ms <= r.fused_rest_ms);
    }

    #[test]
    fn fused_nfp_matches_reference_for_random_sram_configs(
        sram_kb in 64usize..4096,
        banks_log2 in 0u32..5,
        x in 0.0f32..1.0,
        y in 0.0f32..1.0,
        z in 0.0f32..1.0,
    ) {
        // Functional output must be independent of SRAM capacity/banking
        // (those only change timing).
        let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 3);
        let cfg = NfpConfig {
            grid_sram_bytes: sram_kb * 1024,
            grid_sram_banks: 1 << banks_log2,
            ..NfpConfig::default()
        };
        let table = std::sync::Arc::new(model.field().encoding.params().to_vec());
        let mut nfp = FusedNfp::from_field_shared(cfg, model.field(), &table).unwrap();
        let p = [x, y, z];
        prop_assert_eq!(nfp.query(&p).unwrap(), model.field().forward(&p).unwrap());
    }

    #[test]
    fn frame_streams_always_validate_and_conserve_queries(
        queries in 1u64..10_000_000,
        batches in 1u64..100,
        table_bytes in 0u64..100_000_000,
    ) {
        let buf = frame_stream(
            ng_neural::apps::AppKind::Nvr,
            EncodingKind::MultiResDenseGrid,
            table_bytes,
            queries,
            batches,
        );
        prop_assert!(buf.validate().is_ok());
        prop_assert_eq!(buf.dispatched_queries(), queries);
    }

    #[test]
    fn overlap_monotone_in_stage_times(
        a in 0.01f64..5.0,
        b in 0.01f64..5.0,
        extra in 0.0f64..5.0,
        n in 1u64..50,
    ) {
        let base = overlapped_makespan_ms(n, a, b);
        prop_assert!(overlapped_makespan_ms(n, a + extra, b) + 1e-12 >= base);
        prop_assert!(overlapped_makespan_ms(n, a, b + extra) + 1e-12 >= base);
        prop_assert!(overlapped_makespan_ms(n + 1, a, b) > base);
    }

    #[test]
    fn bandwidth_rows_scale_and_stay_positive(
        px in 100_000u64..40_000_000,
        fps in 10.0f64..240.0,
    ) {
        use ngpc::bandwidth::bandwidth_row;
        for app in ng_neural::apps::AppKind::ALL {
            let r = bandwidth_row(app, px, fps);
            prop_assert!(r.input_gbps > 0.0 && r.output_gbps > 0.0);
            prop_assert!(r.total_gbps + 1e-9 >= r.input_gbps + r.output_gbps);
            prop_assert!(r.access_time_ms > 0.0);
        }
    }

    #[test]
    fn more_macs_or_engines_never_decrease_throughput(
        mac_rows in 1u32..256,
        mac_cols in 1u32..256,
        engines in 1u32..64,
        extra_rows in 1u32..256,
        extra_cols in 1u32..256,
        extra_engines in 1u32..32,
    ) {
        use ngpc::emulator::per_sample_cycles;
        for enc in EncodingKind::ALL {
            for app in ng_neural::apps::AppKind::ALL {
                let base = NfpConfig {
                    mac_rows, mac_cols, encoding_engines: engines, ..NfpConfig::default()
                };
                let c0 = per_sample_cycles(app, enc, &base);
                // Growing any of the three axes never increases the
                // per-query issue interval (= never decreases modelled
                // throughput), individually or together.
                let grown = [
                    NfpConfig { mac_rows: mac_rows + extra_rows, ..base },
                    NfpConfig { mac_cols: mac_cols + extra_cols, ..base },
                    NfpConfig { encoding_engines: engines + extra_engines, ..base },
                    NfpConfig {
                        mac_rows: mac_rows + extra_rows,
                        mac_cols: mac_cols + extra_cols,
                        encoding_engines: engines + extra_engines,
                        ..base
                    },
                ];
                for g in grown {
                    let c1 = per_sample_cycles(app, enc, &g);
                    prop_assert!(
                        c1 <= c0 + 1e-12,
                        "{app}/{enc}: {c1} > {c0} ({base:?} -> {g:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn mac_engine_axes_monotone_in_end_to_end_speedup(
        n in 1u32..128,
        mac_shift in 0u32..3,
        engine_shift in 0u32..3,
    ) {
        use ngpc::emulator::mac_engine_factor;
        // End to end: a bigger MAC array or engine gang never slows a
        // configuration down (speedup is monotone through the factor,
        // the SRAM-pressure coupling, and the Amdahl cap).
        let dims = [32u32, 64, 128];
        let engines = [8u32, 16, 32];
        for enc in EncodingKind::ALL {
            for app in ng_neural::apps::AppKind::ALL {
                let small = NfpConfig {
                    mac_rows: dims[mac_shift as usize],
                    mac_cols: dims[mac_shift as usize],
                    encoding_engines: engines[engine_shift as usize],
                    ..NfpConfig::default()
                };
                let factor = mac_engine_factor(app, enc, &small);
                prop_assert!(factor.is_finite() && factor > 0.0);
                let lo = emulate(&EmulatorInput {
                    app, encoding: enc, nfp_units: n, nfp: small,
                    ..EmulatorInput::default()
                });
                let hi = emulate(&EmulatorInput {
                    app, encoding: enc, nfp_units: n,
                    nfp: NfpConfig {
                        mac_rows: 128, mac_cols: 128, encoding_engines: 32,
                        ..NfpConfig::default()
                    },
                    ..EmulatorInput::default()
                });
                prop_assert!(
                    hi.speedup + 1e-9 >= lo.speedup,
                    "{app}/{enc} N={n}: {} < {}", hi.speedup, lo.speedup
                );
            }
        }
    }
}

#[test]
fn compositional_model_equals_legacy_slopes_at_paper_nfp() {
    // ISSUE-3 acceptance: at the paper's NFP (16 engines, 64x64 MACs,
    // 1 GHz) the compositional model reproduces the calibrated legacy
    // slopes for every (app, encoding) pair — checked through the
    // emulator's public surface against the pinned paper-preset
    // outputs: the MAC/engine factor must be *exactly* 1.0 so that
    // every published number is byte-identical.
    use ngpc::emulator::{mac_engine_factor, per_sample_cycles};
    let paper = NfpConfig::default();
    for enc in EncodingKind::ALL {
        for app in ng_neural::apps::AppKind::ALL {
            let factor = mac_engine_factor(app, enc, &paper);
            assert!((factor - 1.0).abs() < 1e-9, "{app}/{enc}: {factor}");
            assert_eq!(factor, 1.0, "{app}/{enc}: must be exact, not just close");
            assert!(per_sample_cycles(app, enc, &paper) >= 1.0);
        }
    }
}
