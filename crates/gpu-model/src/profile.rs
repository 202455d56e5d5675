//! Profile outputs: the paper's Fig. 5 kernel breakdown and Table II
//! utilization data.
//!
//! Table II is printed in full in the paper, so it is reproduced here as
//! reference data; alongside it the cost model produces its own estimated
//! utilizations so the two can be compared (that comparison is part of
//! `EXPERIMENTS.md`).

use ng_neural::apps::{AppKind, EncodingKind};

use crate::calibrate::{fractions, KernelFractions};
use crate::cost::estimate_frame;
use crate::spec::GpuSpec;
use crate::workload::FrameWorkload;

/// Fig. 5 row: one application's kernel breakdown (percent of cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// Application.
    pub app: AppKind,
    /// Percent of application cycles in the input-encoding kernel.
    pub encoding_pct: f64,
    /// Percent of application cycles in the MLP kernel.
    pub mlp_pct: f64,
    /// Percent of application cycles in all remaining kernels.
    pub rest_pct: f64,
}

/// The full Fig. 5 panel for one encoding type, plus averages.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownFigure {
    /// Encoding type of this panel.
    pub encoding: EncodingKind,
    /// Per-application rows.
    pub rows: Vec<BreakdownRow>,
    /// Cross-application average encoding percentage.
    pub avg_encoding_pct: f64,
    /// Cross-application average MLP percentage.
    pub avg_mlp_pct: f64,
}

/// Compute the Fig. 5 panel for one encoding type.
pub fn breakdown_figure(encoding: EncodingKind) -> BreakdownFigure {
    let rows: Vec<BreakdownRow> = AppKind::ALL
        .iter()
        .map(|&app| {
            let f: KernelFractions = fractions(app, encoding);
            BreakdownRow {
                app,
                encoding_pct: f.encoding * 100.0,
                mlp_pct: f.mlp * 100.0,
                rest_pct: f.rest * 100.0,
            }
        })
        .collect();
    let avg_encoding_pct = rows.iter().map(|r| r.encoding_pct).sum::<f64>() / rows.len() as f64;
    let avg_mlp_pct = rows.iter().map(|r| r.mlp_pct).sum::<f64>() / rows.len() as f64;
    BreakdownFigure { encoding, rows, avg_encoding_pct, avg_mlp_pct }
}

/// One Table II row (per-kernel utilization), as measured by the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationRow {
    /// Application.
    pub app: AppKind,
    /// Encoding type.
    pub encoding: EncodingKind,
    /// `true` for the encoding kernel, `false` for the MLP kernel.
    pub is_encoding_kernel: bool,
    /// CUDA grid dimensions of the kernel launch.
    pub grid: (u32, u32, u32),
    /// CUDA block dimensions.
    pub block: (u32, u32, u32),
    /// Compute utilization per kernel call (percent).
    pub compute_util_per_call: f64,
    /// Memory utilization per kernel call (percent).
    pub memory_util_per_call: f64,
    /// Number of kernel calls per frame.
    pub kernel_calls: u32,
    /// Compute utilization averaged across the application (percent).
    pub compute_util_avg: f64,
    /// Memory utilization averaged across the application (percent).
    pub memory_util_avg: f64,
}

/// The paper's Table II, verbatim (Nsight Compute measurements on the
/// RTX 3090). Used as reference data for comparison against the model.
pub fn table2_reference() -> Vec<UtilizationRow> {
    use AppKind::*;
    use EncodingKind::*;
    let row = |app,
               encoding,
               is_enc,
               gx: u32,
               gy: u32,
               cu: f64,
               mu: f64,
               calls: u32,
               cua: f64,
               mua: f64| UtilizationRow {
        app,
        encoding,
        is_encoding_kernel: is_enc,
        grid: (gx, gy, 1),
        block: (512, 1, 1),
        compute_util_per_call: cu,
        memory_util_per_call: mu,
        kernel_calls: calls,
        compute_util_avg: cua,
        memory_util_avg: mua,
    };
    vec![
        row(Nerf, MultiResHashGrid, true, 3853, 16, 61.73, 72.85, 59, 40.63, 72.02),
        row(Nerf, MultiResHashGrid, false, 3853, 16, 34.3, 65.2, 118, 33.36, 63.07),
        row(Nsdf, MultiResHashGrid, true, 1823, 16, 73.08, 43.54, 256, 15.97, 30.8),
        row(Nsdf, MultiResHashGrid, false, 1823, 16, 38.13, 71.74, 256, 9.76, 18.28),
        row(Nvr, MultiResHashGrid, true, 403, 16, 52.5, 59.03, 48, 18.67, 30.36),
        row(Nvr, MultiResHashGrid, false, 403, 16, 36.51, 67.01, 48, 11.51, 21.05),
        row(Gia, MultiResHashGrid, true, 4050, 16, 82.87, 62.23, 1, 82.87, 62.23),
        row(Gia, MultiResHashGrid, false, 4050, 16, 39.1, 72.22, 1, 39.1, 72.22),
        row(Nerf, MultiResDenseGrid, true, 3966, 8, 71.39, 91.81, 45, 57.37, 72.31),
        row(Nerf, MultiResDenseGrid, false, 3966, 8, 39.53, 68.4, 90, 34.51, 62.31),
        row(Nsdf, MultiResDenseGrid, true, 1823, 8, 76.1, 48.25, 244, 18.38, 21.28),
        row(Nsdf, MultiResDenseGrid, false, 1823, 8, 41.66, 73.49, 244, 11.06, 19.41),
        row(Nvr, MultiResDenseGrid, true, 403, 8, 57.38, 56.8, 48, 17.41, 22.43),
        row(Nvr, MultiResDenseGrid, false, 403, 8, 39.83, 67.67, 48, 12.17, 20.59),
        row(Gia, MultiResDenseGrid, true, 4050, 8, 78.53, 65.83, 1, 78.53, 65.83),
        row(Gia, MultiResDenseGrid, false, 4050, 8, 42.89, 73.07, 1, 42.89, 73.07),
        row(Nerf, LowResDenseGrid, true, 3980, 2, 53.83, 49.74, 43, 31.17, 59.57),
        row(Nerf, LowResDenseGrid, false, 3980, 2, 39.41, 68.17, 86, 35.5, 64.1),
        row(Nsdf, LowResDenseGrid, true, 1823, 2, 55.88, 45.52, 260, 7.21, 20.07),
        row(Nsdf, LowResDenseGrid, false, 1823, 2, 41.37, 72.98, 260, 10.34, 18.14),
        row(Nvr, LowResDenseGrid, true, 403, 2, 22.71, 69.16, 48, 6.29, 22.71),
        row(Nvr, LowResDenseGrid, false, 403, 2, 39.2, 66.58, 48, 12.11, 20.48),
        row(Gia, LowResDenseGrid, true, 4050, 2, 66.15, 59.12, 1, 66.15, 59.12),
        row(Gia, LowResDenseGrid, false, 4050, 2, 42.87, 73.02, 1, 42.87, 73.02),
    ]
}

/// Model-estimated utilizations for comparison with Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelUtilization {
    /// Application.
    pub app: AppKind,
    /// Encoding type.
    pub encoding: EncodingKind,
    /// Cost-model compute utilization of the encoding kernel (percent).
    pub encoding_compute_pct: f64,
    /// Cost-model memory utilization of the encoding kernel (percent).
    pub encoding_memory_pct: f64,
    /// Cost-model compute utilization of the MLP kernel (percent).
    pub mlp_compute_pct: f64,
    /// Cost-model memory utilization of the MLP kernel (percent).
    pub mlp_memory_pct: f64,
}

/// Estimate kernel utilizations with the cost model at FHD.
pub fn model_utilization(gpu: &GpuSpec, app: AppKind, encoding: EncodingKind) -> ModelUtilization {
    let est = estimate_frame(gpu, &FrameWorkload::derive(app, encoding, 1920 * 1080));
    ModelUtilization {
        app,
        encoding,
        encoding_compute_pct: est.encoding.compute_util * 100.0,
        encoding_memory_pct: est.encoding.memory_util * 100.0,
        mlp_compute_pct: est.mlp.compute_util * 100.0,
        mlp_memory_pct: est.mlp.memory_util * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::rtx3090;

    #[test]
    fn fig5_averages_match_paper() {
        let f = breakdown_figure(EncodingKind::MultiResHashGrid);
        assert!((f.avg_encoding_pct - 40.24).abs() < 0.2, "{}", f.avg_encoding_pct);
        assert!((f.avg_mlp_pct - 32.12).abs() < 0.2, "{}", f.avg_mlp_pct);
        let f = breakdown_figure(EncodingKind::MultiResDenseGrid);
        assert!((f.avg_encoding_pct - 24.63).abs() < 0.2);
        assert!((f.avg_mlp_pct - 35.37).abs() < 0.2);
        let f = breakdown_figure(EncodingKind::LowResDenseGrid);
        assert!((f.avg_encoding_pct - 24.15).abs() < 0.2);
    }

    #[test]
    fn fig5_rows_sum_to_hundred() {
        for enc in EncodingKind::ALL {
            for row in breakdown_figure(enc).rows {
                let sum = row.encoding_pct + row.mlp_pct + row.rest_pct;
                assert!((sum - 100.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn table2_reference_is_complete() {
        let t = table2_reference();
        assert_eq!(t.len(), 24); // 4 apps x 3 encodings x 2 kernels
                                 // Every app/encoding pair appears exactly twice.
        for app in AppKind::ALL {
            for enc in EncodingKind::ALL {
                let n = t.iter().filter(|r| r.app == app && r.encoding == enc).count();
                assert_eq!(n, 2, "{app}/{enc}");
            }
        }
    }

    #[test]
    fn table2_mlp_memory_exceeds_compute_everywhere() {
        // The paper's Section IV claim, checkable in its own data.
        for r in table2_reference().iter().filter(|r| !r.is_encoding_kernel) {
            assert!(
                r.memory_util_per_call > r.compute_util_per_call,
                "{}/{}",
                r.app,
                r.encoding.abbrev()
            );
        }
    }

    #[test]
    fn model_agrees_mlp_is_memory_heavy() {
        let gpu = rtx3090();
        for app in AppKind::ALL {
            let m = model_utilization(&gpu, app, EncodingKind::MultiResHashGrid);
            assert!(m.mlp_memory_pct > m.mlp_compute_pct, "{app}");
        }
    }

    #[test]
    fn gia_hashgrid_kernel_calls_is_one() {
        let t = table2_reference();
        let gia = t
            .iter()
            .find(|r| {
                r.app == AppKind::Gia
                    && r.encoding == EncodingKind::MultiResHashGrid
                    && r.is_encoding_kernel
            })
            .unwrap();
        assert_eq!(gia.kernel_calls, 1);
    }
}
