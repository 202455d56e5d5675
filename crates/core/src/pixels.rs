//! Pixels renderable within an FPS budget, with and without the NGPC
//! (paper Fig. 14).

use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::render::image::Resolution;

use crate::emulator::{emulate, EmulatorInput};

/// The FPS targets of Fig. 14.
pub const FPS_TARGETS: [f64; 4] = [30.0, 60.0, 90.0, 120.0];

/// One Fig. 14 bar: pixels renderable within the frame budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelBudget {
    /// Application.
    pub app: AppKind,
    /// FPS target.
    pub fps: f64,
    /// Pixels renderable on the GPU alone.
    pub gpu_pixels: u64,
    /// Pixels renderable with the NGPC.
    pub ngpc_pixels: u64,
}

impl PixelBudget {
    /// The largest standard resolution the GPU alone sustains.
    pub fn gpu_resolution(&self) -> Option<Resolution> {
        largest_resolution(self.gpu_pixels)
    }

    /// The largest standard resolution the NGPC sustains.
    pub fn ngpc_resolution(&self) -> Option<Resolution> {
        largest_resolution(self.ngpc_pixels)
    }
}

/// The largest standard frame that fits within `pixels`.
pub fn largest_resolution(pixels: u64) -> Option<Resolution> {
    Resolution::ALL.iter().rev().find(|r| r.pixels() <= pixels).copied()
}

/// Compute one Fig. 14 bar.
pub fn pixel_budget(app: AppKind, encoding: EncodingKind, nfp_units: u32, fps: f64) -> PixelBudget {
    let budget_ms = 1000.0 / fps;
    // GPU frame time scales linearly in pixels; anchor on 1M pixels.
    let anchor_px = 1_000_000u64;
    let gpu_ms_per_px = ng_gpu::frame_time_ms(app, encoding, anchor_px) / anchor_px as f64;
    let result = emulate(&EmulatorInput { app, encoding, nfp_units, ..EmulatorInput::default() });
    let gpu_pixels = (budget_ms / gpu_ms_per_px) as u64;
    let ngpc_pixels = (budget_ms * result.speedup / gpu_ms_per_px) as u64;
    PixelBudget { app, fps, gpu_pixels, ngpc_pixels }
}

/// The full Fig. 14 panel for one encoding at one scaling factor.
pub fn figure14(encoding: EncodingKind, nfp_units: u32) -> Vec<PixelBudget> {
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        for fps in FPS_TARGETS {
            rows.push(pixel_budget(app, encoding, nfp_units, fps));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const HG: EncodingKind = EncodingKind::MultiResHashGrid;

    #[test]
    fn nerf_reaches_4k30_with_ngpc64() {
        // The paper's headline: "NGPC enables the rendering of 4k Ultra
        // HD resolution frames at 30 FPS for NeRF".
        let b = pixel_budget(AppKind::Nerf, HG, 64, 30.0);
        assert!(b.ngpc_pixels >= Resolution::Uhd4k.pixels(), "{}", b.ngpc_pixels);
        // ... but not 5k at 30.
        assert!(b.ngpc_pixels < Resolution::FiveK.pixels());
        assert_eq!(b.ngpc_resolution(), Some(Resolution::Uhd4k));
    }

    #[test]
    fn gia_and_nvr_reach_8k120_with_ngpc64() {
        for app in [AppKind::Gia, AppKind::Nvr] {
            let b = pixel_budget(app, HG, 64, 120.0);
            assert!(b.ngpc_pixels >= Resolution::Uhd8k.pixels(), "{app}: {} pixels", b.ngpc_pixels);
        }
    }

    #[test]
    fn nsdf_reaches_8k_at_60_with_ngpc64() {
        // Our calibration puts NSDF's plateau (Amdahl cap 33.7x) below
        // what 8k@120 needs (~54x); it still clears 8k at 60 FPS. The
        // paper's Fig. 14 claims 8k@120 — see EXPERIMENTS.md for why the
        // paper's own Fig. 12 numbers contradict that claim.
        let b = pixel_budget(AppKind::Nsdf, HG, 64, 60.0);
        assert!(b.ngpc_pixels >= Resolution::Uhd8k.pixels(), "{}", b.ngpc_pixels);
    }

    #[test]
    fn gpu_alone_fails_4k60_for_nerf() {
        let b = pixel_budget(AppKind::Nerf, HG, 64, 60.0);
        assert!(b.gpu_pixels < Resolution::Uhd4k.pixels());
    }

    #[test]
    fn gpu_alone_meets_4k60_for_gia() {
        let b = pixel_budget(AppKind::Gia, HG, 64, 60.0);
        assert!(b.gpu_pixels >= Resolution::Uhd4k.pixels());
    }

    #[test]
    fn higher_fps_lowers_budget() {
        let b30 = pixel_budget(AppKind::Nvr, HG, 64, 30.0);
        let b120 = pixel_budget(AppKind::Nvr, HG, 64, 120.0);
        assert!(b120.ngpc_pixels < b30.ngpc_pixels);
        assert!((b30.ngpc_pixels as f64 / b120.ngpc_pixels as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn figure14_is_complete() {
        let rows = figure14(HG, 64);
        assert_eq!(rows.len(), 16); // 4 apps x 4 FPS targets
        for r in rows {
            assert!(r.ngpc_pixels > r.gpu_pixels);
        }
    }

    #[test]
    fn largest_resolution_boundaries() {
        assert_eq!(largest_resolution(0), None);
        assert_eq!(largest_resolution(Resolution::Hd.pixels()), Some(Resolution::Hd));
        assert_eq!(largest_resolution(Resolution::Uhd8k.pixels() * 2), Some(Resolution::Uhd8k));
    }
}
