//! The paper's headline motivation numbers: the gap between GPU
//! performance and real-time targets (Section I / III), and the AR/VR
//! power gap.

use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::render::image::Resolution;

use crate::calibrate::frame_time_ms;
use crate::spec::GpuSpec;

/// A rendering target: resolution and refresh rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderTarget {
    /// Pixels per frame.
    pub pixels: u64,
    /// Frames per second.
    pub fps: f64,
}

impl RenderTarget {
    /// The paper's headline target: 4k Ultra HD at 60 FPS.
    pub const UHD4K_60: RenderTarget =
        RenderTarget { pixels: Resolution::Uhd4k.pixels(), fps: 60.0 };

    /// Frame-time budget in milliseconds.
    pub fn budget_ms(&self) -> f64 {
        1000.0 / self.fps
    }
}

/// Performance gap of one application against a target: how many times
/// slower than required the GPU is (`<= 1` means the target is met).
pub fn performance_gap(app: AppKind, encoding: EncodingKind, target: RenderTarget) -> f64 {
    frame_time_ms(app, encoding, target.pixels) / target.budget_ms()
}

/// Whether the GPU meets the target for this application.
pub fn meets_target(app: AppKind, encoding: EncodingKind, target: RenderTarget) -> bool {
    performance_gap(app, encoding, target) <= 1.0
}

/// AR/VR power-gap estimate in orders of magnitude (paper Section I:
/// "2-4 orders of magnitude between the desired performance and the
/// required system power").
///
/// An untethered AR/VR headset budgets ~1 W for rendering; meeting the
/// performance target by scaling the GPU would require
/// `gap x TDP` watts. The returned value is `log10` of the ratio of that
/// requirement to the headset budget.
pub fn ar_vr_power_gap_oom(
    gpu: &GpuSpec,
    app: AppKind,
    encoding: EncodingKind,
    target: RenderTarget,
    headset_budget_watts: f64,
) -> f64 {
    let gap = performance_gap(app, encoding, target).max(1.0);
    let required_watts = gap * gpu.tdp_watts;
    (required_watts / headset_budget_watts).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::rtx3090;

    #[test]
    fn headline_gaps_match_paper() {
        let t = RenderTarget::UHD4K_60;
        let hg = EncodingKind::MultiResHashGrid;
        assert!((performance_gap(AppKind::Nerf, hg, t) - 55.50).abs() < 0.1);
        assert!((performance_gap(AppKind::Nsdf, hg, t) - 6.68).abs() < 0.05);
        assert!((performance_gap(AppKind::Nvr, hg, t) - 1.51).abs() < 0.02);
        assert!(meets_target(AppKind::Gia, hg, t));
        assert!(!meets_target(AppKind::Nerf, hg, t));
    }

    #[test]
    fn gap_range_spans_paper_interval() {
        // Paper: "a gap of ~1.51x to 55.50x".
        let t = RenderTarget::UHD4K_60;
        let hg = EncodingKind::MultiResHashGrid;
        let gaps: Vec<f64> = [AppKind::Nerf, AppKind::Nsdf, AppKind::Nvr]
            .iter()
            .map(|&a| performance_gap(a, hg, t))
            .collect();
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        let min = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 55.50).abs() < 0.1);
        assert!((min - 1.51).abs() < 0.02);
    }

    #[test]
    fn ar_vr_gap_is_two_to_four_oom() {
        // Paper Section I: 2-4 orders of magnitude for AR/VR.
        let gpu = rtx3090();
        let t = RenderTarget::UHD4K_60;
        for app in AppKind::ALL {
            let oom = ar_vr_power_gap_oom(&gpu, app, EncodingKind::MultiResHashGrid, t, 1.0);
            assert!((2.0..=4.5).contains(&oom), "{app}: {oom} OOM");
        }
    }

    #[test]
    fn higher_fps_widens_gap() {
        let t60 = RenderTarget { pixels: 3840 * 2160, fps: 60.0 };
        let t120 = RenderTarget { pixels: 3840 * 2160, fps: 120.0 };
        let hg = EncodingKind::MultiResHashGrid;
        assert!(performance_gap(AppKind::Nsdf, hg, t120) > performance_gap(AppKind::Nsdf, hg, t60));
    }
}
