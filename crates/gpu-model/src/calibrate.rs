//! The calibrated GPU profile layer: every number the paper publishes
//! about the GPU baseline, in one place.
//!
//! The paper's emulator (Fig. 11) takes the *measured* kernel-level
//! breakdown of each application as an input. We cannot re-measure an
//! RTX 3090, so this module pins the breakdown to the published data:
//!
//! * FHD frame times for multiresolution hashgrid (Section III):
//!   NeRF 231 ms, NSDF 27.87 ms, GIA 2.12 ms, NVR 6.32 ms.
//! * Cross-application average kernel fractions (Section III / Fig. 5):
//!   hashgrid 40.24 % encoding + 32.12 % MLP, densegrid 24.63 % + 35.37 %,
//!   low-res densegrid 24.15 % + 35.37 %.
//! * The per-application split of those averages is not printed in the
//!   paper (it is only drawn in Fig. 5), so the per-app fractions below
//!   are **derived**: they are the unique assignment consistent with the
//!   published averages *and* with every NGPC speedup the paper reports
//!   (Fig. 12 averages, the plateau points, and the 58.36x "up to"
//!   number) under the paper's own Amdahl analysis with its 9.94x fused
//!   rest-kernel speedup. See EXPERIMENTS.md for the derivation.
//!
//! Frame times for the two densegrid encodings are not published; they
//! are derived by scaling the hashgrid anchor with the first-principles
//! cost-model ratio ([`crate::cost`]).

use std::sync::OnceLock;

use ng_neural::apps::{AppKind, EncodingKind};

use crate::cost::estimate_frame;
use crate::spec::rtx3090;
use crate::workload::FrameWorkload;

/// Pixels in the paper's profiling resolution (1920 x 1080).
pub const FHD_PIXELS: u64 = 1920 * 1080;

/// Published FHD frame times (ms) for multiresolution hashgrid.
pub const FHD_HASHGRID_MS: [(AppKind, f64); 4] =
    [(AppKind::Nerf, 231.0), (AppKind::Nsdf, 27.87), (AppKind::Gia, 2.12), (AppKind::Nvr, 6.32)];

/// Kernel time fractions of one application/encoding pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFractions {
    /// Fraction of frame time in the input-encoding kernel.
    pub encoding: f64,
    /// Fraction of frame time in the MLP kernel.
    pub mlp: f64,
    /// Fraction of frame time in all remaining kernels.
    pub rest: f64,
}

impl KernelFractions {
    /// Encoding + MLP fraction (the NGPC-accelerated share).
    pub fn accelerated(&self) -> f64 {
        self.encoding + self.mlp
    }
}

/// Per-application kernel fractions, derived as documented in the module
/// docs. Order: NeRF, NSDF, GIA, NVR.
fn fraction_table(encoding: EncodingKind) -> [(AppKind, KernelFractions); 4] {
    match encoding {
        EncodingKind::MultiResHashGrid => [
            (AppKind::Nerf, KernelFractions { encoding: 0.4345, mlp: 0.3005, rest: 0.2650 }),
            (AppKind::Nsdf, KernelFractions { encoding: 0.3751, mlp: 0.3299, rest: 0.2950 }),
            (AppKind::Gia, KernelFractions { encoding: 0.5000, mlp: 0.3297, rest: 0.1703 }),
            (AppKind::Nvr, KernelFractions { encoding: 0.3000, mlp: 0.3251, rest: 0.3749 }),
        ],
        EncodingKind::MultiResDenseGrid => [
            (AppKind::Nerf, KernelFractions { encoding: 0.2600, mlp: 0.3528, rest: 0.3872 }),
            (AppKind::Nsdf, KernelFractions { encoding: 0.2300, mlp: 0.3500, rest: 0.4200 }),
            (AppKind::Gia, KernelFractions { encoding: 0.3000, mlp: 0.4272, rest: 0.2728 }),
            (AppKind::Nvr, KernelFractions { encoding: 0.1952, mlp: 0.2848, rest: 0.5200 }),
        ],
        EncodingKind::LowResDenseGrid => [
            (AppKind::Nerf, KernelFractions { encoding: 0.2400, mlp: 0.3500, rest: 0.4100 }),
            (AppKind::Nsdf, KernelFractions { encoding: 0.2200, mlp: 0.3700, rest: 0.4100 }),
            (AppKind::Gia, KernelFractions { encoding: 0.3100, mlp: 0.4284, rest: 0.2616 }),
            (AppKind::Nvr, KernelFractions { encoding: 0.1960, mlp: 0.2840, rest: 0.5200 }),
        ],
    }
}

/// Kernel fractions for one application/encoding pair.
pub fn fractions(app: AppKind, encoding: EncodingKind) -> KernelFractions {
    fraction_table(encoding)
        .iter()
        .find(|(a, _)| *a == app)
        .map(|(_, f)| *f)
        .expect("all apps present")
}

fn hashgrid_fhd_ms(app: AppKind) -> f64 {
    FHD_HASHGRID_MS.iter().find(|(a, _)| *a == app).map(|(_, t)| *t).expect("all apps present")
}

/// Compute the ratio table in-process: every Table I workload is
/// derived and run through the roofline model.
fn compute_ratio_table() -> Vec<((AppKind, EncodingKind), f64)> {
    let gpu = rtx3090();
    let mut out = Vec::new();
    for a in AppKind::ALL {
        let base = estimate_frame(
            &gpu,
            &FrameWorkload::derive(a, EncodingKind::MultiResHashGrid, FHD_PIXELS),
        )
        .total_ms();
        for e in EncodingKind::ALL {
            let t = estimate_frame(&gpu, &FrameWorkload::derive(a, e, FHD_PIXELS)).total_ms();
            out.push(((a, e), t / base));
        }
    }
    out
}

/// Cost-model frame-time ratio of `encoding` relative to hashgrid, per
/// app, memoised once per process.
fn model_ratio(app: AppKind, encoding: EncodingKind) -> f64 {
    static CACHE: OnceLock<Vec<((AppKind, EncodingKind), f64)>> = OnceLock::new();
    let table = CACHE.get_or_init(|| {
        // The span nests under whatever span the first caller holds:
        // the calling thread's `sweep/evaluate/tables` in a sweep, or
        // `search/tables` in a search. Both build the GPU breakdowns
        // before anything reads them.
        let _span = ng_obs::span("calib-ratios");
        ng_obs::counter("calib.computes").incr();
        compute_ratio_table()
    });
    table
        .iter()
        .find(|((a, e), _)| *a == app && *e == encoding)
        .map(|(_, r)| *r)
        .expect("all pairs present")
}

/// Calibrated GPU frame time in milliseconds for `pixels` rendered pixels.
///
/// Hashgrid times are anchored to the published FHD measurements and
/// scale linearly with pixel count (which exactly reproduces the paper's
/// published 4k@60 gaps). Densegrid times apply the cost-model ratio.
pub fn frame_time_ms(app: AppKind, encoding: EncodingKind, pixels: u64) -> f64 {
    let base = hashgrid_fhd_ms(app) * model_ratio(app, encoding);
    base * pixels as f64 / FHD_PIXELS as f64
}

/// Absolute per-kernel times of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBreakdown {
    /// Application.
    pub app: AppKind,
    /// Encoding scheme.
    pub encoding: EncodingKind,
    /// Frame pixel count.
    pub pixels: u64,
    /// Input-encoding kernel time (ms).
    pub encoding_ms: f64,
    /// MLP kernel time (ms).
    pub mlp_ms: f64,
    /// Remaining kernel time (ms).
    pub rest_ms: f64,
}

impl KernelBreakdown {
    /// Total frame time (ms).
    pub fn total_ms(&self) -> f64 {
        self.encoding_ms + self.mlp_ms + self.rest_ms
    }

    /// The fractions this breakdown was built from.
    pub fn fractions(&self) -> KernelFractions {
        fractions(self.app, self.encoding)
    }
}

/// The calibrated kernel breakdown of one frame — the emulator's input
/// (paper Fig. 11, "kernel level breakdown of the performance of the
/// neural graphics application on the GPU").
pub fn kernel_breakdown(app: AppKind, encoding: EncodingKind, pixels: u64) -> KernelBreakdown {
    let total = frame_time_ms(app, encoding, pixels);
    let f = fractions(app, encoding);
    KernelBreakdown {
        app,
        encoding,
        pixels,
        encoding_ms: total * f.encoding,
        mlp_ms: total * f.mlp,
        rest_ms: total * f.rest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        for enc in EncodingKind::ALL {
            for app in AppKind::ALL {
                let f = fractions(app, enc);
                assert!(
                    (f.encoding + f.mlp + f.rest - 1.0).abs() < 1e-9,
                    "{app}/{enc} sums to {}",
                    f.encoding + f.mlp + f.rest
                );
            }
        }
    }

    #[test]
    fn average_fractions_match_paper_section3() {
        // hashgrid: 40.24% encoding, 32.12% MLP (72.37% combined);
        // densegrid: 24.63% / 35.37% (60.0%); low-res: 24.15% enc.
        let avg = |enc: EncodingKind| {
            let mut e = 0.0;
            let mut m = 0.0;
            for app in AppKind::ALL {
                let f = fractions(app, enc);
                e += f.encoding / 4.0;
                m += f.mlp / 4.0;
            }
            (e, m)
        };
        let (e, m) = avg(EncodingKind::MultiResHashGrid);
        assert!((e - 0.4024).abs() < 0.002, "hashgrid encoding avg {e}");
        assert!((m - 0.3212).abs() < 0.002, "hashgrid mlp avg {m}");
        let (e, m) = avg(EncodingKind::MultiResDenseGrid);
        assert!((e - 0.2463).abs() < 0.002, "densegrid encoding avg {e}");
        assert!((m - 0.3537).abs() < 0.002, "densegrid mlp avg {m}");
        let (e, _) = avg(EncodingKind::LowResDenseGrid);
        assert!((e - 0.2415).abs() < 0.002, "low-res encoding avg {e}");
    }

    #[test]
    fn fhd_hashgrid_times_match_paper() {
        assert_eq!(frame_time_ms(AppKind::Nerf, EncodingKind::MultiResHashGrid, FHD_PIXELS), 231.0);
        assert_eq!(frame_time_ms(AppKind::Nsdf, EncodingKind::MultiResHashGrid, FHD_PIXELS), 27.87);
    }

    #[test]
    fn four_k_at_sixty_gaps_match_paper() {
        // 4k = 3840x2160, 60 FPS budget = 16.667 ms. Paper: gaps of
        // 55.50x (NeRF), 6.68x (NSDF), 1.51x (NVR); GIA meets target.
        let budget = 1000.0 / 60.0;
        let gap = |app| frame_time_ms(app, EncodingKind::MultiResHashGrid, 3840 * 2160) / budget;
        assert!((gap(AppKind::Nerf) - 55.50).abs() < 0.1, "{}", gap(AppKind::Nerf));
        assert!((gap(AppKind::Nsdf) - 6.68).abs() < 0.05, "{}", gap(AppKind::Nsdf));
        assert!((gap(AppKind::Nvr) - 1.51).abs() < 0.02, "{}", gap(AppKind::Nvr));
        assert!(gap(AppKind::Gia) < 1.0, "GIA must meet 4k@60");
    }

    #[test]
    fn densegrid_frames_are_cheaper_than_hashgrid() {
        for app in AppKind::ALL {
            let hg = frame_time_ms(app, EncodingKind::MultiResHashGrid, FHD_PIXELS);
            let dg = frame_time_ms(app, EncodingKind::MultiResDenseGrid, FHD_PIXELS);
            assert!(dg < hg, "{app}: densegrid {dg} >= hashgrid {hg}");
        }
    }

    #[test]
    fn breakdown_reassembles_total() {
        for enc in EncodingKind::ALL {
            for app in AppKind::ALL {
                let b = kernel_breakdown(app, enc, FHD_PIXELS);
                let total = frame_time_ms(app, enc, FHD_PIXELS);
                assert!((b.total_ms() - total).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn linear_pixel_scaling() {
        let t1 = frame_time_ms(AppKind::Nvr, EncodingKind::LowResDenseGrid, 1_000_000);
        let t2 = frame_time_ms(AppKind::Nvr, EncodingKind::LowResDenseGrid, 2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
