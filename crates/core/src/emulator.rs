//! The NGPC evaluation emulator (paper Fig. 11).
//!
//! Inputs: the application parameters (Table I), the architecture
//! parameters (NFP count, clock, SRAM configuration), the GPU
//! kernel-level breakdown (from `ng-gpu`, substituting the paper's Nsight
//! measurements) and the frame resolution. Outputs: end-to-end
//! application time with encoding + MLP on the NGPC and the remaining
//! kernels fused on the GPU, plus the cluster's area and power.
//!
//! ## Timing model
//!
//! Per the programming model (paper Fig. 10-b), inputs are processed in
//! batches: while the GPU runs the fused rest-kernels for batch `i`, the
//! NGPC runs encoding + MLP for batch `i+1`. In steady state the frame
//! time is therefore the *maximum* of the two pipeline stages:
//!
//! ```text
//! T(N) = max( T_accel / (g * N),  T_rest / 9.94 )
//! ```
//!
//! `g` is the per-application *pipeline slope*: the end-to-end speedup
//! contributed per NFP, including the NGPC's L2 input/output traffic and
//! per-batch configuration/synchronisation — which is why it is far below
//! the standalone engine speedups of Fig. 13. The cap `T_rest / 9.94` is
//! the paper's Amdahl bound, and the reported speedup never exceeds it —
//! the paper's own sanity check.
//!
//! ## Compositional slope
//!
//! `g` is no longer a flat per-(app, encoding) lookup: it is composed
//! from the engine-level cycle accounting this crate already validates
//! bit-exactly ([`per_sample_cycles`]) and a per-(app, encoding)
//! *residual* calibrated once at the paper's NFP:
//!
//! ```text
//! g(nfp) = residual(app, enc)              # pins the paper's numbers
//!        * clock_ghz                       # frequency scaling
//!        * sram_capacity_factor            # grid-SRAM residency
//!        * bank_conflict_factor            # corner-fetch banking
//!        * mac_engine_factor               # cycles(paper) / cycles(nfp)
//! ```
//!
//! [`per_sample_cycles`] derives the fused pipeline's per-query issue
//! interval from the Table I workload shapes: MLP-engine tile cycles
//! ([`layer_tiles`] per layer matrix), encoding-engine occupancy
//! (levels folded over the engine gang; the grid-SRAM pressure of an
//! engine multiplexing several level tables is charged through
//! `sram_capacity_factor`), and the fusion-FIFO overlap between the
//! two stages. Because the MAC-array and engine-count axes enter as
//! the *ratio* against the paper's NFP, the factor is exactly 1.0 at
//! 16 engines / 64x64 MACs — every published number is reproduced
//! byte-identically — while off-paper configurations are now genuinely
//! charged for their datapath choices.

use ng_neural::apps::{table1, AppKind, EncodingKind};

use crate::config::NfpConfig;
use crate::engine::mlp_engine::layer_tiles;
use crate::kernels::REST_FUSION_SPEEDUP;

/// Calibrated per-(application, encoding) residual of the compositional
/// timing model: the end-to-end speedup per NFP *at the paper's NFP*
/// (16 engines, 64x64 MACs, 1 GHz), absorbing everything the cycle
/// model does not derive — L2 input/output traffic, per-batch
/// configuration and synchronisation, kernel-launch overheads.
/// Order: NeRF, NSDF, GIA, NVR.
///
/// NOTE: changing any calibrated constant in this module changes sweep
/// results and the model fingerprint pinned in
/// `crates/dse/tests/model_fingerprint.rs`: update that test in the
/// same commit.
pub fn calibrated_residual(app: AppKind, encoding: EncodingKind) -> f64 {
    match encoding {
        EncodingKind::MultiResHashGrid => match app {
            AppKind::Nerf => 0.75,
            AppKind::Nsdf => 1.2206,
            AppKind::Gia => 1.585,
            AppKind::Nvr => 2.9144,
        },
        EncodingKind::MultiResDenseGrid => match app {
            AppKind::Nerf => 0.55,
            AppKind::Nsdf => 0.876,
            AppKind::Gia => 0.9343,
            AppKind::Nvr => 2.1647,
        },
        EncodingKind::LowResDenseGrid => match app {
            AppKind::Nerf => 0.60,
            AppKind::Nsdf => 0.9539,
            AppKind::Gia => 0.9164,
            AppKind::Nvr => 2.2147,
        },
    }
}

/// Bytes of the largest single-level grid table the encoding engines
/// must keep resident for full-rate corner fetches. The paper sizes the
/// 1 MB grid SRAM so one multiresolution level's table fits on-chip;
/// the two-level low-res encoding needs far less.
fn resident_table_bytes(encoding: EncodingKind) -> f64 {
    match encoding {
        EncodingKind::MultiResHashGrid | EncodingKind::MultiResDenseGrid => (1u64 << 20) as f64,
        EncodingKind::LowResDenseGrid => (64 * 1024) as f64,
    }
}

/// Grid-SRAM round-trip cost of a spilled corner fetch relative to an
/// on-chip hit (GPU-L2 service of the miss traffic).
const SPILL_PENALTY: f64 = 3.0;

/// Level tables one engine must keep serving: 1 with an engine per
/// level (the paper's gang), more when the level count exceeds the
/// engine count and engines multiplex levels.
fn tables_per_engine(nfp: &NfpConfig, encoding: EncodingKind) -> u32 {
    (encoding.levels() as u32).div_ceil(nfp.encoding_engines.max(1))
}

/// Throughput factor for grid SRAMs smaller than the resident working
/// set — every level table the engine serves must stay resident for
/// full-rate corner fetches, so an engine multiplexing `k` levels needs
/// `k` tables on-chip. The uncovered fraction of corner fetches pays
/// the spill penalty of a fetch served off-chip. Exactly 1.0 at the
/// paper's 1 MB / 16-engine provision.
pub fn sram_capacity_factor(nfp: &NfpConfig, encoding: EncodingKind) -> f64 {
    let required = tables_per_engine(nfp, encoding) as f64 * resident_table_bytes(encoding);
    let have = nfp.grid_sram_bytes as f64;
    if have >= required {
        1.0
    } else {
        let miss = 1.0 - have / required;
        1.0 / (1.0 + miss * SPILL_PENALTY)
    }
}

/// Throughput factor for grid-SRAM banking: a `d`-dimensional cell has
/// `2^d` corners, and with fewer banks than corners the fetches
/// serialise over multiple cycles (the fused pipeline is rate-limited
/// by its encoding stage). Exactly 1.0 at the paper's 8 banks.
pub fn bank_conflict_factor(nfp: &NfpConfig, app: AppKind) -> f64 {
    let corners = 1u32 << app.spatial_dim();
    let cycles = corners.div_ceil(nfp.grid_sram_banks.min(corners).max(1));
    1.0 / cycles as f64
}

/// FIFO depth at which the fusion FIFO fully decouples the encoding and
/// MLP stages (the two stages overlap perfectly and the pipeline runs at
/// the slower stage's rate). Shallower FIFOs degrade toward serial
/// execution. The paper's 64-entry FIFO is comfortably past this knee.
const FULL_OVERLAP_FIFO_DEPTH: f64 = 16.0;

/// Per-query issue interval (cycles) of the fused NFP pipeline for one
/// Table I workload on one NFP configuration — the compositional core
/// of the timing model.
///
/// * **Encoding stage** — the level count folds over the engine gang:
///   with engines to spare, `engines / levels` queries issue per cycle
///   (the paper's 1/2/8 parallel inputs); with fewer engines than
///   levels each query takes `levels.div_ceil(engines)` sequential
///   rounds. (The grid-SRAM pressure of multiplexed level tables is
///   charged by `sram_capacity_factor`, not here.) Extra query lanes
///   multiply issue width.
/// * **MLP stage** — [`mlp_query_cycles`] over the app's MLP (both of
///   NeRF's, which share the array).
/// * **Fusion** — with a deep enough FIFO the stages overlap and the
///   pipeline runs at the slower stage's rate; shallow FIFOs slide
///   toward the serial sum.
pub fn per_sample_cycles(app: AppKind, encoding: EncodingKind, nfp: &NfpConfig) -> f64 {
    fused_query_cycles(
        encoding_query_cycles(encoding, nfp),
        mlp_query_cycles(app, encoding, nfp),
        nfp.input_fifo_depth,
    )
}

/// Per-query cycles of the encoding stage of [`per_sample_cycles`]: the
/// level rounds over the engine gang, divided by its issue width. Reads
/// the encoding, the engine count and the lanes per engine.
pub fn encoding_query_cycles(encoding: EncodingKind, nfp: &NfpConfig) -> f64 {
    let levels = encoding.levels() as u32;
    let engines = nfp.encoding_engines.max(1);
    let rounds = levels.div_ceil(engines);
    let parallel = (engines / levels).max(1) * nfp.lanes_per_engine.max(1);
    rounds as f64 / parallel as f64
}

/// The fusion of [`per_sample_cycles`]: the encoding stage's `enc` and
/// the MLP stage's `mlp` cycles per query, overlapped as far as an
/// input FIFO of `fifo_depth` entries allows.
pub fn fused_query_cycles(enc: f64, mlp: f64, fifo_depth: u32) -> f64 {
    let overlap = (fifo_depth as f64 / FULL_OVERLAP_FIFO_DEPTH).min(1.0);
    enc.max(mlp) + enc.min(mlp) * (1.0 - overlap)
}

/// Per-query MAC-array cycles of one workload's full MLP stack (the
/// app's MLP plus NeRF's color MLP, which share the array): the sum of
/// [`layer_tiles`] over [`mlp_layer_shapes`].
pub fn mlp_query_cycles(app: AppKind, encoding: EncodingKind, nfp: &NfpConfig) -> f64 {
    let (mac_rows, mac_cols) = (nfp.mac_rows as usize, nfp.mac_cols as usize);
    mlp_layer_shapes(app, encoding)
        .map(|(rows, cols)| layer_tiles(rows, cols, mac_rows, mac_cols))
        .sum::<usize>() as f64
}

/// The `(rows, cols)` weight-matrix shapes of one workload's MLP stack,
/// in evaluation order: the app's MLP, then NeRF's color MLP. Shapes
/// can repeat (hidden layers share one shape).
pub fn mlp_layer_shapes(
    app: AppKind,
    encoding: EncodingKind,
) -> impl Iterator<Item = (usize, usize)> {
    let params = table1(app, encoding);
    std::iter::once(params.mlp)
        .chain(params.color_mlp)
        .flat_map(|mlp| (0..mlp.n_matrices()).map(move |m| mlp.matrix_shape(m)))
}

/// [`per_sample_cycles`] of the paper's NFP: the numerator of
/// [`mac_engine_factor`], which reads only the app and the encoding.
pub fn paper_sample_cycles(app: AppKind, encoding: EncodingKind) -> f64 {
    per_sample_cycles(app, encoding, &NfpConfig::default())
}

/// Throughput factor of the MAC-array / engine-count / FIFO axes: the
/// paper NFP's per-query cycles over this configuration's. Exactly 1.0
/// at the paper's NFP (the ratio of a value with itself), above 1.0 for
/// configurations that retire queries in fewer cycles. A sweep makes
/// the same division from tables: the numerator once per (app,
/// encoding), the denominator from [`encoding_query_cycles`],
/// [`mlp_query_cycles`] and [`fused_query_cycles`].
pub fn mac_engine_factor(app: AppKind, encoding: EncodingKind, nfp: &NfpConfig) -> f64 {
    paper_sample_cycles(app, encoding) / per_sample_cycles(app, encoding, nfp)
}

/// The factors of the end-to-end NFP throughput slope `g`. Each reads
/// only a few axes of a point, so a sweep can evaluate each once per
/// distinct axis tuple and [`SlopeFactors::slope`] them per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeFactors {
    /// [`calibrated_residual`]: (app, encoding).
    pub residual: f64,
    /// The NFP clock in GHz.
    pub clock_ghz: f64,
    /// [`sram_capacity_factor`]: (encoding, grid-SRAM size, engines).
    pub sram_capacity: f64,
    /// [`bank_conflict_factor`]: (app, banks).
    pub bank_conflict: f64,
    /// [`mac_engine_factor`]: (app, encoding, engines, MAC rows and
    /// columns, lanes, FIFO depth).
    pub mac_engine: f64,
}

impl SlopeFactors {
    /// The factors of one emulator input.
    pub fn of(input: &EmulatorInput) -> Self {
        SlopeFactors {
            mac_engine: mac_engine_factor(input.app, input.encoding, &input.nfp),
            ..Self::prefix_factors(input.app, input.encoding, &input.nfp)
        }
    }

    /// The factors [`SlopeFactors::prefix`] reads, with `mac_engine`
    /// left at 1.0: what a sweep computes once per (app, encoding,
    /// clock, grid-SRAM size, banks, engines), without the two cycle
    /// counts of [`mac_engine_factor`].
    pub fn prefix_factors(app: AppKind, encoding: EncodingKind, nfp: &NfpConfig) -> Self {
        SlopeFactors {
            residual: calibrated_residual(app, encoding),
            clock_ghz: nfp.clock_ghz,
            sram_capacity: sram_capacity_factor(nfp, encoding),
            bank_conflict: bank_conflict_factor(nfp, app),
            mac_engine: 1.0,
        }
    }

    /// Every factor of the slope but the last, multiplied left to
    /// right: the calibrated residual, scaled by clock and by the SRAM
    /// capacity/banking factors.
    pub fn prefix(&self) -> f64 {
        self.residual * self.clock_ghz * self.sram_capacity * self.bank_conflict
    }

    /// The slope: [`SlopeFactors::prefix`] scaled by the compositional
    /// MAC-array / engine-count cycle ratio (every factor is exactly 1.0
    /// at the paper's NFP). The one place the product's order is fixed:
    /// left to right, so a sweep that tabulates the prefix and
    /// multiplies in `mac_engine` gets the same bits.
    pub fn slope(&self) -> f64 {
        self.prefix() * self.mac_engine
    }
}

/// Emulator inputs (the four arrows into the paper's Fig. 11 box).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorInput {
    /// Application under evaluation.
    pub app: AppKind,
    /// Input-encoding scheme.
    pub encoding: EncodingKind,
    /// Frame resolution in pixels.
    pub pixels: u64,
    /// NGPC scaling factor (NFP count).
    pub nfp_units: u32,
    /// NFP architecture parameters.
    pub nfp: NfpConfig,
}

impl Default for EmulatorInput {
    fn default() -> Self {
        EmulatorInput {
            app: AppKind::Nerf,
            encoding: EncodingKind::MultiResHashGrid,
            pixels: ng_gpu::calibrate::FHD_PIXELS,
            nfp_units: 8,
            nfp: NfpConfig::default(),
        }
    }
}

/// Emulator outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationResult {
    /// GPU baseline frame time (ms).
    pub gpu_ms: f64,
    /// GPU time in the accelerated (encoding + MLP) kernels (ms).
    pub gpu_accel_ms: f64,
    /// GPU time in the remaining kernels (ms).
    pub gpu_rest_ms: f64,
    /// NGPC time for the accelerated kernels (ms).
    pub ngpc_accel_ms: f64,
    /// Fused rest-kernel time on the GPU (ms).
    pub fused_rest_ms: f64,
    /// End-to-end frame time with the NGPC (ms).
    pub ngpc_frame_ms: f64,
    /// End-to-end speedup over the GPU baseline.
    pub speedup: f64,
    /// The Amdahl bound (horizontal lines of Fig. 12).
    pub amdahl_bound: f64,
    /// Whether the configuration has hit its plateau (the rest-kernel
    /// stage dominates; more NFPs would not help).
    pub plateaued: bool,
    /// NGPC area as a percentage of the GPU die (Fig. 15).
    pub area_pct_of_gpu: f64,
    /// NGPC power as a percentage of GPU TDP (Fig. 15).
    pub power_pct_of_gpu: f64,
}

/// The GPU the NGPC is attached to: the baseline of the kernel
/// breakdown and the reference of the area/power percentages.
pub const REFERENCE_GPU: ng_hw::gpu_ref::GpuReference = ng_hw::gpu_ref::RTX3090;

/// The GPU side of [`compose`]: what it reads of a kernel breakdown.
/// It depends on the app, the encoding and the pixel count only, so a
/// sweep computes it once per such tuple, not once per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuBaseline {
    /// GPU baseline frame time (ms).
    pub gpu_ms: f64,
    /// GPU time in the accelerated (encoding + MLP) kernels (ms).
    pub gpu_accel_ms: f64,
    /// GPU time in the remaining kernels (ms).
    pub gpu_rest_ms: f64,
    /// Fused rest-kernel time on the GPU (ms).
    pub fused_rest_ms: f64,
}

impl GpuBaseline {
    /// The baseline of one kernel breakdown.
    pub fn of(breakdown: &ng_gpu::KernelBreakdown) -> Self {
        GpuBaseline {
            gpu_ms: breakdown.total_ms(),
            gpu_accel_ms: breakdown.encoding_ms + breakdown.mlp_ms,
            gpu_rest_ms: breakdown.rest_ms,
            fused_rest_ms: breakdown.rest_ms / REST_FUSION_SPEEDUP,
        }
    }

    /// NGPC time of the accelerated kernels on a cluster of `nfp_units`
    /// NFPs of pipeline slope `g` ([`SlopeFactors::slope`]).
    pub fn accel_ms(&self, g: f64, nfp_units: u32) -> f64 {
        self.gpu_ms / (g * nfp_units as f64)
    }

    /// End-to-end frame time: the slower of the two pipeline stages.
    pub fn frame_ms(&self, accel_ms: f64) -> f64 {
        accel_ms.max(self.fused_rest_ms)
    }

    /// End-to-end speedup over the GPU baseline of a cluster of
    /// `nfp_units` NFPs of slope `g`: the one implementation of the
    /// speedup, which [`compose`] and a sweep's scorer both call.
    pub fn speedup(&self, g: f64, nfp_units: u32) -> f64 {
        self.gpu_ms / self.frame_ms(self.accel_ms(g, nfp_units))
    }
}

/// Compose the timing model of a cluster of `nfp_units` NFPs from its
/// factors: the GPU baseline, the slope `g` ([`SlopeFactors::slope`])
/// and the cluster's area and power as percentages of the GPU's.
pub fn compose(
    nfp_units: u32,
    g: f64,
    gpu: &GpuBaseline,
    area_pct_of_gpu: f64,
    power_pct_of_gpu: f64,
) -> EmulationResult {
    let ngpc_accel_ms = gpu.accel_ms(g, nfp_units);
    EmulationResult {
        gpu_ms: gpu.gpu_ms,
        gpu_accel_ms: gpu.gpu_accel_ms,
        gpu_rest_ms: gpu.gpu_rest_ms,
        ngpc_accel_ms,
        fused_rest_ms: gpu.fused_rest_ms,
        ngpc_frame_ms: gpu.frame_ms(ngpc_accel_ms),
        speedup: gpu.speedup(g, nfp_units),
        amdahl_bound: gpu.gpu_ms / gpu.fused_rest_ms,
        plateaued: ngpc_accel_ms <= gpu.fused_rest_ms,
        area_pct_of_gpu,
        power_pct_of_gpu,
    }
}

/// Run the emulator for one configuration: its factors, then
/// [`compose`].
pub fn emulate(input: &EmulatorInput) -> EmulationResult {
    let breakdown = ng_gpu::kernel_breakdown(input.app, input.encoding, input.pixels);
    let hw = ng_hw::ngpc_area_power_vs(&input.nfp.floorplan(), input.nfp_units, REFERENCE_GPU);
    compose(
        input.nfp_units,
        SlopeFactors::of(input).slope(),
        &GpuBaseline::of(&breakdown),
        hw.area_pct_of_gpu,
        hw.power_pct_of_gpu,
    )
}

/// A field-less wrapper whose `eval` is [`emulate`]. Kept only because
/// the benchmark's replay links it; nothing in the workspace uses it.
#[derive(Debug, Default)]
pub struct EmulationContext;

impl EmulationContext {
    /// A context.
    pub fn new() -> Self {
        EmulationContext
    }

    /// [`emulate`].
    pub fn eval(&mut self, input: &EmulatorInput) -> EmulationResult {
        emulate(input)
    }
}

/// Batched emulation: the same pipeline evaluated at finite batch
/// granularity through the Fig. 10-b schedule model instead of the
/// steady-state `max()`.
///
/// With `n_batches` double-buffered batches per frame, the makespan is
/// the classic two-stage pipeline `a + (n-1) max(a, b) + b`; as the batch
/// count grows this converges to the steady-state frame time reported by
/// [`emulate`] (a property the test-suite pins).
pub fn emulate_batched(input: &EmulatorInput, n_batches: u64) -> EmulationResult {
    let mut result = emulate(input);
    let n = n_batches.max(1);
    let a = result.ngpc_accel_ms / n as f64;
    let b = result.fused_rest_ms / n as f64;
    result.ngpc_frame_ms = crate::sched::overlapped_makespan_ms(n, a, b);
    result.speedup = result.gpu_ms / result.ngpc_frame_ms;
    result.plateaued = a <= b;
    result
}

/// Average end-to-end speedup across the four applications at one scaling
/// factor (the bars of Fig. 12): their [`cross_app_mean`].
pub fn average_speedup(encoding: EncodingKind, nfp_units: u32) -> f64 {
    cross_app_mean(AppKind::ALL.iter().map(|&app| {
        emulate(&EmulatorInput { app, encoding, nfp_units, ..EmulatorInput::default() }).speedup
    }))
}

/// The cross-app mean of one architecture's per-app `speedups`, in app
/// order: summed in that order, then divided by their count. The one
/// implementation of the mean: [`average_speedup`] and the design-space
/// explorer's cross-app fold and scorer call it.
///
/// # Panics
///
/// If `speedups` is empty.
pub fn cross_app_mean(speedups: impl IntoIterator<Item = f64>) -> f64 {
    let mut speedups = speedups.into_iter();
    let first = speedups.next().expect("an architecture has at least one app");
    let (mut apps, mut sum) = (1u32, first);
    for speedup in speedups {
        apps += 1;
        sum += speedup;
    }
    sum / apps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NgpcConfig;

    #[test]
    fn fig12a_hashgrid_averages_match_paper() {
        // Paper: 12.94x / 20.85x / 33.73x / 39.04x for NGPC-8/16/32/64.
        let targets = [(8u32, 12.94f64), (16, 20.85), (32, 33.73), (64, 39.04)];
        for (n, t) in targets {
            let avg = average_speedup(EncodingKind::MultiResHashGrid, n);
            assert!((avg - t).abs() < t * 0.01, "NGPC-{n}: {avg} vs paper {t}");
        }
    }

    #[test]
    fn fig12b_densegrid_averages_match_paper() {
        // Paper: 9.05x / 14.22x / 22.57x / 26.22x.
        let targets = [(8u32, 9.05f64), (16, 14.22), (32, 22.57), (64, 26.22)];
        for (n, t) in targets {
            let avg = average_speedup(EncodingKind::MultiResDenseGrid, n);
            assert!((avg - t).abs() < t * 0.01, "NGPC-{n}: {avg} vs paper {t}");
        }
    }

    #[test]
    fn fig12c_low_res_averages_match_paper() {
        // Paper: 9.37x / 14.66x / 22.97x / 26.4x.
        let targets = [(8u32, 9.37f64), (16, 14.66), (32, 22.97), (64, 26.4)];
        for (n, t) in targets {
            let avg = average_speedup(EncodingKind::LowResDenseGrid, n);
            assert!((avg - t).abs() < t * 0.015, "NGPC-{n}: {avg} vs paper {t}");
        }
    }

    #[test]
    fn plateau_points_match_paper() {
        // Paper: NeRF plateaus at NGPC-64, NSDF at 32, NVR at 16, GIA at
        // 64 (hashgrid).
        let plateau_at = |app: AppKind| {
            for n in NgpcConfig::SCALING_FACTORS {
                let r = emulate(&EmulatorInput { app, nfp_units: n, ..EmulatorInput::default() });
                if r.plateaued {
                    return n;
                }
            }
            128
        };
        assert_eq!(plateau_at(AppKind::Nerf), 64);
        assert_eq!(plateau_at(AppKind::Nsdf), 32);
        assert_eq!(plateau_at(AppKind::Nvr), 16);
        assert_eq!(plateau_at(AppKind::Gia), 64);
    }

    #[test]
    fn up_to_58x_end_to_end() {
        // Paper: "NGPC gives up to 58.36x end-to-end application-level
        // performance improvement" — GIA at NGPC-64.
        let r = emulate(&EmulatorInput {
            app: AppKind::Gia,
            nfp_units: 64,
            ..EmulatorInput::default()
        });
        assert!((r.speedup - 58.36).abs() < 0.4, "{}", r.speedup);
    }

    #[test]
    fn speedup_never_exceeds_amdahl_bound() {
        // The paper's own sanity check (Fig. 12 horizontal lines).
        for enc in EncodingKind::ALL {
            for app in AppKind::ALL {
                for n in NgpcConfig::SCALING_FACTORS {
                    let r = emulate(&EmulatorInput {
                        app,
                        encoding: enc,
                        nfp_units: n,
                        ..EmulatorInput::default()
                    });
                    assert!(
                        r.speedup <= r.amdahl_bound + 1e-9,
                        "{app}/{enc} N={n}: {} > {}",
                        r.speedup,
                        r.amdahl_bound
                    );
                }
            }
        }
    }

    #[test]
    fn speedup_monotone_in_units() {
        for app in AppKind::ALL {
            let mut prev = 0.0;
            for n in NgpcConfig::SCALING_FACTORS {
                let r = emulate(&EmulatorInput { app, nfp_units: n, ..EmulatorInput::default() });
                assert!(r.speedup >= prev - 1e-9, "{app} regressed at N={n}");
                prev = r.speedup;
            }
        }
    }

    #[test]
    fn speedup_independent_of_resolution() {
        // Fractions are resolution-independent, so speedup is too —
        // which is what lets Fig. 14 scale pixels by the speedup.
        let base = emulate(&EmulatorInput::default()).speedup;
        let four_k =
            emulate(&EmulatorInput { pixels: 3840 * 2160, ..EmulatorInput::default() }).speedup;
        assert!((base - four_k).abs() < 1e-9);
    }

    #[test]
    fn faster_clock_raises_unplateaued_speedup() {
        let slow = emulate(&EmulatorInput::default());
        let fast = emulate(&EmulatorInput {
            nfp: NfpConfig { clock_ghz: 2.0, ..NfpConfig::default() },
            ..EmulatorInput::default()
        });
        assert!(fast.speedup > slow.speedup);
    }

    #[test]
    fn batched_emulation_converges_to_steady_state() {
        let input = EmulatorInput { nfp_units: 32, ..EmulatorInput::default() };
        let steady = emulate(&input);
        let coarse = emulate_batched(&input, 2);
        let fine = emulate_batched(&input, 4096);
        // Finite batching adds pipeline fill/drain, so it is never faster.
        assert!(coarse.ngpc_frame_ms >= steady.ngpc_frame_ms);
        assert!(fine.ngpc_frame_ms >= steady.ngpc_frame_ms);
        // ... and converges to the steady state as batches shrink.
        let rel = (fine.ngpc_frame_ms - steady.ngpc_frame_ms) / steady.ngpc_frame_ms;
        assert!(rel < 0.01, "batched did not converge: {rel}");
        assert!(coarse.ngpc_frame_ms > fine.ngpc_frame_ms);
    }

    #[test]
    fn single_batch_serialises_the_stages() {
        let input = EmulatorInput { nfp_units: 16, ..EmulatorInput::default() };
        let steady = emulate(&input);
        let one = emulate_batched(&input, 1);
        let expected = steady.ngpc_accel_ms + steady.fused_rest_ms;
        assert!((one.ngpc_frame_ms - expected).abs() < 1e-9);
    }

    #[test]
    fn paper_config_has_unit_timing_factors() {
        // The SRAM/banking factors are calibrated to 1.0 at the paper's
        // NFP, so every published number is unchanged by them.
        let nfp = NfpConfig::default();
        for enc in EncodingKind::ALL {
            assert_eq!(sram_capacity_factor(&nfp, enc), 1.0, "{enc}");
        }
        for app in AppKind::ALL {
            assert_eq!(bank_conflict_factor(&nfp, app), 1.0, "{app}");
        }
    }

    #[test]
    fn small_sram_and_few_banks_cost_speedup() {
        let base = emulate(&EmulatorInput { nfp_units: 64, ..EmulatorInput::default() });
        let starved = emulate(&EmulatorInput {
            nfp_units: 64,
            nfp: NfpConfig { grid_sram_bytes: 256 * 1024, ..NfpConfig::default() },
            ..EmulatorInput::default()
        });
        assert!(starved.speedup < base.speedup, "{} vs {}", starved.speedup, base.speedup);
        let banked = emulate(&EmulatorInput {
            nfp_units: 64,
            nfp: NfpConfig { grid_sram_banks: 2, ..NfpConfig::default() },
            ..EmulatorInput::default()
        });
        assert!(banked.speedup < base.speedup);
        // GIA cells are 2D (4 corners): 4 banks already suffice.
        let gia = |banks| {
            emulate(&EmulatorInput {
                app: AppKind::Gia,
                nfp_units: 8,
                nfp: NfpConfig { grid_sram_banks: banks, ..NfpConfig::default() },
                ..EmulatorInput::default()
            })
            .speedup
        };
        assert_eq!(gia(4), gia(8));
    }

    #[test]
    fn compositional_model_matches_legacy_slope_at_paper_nfp() {
        // The ISSUE-3 contract: at the paper's NFP the compositional
        // slope equals the calibrated residual (the legacy slope table)
        // to within 1e-9 — in fact bit-exactly, because the MAC/engine
        // factor is a ratio of a value with itself.
        let nfp = NfpConfig::default();
        for enc in EncodingKind::ALL {
            for app in AppKind::ALL {
                let factor = mac_engine_factor(app, enc, &nfp);
                assert_eq!(factor, 1.0, "{app}/{enc}: factor {factor}");
                let input = EmulatorInput { app, encoding: enc, ..EmulatorInput::default() };
                let g = SlopeFactors::of(&input).slope();
                let legacy = calibrated_residual(app, enc);
                assert!((g - legacy).abs() < 1e-9, "{app}/{enc}: {g} vs {legacy}");
                assert_eq!(g, legacy, "paper-NFP slope must be byte-identical");
            }
        }
    }

    #[test]
    fn throughput_monotone_in_mac_dims_and_engines() {
        // More MACs or more engines never *increase* the per-query
        // cycles (never decrease modelled throughput).
        for enc in EncodingKind::ALL {
            for app in AppKind::ALL {
                let mut prev = f64::INFINITY;
                for dim in [8u32, 16, 32, 64, 128, 256] {
                    let nfp = NfpConfig { mac_rows: dim, mac_cols: dim, ..NfpConfig::default() };
                    let c = per_sample_cycles(app, enc, &nfp);
                    assert!(c <= prev + 1e-12, "{app}/{enc} mac {dim}: {c} > {prev}");
                    prev = c;
                }
                let mut prev = f64::INFINITY;
                for engines in [1u32, 2, 4, 8, 16, 32, 64] {
                    let nfp = NfpConfig { encoding_engines: engines, ..NfpConfig::default() };
                    let c = per_sample_cycles(app, enc, &nfp);
                    assert!(c <= prev + 1e-12, "{app}/{enc} engines {engines}: {c} > {prev}");
                    prev = c;
                }
            }
        }
    }

    #[test]
    fn small_mac_array_costs_unplateaued_speedup() {
        let base = emulate(&EmulatorInput { nfp_units: 8, ..EmulatorInput::default() });
        let narrow = emulate(&EmulatorInput {
            nfp_units: 8,
            nfp: NfpConfig { mac_rows: 16, mac_cols: 16, ..NfpConfig::default() },
            ..EmulatorInput::default()
        });
        assert!(narrow.speedup < base.speedup, "{} vs {}", narrow.speedup, base.speedup);
    }

    #[test]
    fn few_engines_pay_grid_sram_pressure() {
        // 8 engines under a 16-level hashgrid serve 2 level tables
        // each: the 1 MB grid SRAM now only covers half the working
        // set, and the spilled fetches cost end-to-end speedup.
        let halved = NfpConfig { encoding_engines: 8, ..NfpConfig::default() };
        assert!(sram_capacity_factor(&halved, EncodingKind::MultiResHashGrid) < 1.0);
        let base = emulate(&EmulatorInput { nfp_units: 8, ..EmulatorInput::default() });
        let starved =
            emulate(&EmulatorInput { nfp_units: 8, nfp: halved, ..EmulatorInput::default() });
        assert!(starved.speedup < base.speedup, "{} vs {}", starved.speedup, base.speedup);
        // The two-table low-res working set still fits easily: no
        // penalty beyond the lost parallel input lanes.
        assert_eq!(sram_capacity_factor(&halved, EncodingKind::LowResDenseGrid), 1.0);
        // Very few engines under many levels also serialise the rounds
        // hard enough to show up in the cycle model itself.
        let two = NfpConfig { encoding_engines: 2, ..NfpConfig::default() };
        let full =
            per_sample_cycles(AppKind::Nsdf, EncodingKind::MultiResHashGrid, &NfpConfig::default());
        let serialised = per_sample_cycles(AppKind::Nsdf, EncodingKind::MultiResHashGrid, &two);
        assert!(serialised > full, "{serialised} vs {full}");
    }

    #[test]
    fn shallow_fifo_slides_toward_serial_stages() {
        let app = AppKind::Nsdf;
        let enc = EncodingKind::MultiResHashGrid;
        let deep = per_sample_cycles(app, enc, &NfpConfig::default());
        let shallow =
            per_sample_cycles(app, enc, &NfpConfig { input_fifo_depth: 1, ..NfpConfig::default() });
        assert!(shallow > deep, "{shallow} vs {deep}");
        // Depth at (or past) the knee is exactly full overlap.
        let at_knee = per_sample_cycles(
            app,
            enc,
            &NfpConfig { input_fifo_depth: 16, ..NfpConfig::default() },
        );
        assert_eq!(at_knee, deep);
    }

    #[test]
    fn area_power_are_attached() {
        let r = emulate(&EmulatorInput { nfp_units: 8, ..EmulatorInput::default() });
        assert!(r.area_pct_of_gpu > 3.0 && r.area_pct_of_gpu < 6.0);
        assert!(r.power_pct_of_gpu > 1.5 && r.power_pct_of_gpu < 4.0);
    }
}
