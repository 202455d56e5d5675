//! Per-frame workload derivation from the Table I configurations.
//!
//! Everything here is counted, not guessed: MAC counts come from the
//! actual MLP topologies, lookup counts from the grid dimensionality and
//! level count, and table footprints from the exact
//! [`ng_neural::encoding::GridLayout`] a real
//! [`ng_neural::encoding::MultiResGrid`]
//! would allocate (shapes only — deriving a workload does not
//! materialise the tables).

use ng_neural::apps::{table1, AppKind, EncodingKind};
use ng_neural::encoding::GridLayout;

/// Bytes per stored feature parameter (tiny-cuda-nn stores fp16 tables).
pub const BYTES_PER_PARAM: usize = 2;

/// Average field evaluations ("samples") per pixel for each application,
/// matching the instant-NGP renderers the paper profiles: NeRF marches
/// rays through occupancy-pruned space (~16 live samples), NSDF sphere
/// traces (~6 steps at convergence), GIA is a single lookup, NVR marches
/// a bounded volume (~8 samples).
pub fn samples_per_pixel(app: AppKind) -> u32 {
    match app {
        AppKind::Nerf => 16,
        AppKind::Nsdf => 6,
        AppKind::Gia => 1,
        AppKind::Nvr => 8,
    }
}

/// Operation/byte counts of one rendered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameWorkload {
    /// Application.
    pub app: AppKind,
    /// Encoding scheme.
    pub encoding: EncodingKind,
    /// Pixels in the frame.
    pub pixels: u64,
    /// Field evaluations (pixels x samples per pixel).
    pub queries: u64,
    /// Grid levels per query.
    pub levels: u32,
    /// Corner lookups per query (levels x 2^d).
    pub lookups_per_query: u32,
    /// Bytes fetched per corner lookup (F features x fp16).
    pub bytes_per_lookup: u32,
    /// Hash evaluations per query (hashed levels x 2^d corners).
    pub hashes_per_query: u32,
    /// Interpolation MACs per query (levels x 2^d x F plus weight products).
    pub interp_macs_per_query: u32,
    /// MLP multiply-accumulates per query (all networks).
    pub mlp_macs_per_query: u64,
    /// MLP activation bytes streamed per query (inputs + hidden + outputs,
    /// fp16).
    pub mlp_act_bytes_per_query: u64,
    /// Total encoding-table footprint in bytes.
    pub table_bytes: u64,
    /// Bytes of encoded features written by the encoding kernel and
    /// re-read by the MLP kernel (the round trip the NFP fusion removes).
    pub intermediate_bytes: u64,
    /// Per-query cost of the remaining kernels (ray gen, sampling,
    /// compositing), in FP32 FLOPs.
    pub rest_flops_per_query: u32,
}

impl FrameWorkload {
    /// Derive the workload of one frame at `pixels` resolution.
    pub fn derive(app: AppKind, encoding: EncodingKind, pixels: u64) -> Self {
        let params = table1(app, encoding);
        let grid = GridLayout::new(params.grid).expect("table1 configs are valid");
        let d = params.grid.dim as u32;
        let corners = 1u32 << d;
        let levels = params.grid.n_levels as u32;
        let f = params.grid.features_per_level as u32;

        let hashed_levels = grid.levels().iter().filter(|l| l.hashed).count() as u32;
        let queries = pixels * samples_per_pixel(app) as u64;

        let mut mlp_macs = params.mlp.macs_per_inference() as u64;
        let mut act_elems = (params.mlp.input_dim
            + params.mlp.hidden_dim * params.mlp.hidden_layers
            + params.mlp.output_dim) as u64;
        if let Some(color) = params.color_mlp {
            mlp_macs += color.macs_per_inference() as u64;
            act_elems += (color.input_dim
                + color.hidden_dim * color.hidden_layers
                + color.output_dim) as u64;
        }

        let enc_out = params.grid.output_dim() as u64;
        FrameWorkload {
            app,
            encoding,
            pixels,
            queries,
            levels,
            lookups_per_query: levels * corners,
            bytes_per_lookup: f * BYTES_PER_PARAM as u32,
            hashes_per_query: hashed_levels * corners,
            // Per level: 2^d weight products (d muls each) + 2^d * F
            // feature MACs.
            interp_macs_per_query: levels * corners * (d + f),
            mlp_macs_per_query: mlp_macs,
            mlp_act_bytes_per_query: act_elems * BYTES_PER_PARAM as u64,
            table_bytes: grid.footprint_bytes(BYTES_PER_PARAM) as u64,
            intermediate_bytes: queries * enc_out * BYTES_PER_PARAM as u64,
            rest_flops_per_query: match app {
                // Ray generation + stratified sampling + compositing.
                AppKind::Nerf => 96,
                AppKind::Nvr => 96,
                // Sphere-tracing loop bookkeeping + shading.
                AppKind::Nsdf => 64,
                // Tone map / output conversion only.
                AppKind::Gia => 24,
            },
        }
    }

    /// Total bytes the encoding kernel requests from the memory hierarchy
    /// (corner feature fetches).
    pub fn encoding_fetch_bytes(&self) -> u64 {
        self.queries * self.lookups_per_query as u64 * self.bytes_per_lookup as u64
    }

    /// Total MLP MACs per frame.
    pub fn mlp_macs(&self) -> u64 {
        self.queries * self.mlp_macs_per_query
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nerf_hashgrid_counts() {
        let w = FrameWorkload::derive(AppKind::Nerf, EncodingKind::MultiResHashGrid, 1920 * 1080);
        assert_eq!(w.levels, 16);
        assert_eq!(w.lookups_per_query, 16 * 8);
        assert_eq!(w.bytes_per_lookup, 4); // F=2 x fp16
        assert!(w.hashes_per_query > 0);
        // Density (32->64x3->16) + color (32->64x4->3) MACs.
        let density = 32 * 64 + 64 * 64 * 2 + 64 * 16;
        let color = 32 * 64 + 64 * 64 * 3 + 64 * 3;
        assert_eq!(w.mlp_macs_per_query, (density + color) as u64);
    }

    #[test]
    fn dense_grids_never_hash() {
        for app in AppKind::ALL {
            let w = FrameWorkload::derive(app, EncodingKind::MultiResDenseGrid, 1000);
            assert_eq!(w.hashes_per_query, 0);
            let w = FrameWorkload::derive(app, EncodingKind::LowResDenseGrid, 1000);
            assert_eq!(w.hashes_per_query, 0);
        }
    }

    #[test]
    fn gia_is_2d_single_sample() {
        let w = FrameWorkload::derive(AppKind::Gia, EncodingKind::MultiResHashGrid, 1000);
        assert_eq!(w.queries, 1000);
        assert_eq!(w.lookups_per_query, 16 * 4); // 2^2 corners
    }

    #[test]
    fn nerf_table_exceeds_l2() {
        // The paper's Section IV observation: hashgrid tables for all
        // levels don't fit the 6 MB L2.
        let w = FrameWorkload::derive(AppKind::Nerf, EncodingKind::MultiResHashGrid, 1920 * 1080);
        assert!(w.table_bytes > 6 * 1024 * 1024, "table {} bytes", w.table_bytes);
    }

    #[test]
    fn queries_scale_linearly_with_pixels() {
        let a = FrameWorkload::derive(AppKind::Nvr, EncodingKind::MultiResHashGrid, 1000);
        let b = FrameWorkload::derive(AppKind::Nvr, EncodingKind::MultiResHashGrid, 4000);
        assert_eq!(b.queries, 4 * a.queries);
        assert_eq!(b.encoding_fetch_bytes(), 4 * a.encoding_fetch_bytes());
    }

    #[test]
    fn intermediate_traffic_matches_encoding_width() {
        let w = FrameWorkload::derive(AppKind::Nsdf, EncodingKind::MultiResHashGrid, 100);
        // 32 features x 2 bytes x queries.
        assert_eq!(w.intermediate_bytes, w.queries * 64);
    }
}
