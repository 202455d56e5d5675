//! Multiresolution grid encodings (instant-NGP family).
//!
//! The scene is covered by `L` grids of geometrically increasing resolution
//! `N_l = floor(N_min * b^l)`. Each level owns a table of up to `T` feature
//! vectors of dimensionality `F`. A query point is located in each level's
//! grid, the features at the 2^d cell corners are fetched (either 1:1 for
//! dense/coarse levels or through the spatial hash for fine hash levels),
//! d-linearly interpolated, and the per-level results are concatenated into
//! the final `L * F`-dimensional MLP input.

use super::hash::{dense_index, dense_vertex_count, spatial_hash, table_mask};
use super::interp::CellPosition;
use super::{check_dim, Encoding};
use crate::apps::EncodingKind;
use crate::error::{NgError, Result};
use crate::math::Pcg32;

/// How grid vertices are mapped to feature-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridKind {
    /// 1:1 for coarse levels; the spatial hash (Eq. 1) once a level has
    /// more vertices than table entries. This is the paper's
    /// *multiresolution hashgrid*.
    Hash,
    /// Always 1:1; tables grow with the level resolution. The paper's
    /// *multiresolution densegrid*.
    Dense,
    /// 1:1 with the flattened vertex index wrapped into the table (the
    /// instant-NGP "tiled" grid). With few, low-resolution levels this is
    /// the paper's *low resolution densegrid*.
    Tiled,
}

/// Hyper-parameters of a multiresolution grid encoding.
///
/// Field names follow the paper's Table I: `N_min` (base resolution), `b`
/// (per-level growth factor), `F` (features per entry), `T` (maximum table
/// entries, always a power of two), `L` (number of levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Input dimensionality `d` (2 for images, 3 for volumes).
    pub dim: usize,
    /// Number of resolution levels `L`.
    pub n_levels: usize,
    /// Features per table entry `F`.
    pub features_per_level: usize,
    /// `log2(T)`: table entries are always a power of two, which is what
    /// lets both the GPU implementation and the NFP hardware replace the
    /// modulo with a mask.
    pub log2_table_size: u32,
    /// Coarsest grid resolution `N_min`.
    pub base_resolution: u32,
    /// Geometric growth factor `b` between levels.
    pub growth_factor: f32,
    /// Vertex-to-entry mapping.
    pub kind: GridKind,
}

impl GridConfig {
    /// The paper's *multiresolution hashgrid* defaults (Table I):
    /// `L = 16`, `F = 2`, `N_min = 16`.
    pub fn hashgrid(dim: usize, log2_table_size: u32, growth_factor: f32) -> Self {
        GridConfig {
            dim,
            n_levels: EncodingKind::MultiResHashGrid.levels(),
            features_per_level: 2,
            log2_table_size,
            base_resolution: 16,
            growth_factor,
            kind: GridKind::Hash,
        }
    }

    /// The paper's *multiresolution densegrid* defaults (Table I):
    /// `L = 8`, `F = 2`, `N_min = 16`, `b = 1.405`.
    pub fn densegrid(dim: usize, log2_table_size: u32) -> Self {
        GridConfig {
            dim,
            n_levels: EncodingKind::MultiResDenseGrid.levels(),
            features_per_level: 2,
            log2_table_size,
            base_resolution: 16,
            growth_factor: 1.405,
            kind: GridKind::Dense,
        }
    }

    /// The paper's *low resolution densegrid* defaults (Table I):
    /// `L = 2`, `F = 8`, `N_min = 128`, `b = 1`.
    pub fn low_res_densegrid(dim: usize, log2_table_size: u32) -> Self {
        GridConfig {
            dim,
            n_levels: EncodingKind::LowResDenseGrid.levels(),
            features_per_level: 8,
            log2_table_size,
            base_resolution: 128,
            growth_factor: 1.0,
            kind: GridKind::Tiled,
        }
    }

    /// Resolution of level `l`: `floor(N_min * b^l)`.
    pub fn level_resolution(&self, level: usize) -> u32 {
        (self.base_resolution as f64 * (self.growth_factor as f64).powi(level as i32)).floor()
            as u32
    }

    /// Output feature width `L * F`.
    pub fn output_dim(&self) -> usize {
        self.n_levels * self.features_per_level
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::InvalidConfig`] for out-of-range values (e.g.
    /// `dim` not in 1..=3, zero levels, growth factor below 1).
    pub fn validate(&self) -> Result<()> {
        if !(1..=3).contains(&self.dim) {
            return Err(NgError::InvalidConfig {
                parameter: "dim",
                message: format!("must be 1..=3, got {}", self.dim),
            });
        }
        if self.n_levels == 0 || self.n_levels > 32 {
            return Err(NgError::InvalidConfig {
                parameter: "n_levels",
                message: format!("must be 1..=32, got {}", self.n_levels),
            });
        }
        if self.features_per_level == 0 || self.features_per_level > 16 {
            return Err(NgError::InvalidConfig {
                parameter: "features_per_level",
                message: format!("must be 1..=16, got {}", self.features_per_level),
            });
        }
        if !(1.0..=4.0).contains(&self.growth_factor) {
            return Err(NgError::InvalidConfig {
                parameter: "growth_factor",
                message: format!("must be in [1, 4], got {}", self.growth_factor),
            });
        }
        if self.base_resolution == 0 {
            return Err(NgError::InvalidConfig {
                parameter: "base_resolution",
                message: "must be nonzero".to_string(),
            });
        }
        if self.log2_table_size == 0 || self.log2_table_size > 26 {
            return Err(NgError::InvalidConfig {
                parameter: "log2_table_size",
                message: format!("must be 1..=26, got {}", self.log2_table_size),
            });
        }
        Ok(())
    }
}

/// Per-level derived layout, exposed so the hardware model (`ngpc` crate)
/// can size its grid SRAMs and index logic against the exact same numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLayout {
    /// Grid resolution `N_l` (cells per axis; vertices are `N_l + 1`).
    pub resolution: u32,
    /// Feature-table entries actually allocated for this level.
    pub entries: usize,
    /// Whether vertex indices go through the spatial hash.
    pub hashed: bool,
    /// Whether the flattened dense index wraps (tiled levels whose vertex
    /// count exceeds the table size).
    pub wrapped: bool,
    /// Offset (in feature vectors, not floats) into the parameter buffer.
    pub offset: usize,
}

/// The table layout of a grid configuration — every per-level shape a
/// grid of that configuration would have, computed *without* allocating
/// or initialising the parameter tables themselves.
///
/// Analytical consumers (the GPU cache model, workload derivation, the
/// NFP SRAM sizing) only ever read shapes, never weights; going through
/// a layout instead of a full [`MultiResGrid`] turns an
/// allocate-and-RNG-fill of tens of MiB (the NeRF hash tables) into
/// `O(levels)` integer math.
///
/// ```
/// use ng_neural::encoding::{GridConfig, GridLayout, MultiResGrid};
///
/// # fn main() -> ng_neural::Result<()> {
/// let cfg = GridConfig::hashgrid(3, 14, 1.5);
/// let layout = GridLayout::new(cfg)?;
/// // Bit-identical to the layout of a fully materialised grid.
/// assert_eq!(layout.levels(), MultiResGrid::new(cfg, 1)?.levels());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridLayout {
    config: GridConfig,
    levels: Vec<LevelLayout>,
    /// Feature vectors across all levels (the end offset).
    total_entries: usize,
}

impl GridLayout {
    /// Compute the per-level layout of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: GridConfig) -> Result<Self> {
        config.validate()?;
        let table_cap = 1usize << config.log2_table_size;
        let mut levels = Vec::with_capacity(config.n_levels);
        let mut offset = 0usize;
        for l in 0..config.n_levels {
            let resolution = config.level_resolution(l);
            let vertices = dense_vertex_count(resolution, config.dim);
            let (entries, hashed, wrapped) = match config.kind {
                GridKind::Hash => {
                    if vertices <= table_cap as u64 {
                        (vertices as usize, false, false)
                    } else {
                        (table_cap, true, false)
                    }
                }
                GridKind::Dense => (vertices as usize, false, false),
                GridKind::Tiled => {
                    if vertices <= table_cap as u64 {
                        (vertices as usize, false, false)
                    } else {
                        (table_cap, false, true)
                    }
                }
            };
            levels.push(LevelLayout { resolution, entries, hashed, wrapped, offset });
            offset += entries;
        }
        Ok(GridLayout { config, levels, total_entries: offset })
    }

    /// The configuration this layout was computed from.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Per-level layout (entries, hashing, offsets).
    pub fn levels(&self) -> &[LevelLayout] {
        &self.levels
    }

    /// Number of `f32` parameters a materialised grid would hold.
    pub fn param_count(&self) -> usize {
        self.total_entries * self.config.features_per_level
    }

    /// Total table footprint in bytes assuming `bytes_per_param`
    /// storage.
    pub fn footprint_bytes(&self, bytes_per_param: usize) -> usize {
        self.param_count() * bytes_per_param
    }

    /// Footprint in bytes of a single level's table.
    pub fn level_footprint_bytes(&self, level: usize, bytes_per_param: usize) -> usize {
        self.levels[level].entries * self.config.features_per_level * bytes_per_param
    }
}

/// A trainable multiresolution grid encoding.
///
/// ```
/// use ng_neural::encoding::{Encoding, GridConfig, MultiResGrid};
///
/// # fn main() -> ng_neural::Result<()> {
/// let cfg = GridConfig::hashgrid(3, 14, 1.5);
/// let grid = MultiResGrid::new(cfg, 1)?;
/// let features = grid.encode(&[0.25, 0.5, 0.75])?;
/// assert_eq!(features.len(), 32); // 16 levels x 2 features
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiResGrid {
    config: GridConfig,
    levels: Vec<LevelLayout>,
    params: Vec<f32>,
}

impl MultiResGrid {
    /// Scale of the random uniform initialisation of table entries, as in
    /// instant-NGP.
    pub const INIT_SCALE: f32 = 1e-4;

    /// Allocate and randomly initialise the encoding tables.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: GridConfig, seed: u64) -> Result<Self> {
        let layout = GridLayout::new(config)?;
        let mut params = vec![0.0f32; layout.param_count()];
        let mut rng = Pcg32::with_stream(seed, 0x9e11);
        rng.fill_uniform(&mut params, -Self::INIT_SCALE, Self::INIT_SCALE);
        Ok(MultiResGrid { config, levels: layout.levels, params })
    }

    /// The configuration this encoding was built from.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Per-level layout (entries, hashing, offsets).
    pub fn levels(&self) -> &[LevelLayout] {
        &self.levels
    }

    /// Total table footprint in bytes assuming `bytes_per_param` storage
    /// (tiny-cuda-nn stores fp16, i.e. 2 bytes). Used by the GPU cache
    /// model and the NFP SRAM sizing.
    pub fn footprint_bytes(&self, bytes_per_param: usize) -> usize {
        self.params.len() * bytes_per_param
    }

    /// Footprint in bytes of a single level's table.
    pub fn level_footprint_bytes(&self, level: usize, bytes_per_param: usize) -> usize {
        self.levels[level].entries * self.config.features_per_level * bytes_per_param
    }

    /// Table index for a vertex of `level`, replicating the hardware
    /// `grid_index` module: dense levels use the row-major index, hashed
    /// levels the spatial hash, tiled levels wrap with the power-of-two
    /// mask.
    #[inline]
    pub fn vertex_entry(&self, level: &LevelLayout, coords: &[u32]) -> usize {
        if level.hashed {
            spatial_hash(coords, self.config.log2_table_size) as usize
        } else if level.wrapped {
            (dense_index(coords, level.resolution) as u32 & table_mask(self.config.log2_table_size))
                as usize
        } else {
            dense_index(coords, level.resolution) as usize
        }
    }

    /// Interpolated features of one level written into `out` (length `F`).
    fn encode_level(&self, level: &LevelLayout, x: &[f32], out: &mut [f32]) {
        let f_dim = self.config.features_per_level;
        out.iter_mut().for_each(|o| *o = 0.0);
        let cell = CellPosition::from_normalized(x, level.resolution);
        for corner in 0..cell.corner_count() {
            let w = cell.corner_weight(corner);
            if w == 0.0 {
                continue;
            }
            let coords = cell.corner_coords(corner);
            let entry = self.vertex_entry(level, &coords[..self.config.dim]);
            let base = (level.offset + entry) * f_dim;
            for (o, p) in out.iter_mut().zip(&self.params[base..base + f_dim]) {
                *o += w * p;
            }
        }
    }
}

impl Encoding for MultiResGrid {
    fn input_dim(&self) -> usize {
        self.config.dim
    }

    fn output_dim(&self) -> usize {
        self.config.output_dim()
    }

    fn encode_into(&self, input: &[f32], out: &mut [f32]) -> Result<()> {
        check_dim("grid encoding input", self.config.dim, input.len())?;
        check_dim("grid encoding output", self.output_dim(), out.len())?;
        let f_dim = self.config.features_per_level;
        for (l, level) in self.levels.iter().enumerate() {
            self.encode_level(level, input, &mut out[l * f_dim..(l + 1) * f_dim]);
        }
        Ok(())
    }

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn backward(&self, input: &[f32], d_out: &[f32], d_params: &mut [f32]) -> Result<()> {
        check_dim("grid backward input", self.config.dim, input.len())?;
        check_dim("grid backward d_out", self.output_dim(), d_out.len())?;
        check_dim("grid backward d_params", self.params.len(), d_params.len())?;
        let f_dim = self.config.features_per_level;
        for (l, level) in self.levels.iter().enumerate() {
            let cell = CellPosition::from_normalized(input, level.resolution);
            let d_level = &d_out[l * f_dim..(l + 1) * f_dim];
            for corner in 0..cell.corner_count() {
                let w = cell.corner_weight(corner);
                if w == 0.0 {
                    continue;
                }
                let coords = cell.corner_coords(corner);
                let entry = self.vertex_entry(level, &coords[..self.config.dim]);
                let base = (level.offset + entry) * f_dim;
                for (f, dl) in d_level.iter().enumerate() {
                    d_params[base + f] += w * dl;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encode_batch;

    fn tiny_hash() -> MultiResGrid {
        MultiResGrid::new(GridConfig::hashgrid(3, 10, 1.5), 7).unwrap()
    }

    #[test]
    fn output_dims_match_table1() {
        let hg = MultiResGrid::new(GridConfig::hashgrid(3, 19, 1.51572), 1).unwrap();
        assert_eq!(hg.output_dim(), 32);
        let dg = MultiResGrid::new(GridConfig::densegrid(3, 19), 1).unwrap();
        assert_eq!(dg.output_dim(), 16);
        let lr = MultiResGrid::new(GridConfig::low_res_densegrid(3, 19), 1).unwrap();
        assert_eq!(lr.output_dim(), 16);
    }

    #[test]
    fn coarse_hash_levels_are_dense() {
        let grid = MultiResGrid::new(GridConfig::hashgrid(3, 19, 1.51572), 1).unwrap();
        // Level 0: 17^3 = 4913 < 2^19 vertices -> 1:1 mapping.
        assert!(!grid.levels()[0].hashed);
        // The finest level must be hashed (resolution ~16*1.51572^15 ~ 8k).
        assert!(grid.levels().last().unwrap().hashed);
    }

    #[test]
    fn dense_levels_never_hash() {
        let grid = MultiResGrid::new(GridConfig::densegrid(3, 19), 1).unwrap();
        assert!(grid.levels().iter().all(|l| !l.hashed));
    }

    #[test]
    fn tiled_levels_wrap_when_too_big() {
        // 129^3 ~ 2.1M vertices > 2^19 entries -> wrapped.
        let grid = MultiResGrid::new(GridConfig::low_res_densegrid(3, 19), 1).unwrap();
        assert!(grid.levels().iter().all(|l| l.wrapped));
        assert!(grid.levels().iter().all(|l| l.entries == 1 << 19));
    }

    #[test]
    fn encoding_is_continuous_across_cell_boundary() {
        let grid = tiny_hash();
        // Sample just left and right of an interior vertex; outputs must be
        // close (the encoding is C0 by construction).
        let eps = 1e-4f32;
        let at = 5.0 / 16.0; // vertex of the coarsest level
        let a = grid.encode(&[at - eps, 0.4, 0.6]).unwrap();
        let b = grid.encode(&[at + eps, 0.4, 0.6]).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "discontinuity: {x} vs {y}");
        }
    }

    #[test]
    fn encode_matches_manual_interpolation_on_vertex() {
        let grid = tiny_hash();
        // On an exact vertex of level 0 the output equals the stored entry.
        let level = grid.levels()[0];
        let res = level.resolution;
        let x = [2.0 / res as f32, 3.0 / res as f32, 4.0 / res as f32];
        let out = grid.encode(&x).unwrap();
        let entry = grid.vertex_entry(&level, &[2, 3, 4]);
        let f_dim = grid.config().features_per_level;
        for (f, o) in out.iter().enumerate().take(f_dim) {
            assert!((o - grid.params()[(level.offset + entry) * f_dim + f]).abs() < 1e-6);
        }
    }

    #[test]
    fn params_initialised_small_and_nonzero() {
        let grid = tiny_hash();
        assert!(grid.params().iter().all(|p| p.abs() <= MultiResGrid::INIT_SCALE));
        assert!(grid.params().iter().any(|p| *p != 0.0));
    }

    #[test]
    fn backward_distributes_weighted_gradients() {
        let grid = tiny_hash();
        let x = [0.21, 0.43, 0.67];
        let d_out = vec![1.0f32; grid.output_dim()];
        let mut d_params = vec![0.0f32; grid.param_count()];
        grid.backward(&x, &d_out, &mut d_params).unwrap();
        // Gradient mass per level must equal the (unit) upstream gradient
        // times the partition-of-unity weights = F per level... but summed
        // over features: F. Total = L * F.
        let total: f32 = d_params.iter().sum();
        let expected = grid.output_dim() as f32;
        assert!((total - expected).abs() < 1e-3, "gradient mass {total} vs expected {expected}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut grid = MultiResGrid::new(GridConfig::hashgrid(2, 8, 1.4), 3).unwrap();
        let x = [0.37, 0.58];
        let out_dim = grid.output_dim();
        // Loss = sum of outputs; dL/d_out = 1.
        let d_out = vec![1.0f32; out_dim];
        let mut analytic = vec![0.0f32; grid.param_count()];
        grid.backward(&x, &d_out, &mut analytic).unwrap();
        // Pick a few parameters and perturb them.
        let sum_of = |g: &MultiResGrid| -> f32 { g.encode(&x).unwrap().iter().sum() };
        let h = 1e-3f32;
        for &idx in &[0usize, 5, 17, 101] {
            let base = sum_of(&grid);
            grid.params_mut()[idx] += h;
            let plus = sum_of(&grid);
            grid.params_mut()[idx] -= h;
            let numeric = (plus - base) / h;
            assert!(
                (analytic[idx] - numeric).abs() < 1e-2,
                "param {idx}: analytic {} vs numeric {numeric}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn batch_encode_agrees_with_single() {
        let grid = tiny_hash();
        let pts = [0.1f32, 0.2, 0.3, 0.7, 0.8, 0.9];
        let batch = encode_batch(&grid, &pts).unwrap();
        let first = grid.encode(&pts[0..3]).unwrap();
        let second = grid.encode(&pts[3..6]).unwrap();
        assert_eq!(&batch[..first.len()], &first[..]);
        assert_eq!(&batch[first.len()..], &second[..]);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MultiResGrid::new(GridConfig { dim: 4, ..GridConfig::hashgrid(3, 14, 1.5) }, 0)
            .is_err());
        assert!(MultiResGrid::new(
            GridConfig { n_levels: 0, ..GridConfig::hashgrid(3, 14, 1.5) },
            0
        )
        .is_err());
        assert!(MultiResGrid::new(
            GridConfig { growth_factor: 0.5, ..GridConfig::hashgrid(3, 14, 1.5) },
            0
        )
        .is_err());
        assert!(MultiResGrid::new(
            GridConfig { log2_table_size: 30, ..GridConfig::hashgrid(3, 14, 1.5) },
            0
        )
        .is_err());
    }

    #[test]
    fn wrong_input_dims_error() {
        let grid = tiny_hash();
        assert!(grid.encode(&[0.5, 0.5]).is_err());
        let mut out = vec![0.0; 3];
        assert!(grid.encode_into(&[0.5, 0.5, 0.5], &mut out).is_err());
    }

    #[test]
    fn footprint_matches_level_sum() {
        let grid = MultiResGrid::new(GridConfig::densegrid(3, 19), 1).unwrap();
        let total: usize = (0..grid.levels().len()).map(|l| grid.level_footprint_bytes(l, 2)).sum();
        assert_eq!(total, grid.footprint_bytes(2));
    }

    #[test]
    fn seeds_change_init() {
        let a = MultiResGrid::new(GridConfig::hashgrid(2, 8, 1.4), 1).unwrap();
        let b = MultiResGrid::new(GridConfig::hashgrid(2, 8, 1.4), 2).unwrap();
        assert_ne!(a.params()[0], b.params()[0]);
    }
}
