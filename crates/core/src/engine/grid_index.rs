//! The `grid_index` module: computes feature-table indices for corner
//! lookups (paper Fig. 9-a).
//!
//! Configurable to either hash the indices (multiresolution hashgrid) or
//! compute them directly (densegrid / low-res densegrid). The paper's key
//! hardware optimisation lives here: because hash-map sizes are always
//! powers of two, the expensive integer modulo is implemented as a
//! shift/mask. The mask is *exact* (not an approximation) for power-of-
//! two sizes, which is why this unit is bit-identical to the software
//! reference — the equivalence tests below prove it.

use ng_neural::encoding::hash::{dense_index, spatial_hash, table_mask};

/// Index-computation mode of the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Spatial hash into a `2^log2_table_size`-entry table.
    Hashed {
        /// log2 of the table size.
        log2_table_size: u32,
    },
    /// Row-major dense index (1:1 mapping).
    Dense,
    /// Dense index wrapped into a `2^log2_table_size`-entry table via the
    /// power-of-two mask.
    Wrapped {
        /// log2 of the table size.
        log2_table_size: u32,
    },
}

/// The index-computation stage with operation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridIndexUnit {
    mode: IndexMode,
    hash_ops: u64,
    mask_ops: u64,
    index_ops: u64,
}

impl GridIndexUnit {
    /// Create a unit in the given mode.
    pub fn new(mode: IndexMode) -> Self {
        GridIndexUnit { mode, hash_ops: 0, mask_ops: 0, index_ops: 0 }
    }

    /// The configured mode.
    pub fn mode(&self) -> IndexMode {
        self.mode
    }

    /// Table entry for a corner at integer coordinates `coords` on a grid
    /// of `resolution` cells per axis.
    pub fn index(&mut self, coords: &[u32], resolution: u32) -> usize {
        self.index_ops += 1;
        match self.mode {
            IndexMode::Hashed { log2_table_size } => {
                self.hash_ops += 1;
                self.mask_ops += 1;
                spatial_hash(coords, log2_table_size) as usize
            }
            IndexMode::Dense => dense_index(coords, resolution) as usize,
            IndexMode::Wrapped { log2_table_size } => {
                self.mask_ops += 1;
                (dense_index(coords, resolution) as u32 & table_mask(log2_table_size)) as usize
            }
        }
    }

    /// Hash evaluations performed.
    pub fn hash_ops(&self) -> u64 {
        self.hash_ops
    }

    /// Shift/mask (modulo-replacement) operations performed.
    pub fn mask_ops(&self) -> u64 {
        self.mask_ops
    }

    /// Total index computations.
    pub fn index_ops(&self) -> u64 {
        self.index_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_neural::encoding::{GridConfig, MultiResGrid};

    #[test]
    fn hashed_mode_matches_reference_grid() {
        let grid = MultiResGrid::new(GridConfig::hashgrid(3, 14, 1.5), 0).unwrap();
        let level = *grid.levels().last().unwrap();
        assert!(level.hashed);
        let mut unit = GridIndexUnit::new(IndexMode::Hashed { log2_table_size: 14 });
        for c in [[0u32, 1, 2], [100, 200, 50], [999, 1, 77]] {
            assert_eq!(unit.index(&c, level.resolution), grid.vertex_entry(&level, &c));
        }
    }

    #[test]
    fn dense_mode_matches_reference_grid() {
        let grid = MultiResGrid::new(GridConfig::densegrid(3, 19), 0).unwrap();
        let level = grid.levels()[2];
        let mut unit = GridIndexUnit::new(IndexMode::Dense);
        for c in [[0u32, 0, 0], [3, 7, 11], [level.resolution, 0, 5]] {
            assert_eq!(unit.index(&c, level.resolution), grid.vertex_entry(&level, &c));
        }
    }

    #[test]
    fn wrapped_mode_matches_reference_grid() {
        let grid = MultiResGrid::new(GridConfig::low_res_densegrid(3, 19), 0).unwrap();
        let level = grid.levels()[0];
        assert!(level.wrapped);
        let mut unit = GridIndexUnit::new(IndexMode::Wrapped { log2_table_size: 19 });
        for c in [[0u32, 0, 0], [100, 100, 100], [128, 64, 32]] {
            assert_eq!(unit.index(&c, level.resolution), grid.vertex_entry(&level, &c));
        }
    }

    #[test]
    fn mask_equals_general_modulo() {
        // The paper "approximates" the modulo with a shift; for
        // power-of-two sizes the result is exact.
        let mut unit = GridIndexUnit::new(IndexMode::Wrapped { log2_table_size: 10 });
        for c in [[5u32, 9, 3], [1000, 1000, 1000]] {
            let idx = unit.index(&c, 2000);
            let full = dense_index(&c, 2000) % (1u64 << 10);
            assert_eq!(idx as u64, full);
        }
    }

    #[test]
    fn op_counters_track_mode() {
        let mut hashed = GridIndexUnit::new(IndexMode::Hashed { log2_table_size: 12 });
        hashed.index(&[1, 2, 3], 64);
        assert_eq!(hashed.hash_ops(), 1);
        assert_eq!(hashed.mask_ops(), 1);

        let mut dense = GridIndexUnit::new(IndexMode::Dense);
        dense.index(&[1, 2, 3], 64);
        assert_eq!(dense.hash_ops(), 0);
        assert_eq!(dense.mask_ops(), 0);
        assert_eq!(dense.index_ops(), 1);
    }
}
