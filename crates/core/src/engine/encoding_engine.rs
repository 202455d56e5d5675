//! The input-encoding engine: one per resolution level, 16 per NFP
//! (paper Fig. 9-a), plus the cluster that gangs them together.

use ng_neural::encoding::MultiResGrid;

use super::grid_index::{GridIndexUnit, IndexMode};
use super::grid_scale::GridScaleUnit;
use super::pos_fract::PosFractUnit;
use super::sram::GridSram;
use crate::config::NfpConfig;
use crate::error::{NgpcError, Result};

/// Metadata of the level an engine is configured for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LevelMeta {
    resolution: u32,
    features: usize,
    dim: usize,
    /// Streaming passes per batch when the table exceeds the SRAM.
    passes: u32,
}

/// One input-encoding engine: FIFO -> grid_scale -> pos_fract ->
/// grid_index -> grid SRAM -> interpol_weights.
#[derive(Debug, Clone)]
pub struct EncodingEngine {
    sram: GridSram,
    index_unit: GridIndexUnit,
    pos_fract: PosFractUnit,
    level: Option<LevelMeta>,
    busy_cycles: u64,
}

impl EncodingEngine {
    /// Create an engine with the given SRAM capacity and banking.
    pub fn new(sram_bytes: usize, banks: u32) -> Self {
        EncodingEngine {
            sram: GridSram::new(sram_bytes, banks),
            index_unit: GridIndexUnit::new(IndexMode::Dense),
            pos_fract: PosFractUnit::new(),
            level: None,
            busy_cycles: 0,
        }
    }

    /// Configure the engine for one level of `grid`: caches the level's
    /// table in the grid SRAM and programs the index mode. The level's
    /// slice is read from `table`, a shared copy of the grid's parameter
    /// buffer (so gangs of engines don't duplicate large tables).
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::InvalidConfig`] for an out-of-range level.
    pub fn configure_shared(
        &mut self,
        grid: &MultiResGrid,
        table: &std::sync::Arc<Vec<f32>>,
        level_idx: usize,
    ) -> Result<()> {
        let level = *grid.levels().get(level_idx).ok_or_else(|| NgpcError::InvalidConfig {
            parameter: "level_idx",
            message: format!("grid has {} levels, asked for {level_idx}", grid.levels().len()),
        })?;
        let cfg = grid.config();
        let f = cfg.features_per_level;
        let passes = self.sram.load_table_shared(
            std::sync::Arc::clone(table),
            level.offset,
            level.entries,
            f,
        );
        self.index_unit = GridIndexUnit::new(if level.hashed {
            IndexMode::Hashed { log2_table_size: cfg.log2_table_size }
        } else if level.wrapped {
            IndexMode::Wrapped { log2_table_size: cfg.log2_table_size }
        } else {
            IndexMode::Dense
        });
        self.level =
            Some(LevelMeta { resolution: level.resolution, features: f, dim: cfg.dim, passes });
        Ok(())
    }

    /// Encode one query's features for the configured level into `out`,
    /// returning the cycles consumed.
    ///
    /// Bit-identical to the software reference: the same corner order,
    /// the same zero-weight skip, the same accumulation order.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::ProgrammingModel`] if the engine is not
    /// configured, or a dimension error for bad slice lengths.
    pub fn encode_into(&mut self, x: &[f32], out: &mut [f32]) -> Result<u64> {
        let meta = self.level.ok_or_else(|| NgpcError::ProgrammingModel {
            message: "encoding engine used before configure".to_string(),
        })?;
        if x.len() != meta.dim || out.len() != meta.features {
            return Err(NgpcError::Neural(ng_neural::NgError::DimensionMismatch {
                context: "encoding engine query",
                expected: meta.dim,
                actual: x.len(),
            }));
        }
        out.iter_mut().for_each(|o| *o = 0.0);
        let cell = self.pos_fract.decompose(x, meta.resolution);
        let mut entries = [0usize; 8];
        let corners = cell.corner_count();
        for (corner, slot) in entries.iter_mut().enumerate().take(corners) {
            let coords = cell.corner_coords(corner);
            *slot = self.index_unit.index(&coords[..meta.dim], meta.resolution);
        }
        let burst = self.sram.burst_cycles(&entries[..corners]);
        for (corner, &entry) in entries.iter().enumerate().take(corners) {
            let w = cell.corner_weight(corner);
            if w == 0.0 {
                continue;
            }
            let feats = self.sram.read(entry);
            for (o, feat) in out.iter_mut().zip(feats) {
                *o += w * feat;
            }
        }
        // Pipeline issue interval: the SRAM burst dominates; streaming
        // levels multiply by the number of table passes.
        let cycles = burst * meta.passes as u64;
        self.busy_cycles += cycles;
        Ok(cycles)
    }

    /// Cycles this engine has been busy.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Access statistics of the engine's grid SRAM.
    pub fn sram_stats(&self) -> super::sram::SramStats {
        self.sram.stats()
    }

    /// Streaming passes per batch of the configured level (1 = table
    /// fully resident).
    pub fn streaming_passes(&self) -> u32 {
        self.level.map_or(0, |l| l.passes)
    }
}

/// The gang of 16 encoding engines of one NFP, with the level-to-engine
/// assignment of the paper: hashgrid (16 levels) uses one engine per
/// level; densegrid (8 levels) processes 2 inputs in parallel; low-res
/// densegrid (2 levels) processes 8 inputs in parallel.
#[derive(Debug)]
pub struct EncodingCluster {
    engines: Vec<EncodingEngine>,
    scale_unit: Option<GridScaleUnit>,
    levels: usize,
    features: usize,
}

impl EncodingCluster {
    /// Create the cluster for an NFP configuration.
    pub fn new(config: &NfpConfig) -> Self {
        let engines = (0..config.encoding_engines)
            .map(|_| EncodingEngine::new(config.grid_sram_bytes, config.grid_sram_banks))
            .collect();
        EncodingCluster { engines, scale_unit: None, levels: 0, features: 0 }
    }

    /// Configure every engine for its level of `grid`, sharing `table`,
    /// one copy of the grid tables, across all engines (and callers can
    /// share it across NFPs). Engines beyond the level count are assigned
    /// to additional parallel input lanes.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::InvalidConfig`] if the grid has more levels
    /// than the cluster has engines.
    pub fn configure_shared(
        &mut self,
        grid: &MultiResGrid,
        table: &std::sync::Arc<Vec<f32>>,
    ) -> Result<()> {
        let levels = grid.levels().len();
        if levels > self.engines.len() {
            return Err(NgpcError::InvalidConfig {
                parameter: "n_levels",
                message: format!(
                    "grid has {levels} levels but cluster has {} engines",
                    self.engines.len()
                ),
            });
        }
        for (i, engine) in self.engines.iter_mut().enumerate() {
            engine.configure_shared(grid, table, i % levels)?;
        }
        self.scale_unit = Some(GridScaleUnit::configure(grid.config()));
        self.levels = levels;
        self.features = grid.config().features_per_level;
        Ok(())
    }

    /// Parallel input lanes: how many queries enter per cycle (16 engines
    /// split across the level count).
    pub fn parallel_inputs(&self) -> usize {
        match self.engines.len().checked_div(self.levels) {
            None => 0,
            Some(per) => per.max(1),
        }
    }

    /// Encode one query across all levels into `out` (`levels x F` wide),
    /// returning the cycles consumed by the slowest engine.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; the cluster must be configured first.
    pub fn encode_into(&mut self, x: &[f32], out: &mut [f32]) -> Result<u64> {
        if self.levels == 0 {
            return Err(NgpcError::ProgrammingModel {
                message: "encoding cluster used before configure".to_string(),
            });
        }
        if out.len() != self.levels * self.features {
            return Err(NgpcError::Neural(ng_neural::NgError::DimensionMismatch {
                context: "encoding cluster output",
                expected: self.levels * self.features,
                actual: out.len(),
            }));
        }
        let mut worst = 0u64;
        for l in 0..self.levels {
            let cycles = self.engines[l]
                .encode_into(x, &mut out[l * self.features..(l + 1) * self.features])?;
            worst = worst.max(cycles);
        }
        Ok(worst)
    }

    /// Cycle model for a batch of `n` queries: queries issue at
    /// `parallel_inputs` per cycle (times any streaming factor), plus the
    /// pipeline fill latency.
    pub fn batch_cycles(&self, n: u64) -> u64 {
        let par = self.parallel_inputs().max(1) as u64;
        let passes = self.engines[..self.levels]
            .iter()
            .map(|e| e.streaming_passes() as u64)
            .max()
            .unwrap_or(1);
        let fill = PosFractUnit::LATENCY_CYCLES + 4;
        n.div_ceil(par) * passes + fill
    }

    /// Number of configured levels.
    pub fn levels(&self) -> usize {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_neural::encoding::{Encoding, GridConfig};
    use std::sync::Arc;

    fn grid(kind: GridConfig) -> MultiResGrid {
        MultiResGrid::new(kind, 7).unwrap()
    }

    /// A shared copy of `grid`'s parameter buffer.
    fn table(grid: &MultiResGrid) -> Arc<Vec<f32>> {
        Arc::new(grid.params().to_vec())
    }

    #[test]
    fn engine_matches_reference_per_level() {
        let g = grid(GridConfig::hashgrid(3, 12, 1.5));
        let mut cluster = EncodingCluster::new(&NfpConfig::default());
        cluster.configure_shared(&g, &table(&g)).unwrap();
        let x = [0.23f32, 0.71, 0.48];
        let mut hw = vec![0.0f32; g.output_dim()];
        cluster.encode_into(&x, &mut hw).unwrap();
        let sw = g.encode(&x).unwrap();
        assert_eq!(hw, sw, "hardware encoding must be bit-identical");
    }

    #[test]
    fn equivalence_across_all_table1_encodings() {
        for cfg in [
            GridConfig::hashgrid(3, 14, 1.51572),
            GridConfig::densegrid(3, 14),
            GridConfig::low_res_densegrid(3, 14),
            GridConfig::hashgrid(2, 12, 1.25992),
        ] {
            let g = grid(cfg);
            let mut cluster = EncodingCluster::new(&NfpConfig::default());
            cluster.configure_shared(&g, &table(&g)).unwrap();
            let x: Vec<f32> = (0..cfg.dim).map(|i| 0.1 + 0.3 * i as f32).collect();
            let mut hw = vec![0.0f32; g.output_dim()];
            cluster.encode_into(&x, &mut hw).unwrap();
            assert_eq!(hw, g.encode(&x).unwrap(), "{cfg:?}");
        }
    }

    #[test]
    fn parallel_inputs_match_paper() {
        // 16 engines: hashgrid (16 levels) -> 1 input; densegrid (8) ->
        // 2 inputs; low-res (2) -> 8 inputs in parallel.
        let cases = [
            (GridConfig::hashgrid(3, 12, 1.5), 1),
            (GridConfig::densegrid(3, 12), 2),
            (GridConfig::low_res_densegrid(3, 12), 8),
        ];
        for (cfg, expect) in cases {
            let g = grid(cfg);
            let mut cluster = EncodingCluster::new(&NfpConfig::default());
            cluster.configure_shared(&g, &table(&g)).unwrap();
            assert_eq!(cluster.parallel_inputs(), expect, "{cfg:?}");
        }
    }

    #[test]
    fn batch_cycles_scale_with_parallelism() {
        let (hash, low_res) =
            (grid(GridConfig::hashgrid(3, 12, 1.5)), grid(GridConfig::low_res_densegrid(3, 12)));
        let mut hash_cluster = EncodingCluster::new(&NfpConfig::default());
        hash_cluster.configure_shared(&hash, &table(&hash)).unwrap();
        let mut lr_cluster = EncodingCluster::new(&NfpConfig::default());
        lr_cluster.configure_shared(&low_res, &table(&low_res)).unwrap();
        let n = 100_000;
        assert!(lr_cluster.batch_cycles(n) < hash_cluster.batch_cycles(n) / 4);
    }

    #[test]
    fn unconfigured_cluster_errors() {
        let mut cluster = EncodingCluster::new(&NfpConfig::default());
        let mut out = vec![0.0; 4];
        assert!(cluster.encode_into(&[0.5, 0.5, 0.5], &mut out).is_err());
    }

    #[test]
    fn oversized_level_streams_not_fails() {
        // A 2^19-entry hashed level at F=2 needs 2 MiB; the 1 MB SRAM
        // handles it in 2 passes.
        let g = grid(GridConfig::hashgrid(3, 19, 1.51572));
        let mut engine = EncodingEngine::new(1 << 20, 8);
        let last = g.levels().len() - 1;
        engine.configure_shared(&g, &table(&g), last).unwrap();
        assert_eq!(engine.streaming_passes(), 2);
    }

    #[test]
    fn small_levels_resident_in_one_pass() {
        let g = grid(GridConfig::hashgrid(3, 12, 1.5));
        let mut engine = EncodingEngine::new(1 << 20, 8);
        engine.configure_shared(&g, &table(&g), 0).unwrap();
        assert_eq!(engine.streaming_passes(), 1);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let g = grid(GridConfig::densegrid(3, 12));
        let mut engine = EncodingEngine::new(1 << 20, 8);
        engine.configure_shared(&g, &table(&g), 0).unwrap();
        let mut out = vec![0.0f32; 2];
        engine.encode_into(&[0.5, 0.5, 0.5], &mut out).unwrap();
        engine.encode_into(&[0.2, 0.4, 0.6], &mut out).unwrap();
        assert!(engine.busy_cycles() >= 2);
    }
}
