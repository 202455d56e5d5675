//! Hardware configuration of the NFP and the NGPC cluster.

use crate::error::{NgpcError, Result};

/// Configuration of a single Neural Fields Processor (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfpConfig {
    /// Number of input-encoding engines (16 — the maximum level count of
    /// the studied encodings).
    pub encoding_engines: u32,
    /// Grid SRAM per encoding engine in bytes (1 MB: sized so one
    /// resolution level's table fits on-chip).
    pub grid_sram_bytes: usize,
    /// SRAM banks per grid SRAM; with `2^d` banks all corners of a cell
    /// can be fetched in one cycle.
    pub grid_sram_banks: u32,
    /// Query lanes per encoding engine (parallel corner-fetch pipelines).
    pub lanes_per_engine: u32,
    /// MAC array rows of the MLP engine.
    pub mac_rows: u32,
    /// MAC array columns of the MLP engine.
    pub mac_cols: u32,
    /// Input FIFO depth in entries.
    pub input_fifo_depth: u32,
    /// Operating frequency in GHz.
    pub clock_ghz: f64,
}

impl Default for NfpConfig {
    /// [`NfpConfig::PAPER`].
    fn default() -> Self {
        Self::PAPER
    }
}

impl NfpConfig {
    /// The paper's NFP, read from its one declaration,
    /// [`ng_hw::NfpFloorplan::PAPER`]: 16 engines, 1 MB grid SRAMs,
    /// 64x64 MACs, 1 GHz.
    pub const PAPER: NfpConfig = {
        let paper = ng_hw::NfpFloorplan::PAPER;
        NfpConfig {
            encoding_engines: paper.encoding_engines,
            grid_sram_bytes: paper.grid_sram_bytes as usize,
            grid_sram_banks: paper.grid_sram_banks,
            lanes_per_engine: paper.lanes_per_engine,
            mac_rows: paper.mac_rows,
            mac_cols: paper.mac_cols,
            input_fifo_depth: paper.input_fifo_depth,
            clock_ghz: paper.clock_ghz,
        }
    };

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::InvalidConfig`] for zero-sized or absurd
    /// values.
    pub fn validate(&self) -> Result<()> {
        if self.encoding_engines == 0 || self.encoding_engines > 64 {
            return Err(NgpcError::InvalidConfig {
                parameter: "encoding_engines",
                message: format!("must be 1..=64, got {}", self.encoding_engines),
            });
        }
        if self.grid_sram_bytes < 4096 {
            return Err(NgpcError::InvalidConfig {
                parameter: "grid_sram_bytes",
                message: format!("must be >= 4096, got {}", self.grid_sram_bytes),
            });
        }
        if !self.grid_sram_banks.is_power_of_two() {
            return Err(NgpcError::InvalidConfig {
                parameter: "grid_sram_banks",
                message: format!("must be a power of two, got {}", self.grid_sram_banks),
            });
        }
        if self.mac_rows == 0 || self.mac_cols == 0 {
            return Err(NgpcError::InvalidConfig {
                parameter: "mac_array",
                message: "MAC array dimensions must be nonzero".to_string(),
            });
        }
        if self.mac_rows > 1024 || self.mac_cols > 1024 {
            return Err(NgpcError::InvalidConfig {
                parameter: "mac_array",
                message: format!(
                    "MAC array dimensions must be <= 1024, got {}x{}",
                    self.mac_rows, self.mac_cols
                ),
            });
        }
        if self.input_fifo_depth == 0 || self.input_fifo_depth > 4096 {
            return Err(NgpcError::InvalidConfig {
                parameter: "input_fifo_depth",
                message: format!("must be 1..=4096, got {}", self.input_fifo_depth),
            });
        }
        if !(0.1..=5.0).contains(&self.clock_ghz) {
            return Err(NgpcError::InvalidConfig {
                parameter: "clock_ghz",
                message: format!("must be in [0.1, 5.0], got {}", self.clock_ghz),
            });
        }
        if self.lanes_per_engine == 0 || self.lanes_per_engine > 16 {
            return Err(NgpcError::InvalidConfig {
                parameter: "lanes_per_engine",
                message: format!("must be 1..=16, got {}", self.lanes_per_engine),
            });
        }
        Ok(())
    }

    /// Total MAC units in the MLP engine.
    pub fn mac_count(&self) -> u32 {
        self.mac_rows * self.mac_cols
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// The equivalent floorplan for the area/power substrate. The MLP
    /// engine's weight and activation SRAMs are provisioned
    /// proportionally to the MAC array (the paper's buffers per its
    /// array, [`ng_hw::NfpFloorplan::PAPER`], set the per-MAC ratio), so
    /// sweeping the array resizes its buffering with it; floored at one
    /// 4 KiB macro.
    pub fn floorplan(&self) -> ng_hw::NfpFloorplan {
        const PAPER: ng_hw::NfpFloorplan = ng_hw::NfpFloorplan::PAPER;
        const PAPER_MACS: u64 = PAPER.mac_rows as u64 * PAPER.mac_cols as u64;
        let macs = self.mac_count() as u64;
        ng_hw::NfpFloorplan {
            encoding_engines: self.encoding_engines,
            lanes_per_engine: self.lanes_per_engine,
            grid_sram_bytes: self.grid_sram_bytes as u64,
            grid_sram_banks: self.grid_sram_banks,
            mac_rows: self.mac_rows,
            mac_cols: self.mac_cols,
            weight_sram_bytes: (PAPER.weight_sram_bytes * macs / PAPER_MACS).max(4096),
            activation_sram_bytes: (PAPER.activation_sram_bytes * macs / PAPER_MACS).max(4096),
            input_fifo_depth: self.input_fifo_depth,
            clock_ghz: self.clock_ghz,
        }
    }
}

/// Configuration of a Neural Graphics Processing Cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NgpcConfig {
    /// Number of NFP units — the paper's "scaling factor" (8/16/32/64).
    pub nfp_units: u32,
    /// Per-NFP configuration.
    pub nfp: NfpConfig,
}

impl NgpcConfig {
    /// The paper's evaluated scaling factors.
    pub const SCALING_FACTORS: [u32; 4] = [8, 16, 32, 64];

    /// An NGPC with `nfp_units` default NFPs.
    pub fn with_units(nfp_units: u32) -> Self {
        NgpcConfig { nfp_units, nfp: NfpConfig::default() }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::InvalidConfig`] if the unit count is zero or
    /// the NFP configuration is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.nfp_units == 0 || self.nfp_units > 1024 {
            return Err(NgpcError::InvalidConfig {
                parameter: "nfp_units",
                message: format!("must be 1..=1024, got {}", self.nfp_units),
            });
        }
        self.nfp.validate()
    }
}

impl Default for NgpcConfig {
    fn default() -> Self {
        NgpcConfig::with_units(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = NfpConfig::default();
        assert_eq!(c.encoding_engines, 16);
        assert_eq!(c.grid_sram_bytes, 1 << 20);
        assert_eq!(c.mac_count(), 4096);
        assert_eq!(c.clock_ghz, 1.0);
        c.validate().unwrap();
    }

    #[test]
    fn scaling_factors_are_the_papers() {
        assert_eq!(NgpcConfig::SCALING_FACTORS, [8, 16, 32, 64]);
        for n in NgpcConfig::SCALING_FACTORS {
            NgpcConfig::with_units(n).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = NfpConfig { encoding_engines: 0, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NfpConfig { grid_sram_banks: 3, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NfpConfig { clock_ghz: 99.0, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NfpConfig { mac_rows: 0, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NfpConfig { mac_cols: 2048, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NfpConfig { input_fifo_depth: 0, ..NfpConfig::default() };
        assert!(bad.validate().is_err());
        assert!(NgpcConfig { nfp_units: 0, nfp: NfpConfig::default() }.validate().is_err());
    }

    #[test]
    fn floorplan_mirrors_config() {
        assert_eq!(NfpConfig::PAPER.floorplan(), ng_hw::NfpFloorplan::PAPER);
        assert_eq!(NfpConfig::default(), NfpConfig::PAPER);
        let c = NfpConfig::default();
        let f = c.floorplan();
        assert_eq!(f.encoding_engines, 16);
        assert_eq!(f.lanes_per_engine, 1);
        assert_eq!(f.input_fifo_depth, 64);
        assert_eq!(f.grid_sram_bytes, 1 << 20);
        assert_eq!(f.mac_rows * f.mac_cols, 4096);
        // The paper's MLP buffering is reproduced exactly at 64x64...
        assert_eq!(f.weight_sram_bytes, 128 * 1024);
        assert_eq!(f.activation_sram_bytes, 32 * 1024);
        // ... and scales with the array elsewhere (floored at 4 KiB).
        let wide = NfpConfig { mac_rows: 128, mac_cols: 128, ..c }.floorplan();
        assert_eq!(wide.weight_sram_bytes, 4 * 128 * 1024);
        let tiny = NfpConfig { mac_rows: 8, mac_cols: 8, ..c }.floorplan();
        assert_eq!(tiny.activation_sram_bytes, 4096);
    }
}
