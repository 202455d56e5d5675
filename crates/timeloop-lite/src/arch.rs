//! The accelerator architecture being mapped onto: a 2D PE array with a
//! register file per PE, a shared global buffer, and DRAM behind it —
//! the three-level hierarchy Timeloop models for systolic designs.

/// A PE-array accelerator description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeArray {
    /// Array rows (spatial N dimension).
    pub rows: u32,
    /// Array columns (spatial K dimension).
    pub cols: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Global buffer capacity in bytes (weights + activations).
    pub buffer_bytes: u64,
    /// Register-file words per PE.
    pub regfile_words: u32,
}

impl PeArray {
    /// The NFP MLP engine: a 64x64 MAC grid at 1 GHz with the dedicated
    /// weight/activation SRAMs of the paper's Fig. 9-b, the
    /// [`PeArray::from_nfp`] of [`ngpc::NfpConfig::PAPER`], so the
    /// per-layer agreement test on swept arrays and the standalone
    /// Fig. 13 cross-validation map onto the same machine.
    pub fn nfp_mlp_engine() -> Self {
        Self::from_nfp(&ngpc::NfpConfig::PAPER)
    }

    /// The PE array one [`ngpc::NfpConfig`]'s MLP engine presents to
    /// the mapper: the MAC grid is the spatial array, the engine's
    /// dedicated weight/activation SRAMs (provisioned with the array by
    /// [`ngpc::NfpConfig::floorplan`]) are the global buffer, with 8
    /// register-file words per PE.
    pub fn from_nfp(nfp: &ngpc::NfpConfig) -> Self {
        let plan = nfp.floorplan();
        PeArray {
            rows: nfp.mac_rows,
            cols: nfp.mac_cols,
            clock_ghz: nfp.clock_ghz,
            buffer_bytes: plan.weight_sram_bytes + plan.activation_sram_bytes,
            regfile_words: 8,
        }
    }

    /// Total PEs.
    pub fn pes(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Peak MACs per second.
    pub fn peak_macs_per_s(&self) -> f64 {
        self.pes() as f64 * self.clock_ghz * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfp_engine_is_64x64_at_1ghz() {
        let a = PeArray::nfp_mlp_engine();
        assert_eq!(a.pes(), 4096);
        assert!((a.peak_macs_per_s() - 4.096e12).abs() < 1e6);
    }

    #[test]
    fn from_nfp_reproduces_the_paper_engine() {
        let paper = PeArray {
            rows: 64,
            cols: 64,
            clock_ghz: 1.0,
            buffer_bytes: (128 + 32) * 1024,
            regfile_words: 8,
        };
        assert_eq!(PeArray::nfp_mlp_engine(), paper);
        assert_eq!(PeArray::from_nfp(&ngpc::NfpConfig::default()), paper);
        // Off-paper arrays carry their proportional buffering with them.
        let half = ngpc::NfpConfig { mac_rows: 32, mac_cols: 32, ..ngpc::NfpConfig::default() };
        let a = PeArray::from_nfp(&half);
        assert_eq!((a.rows, a.cols), (32, 32));
        assert_eq!(a.buffer_bytes, (128 + 32) * 1024 / 4);
    }
}
