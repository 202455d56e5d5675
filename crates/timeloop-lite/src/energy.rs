//! Accelergy-style per-access energy accounting at 45 nm.

use crate::mapping::MappingCost;

/// Per-access energies (picojoules per 16-bit word / operation), in the
/// range Accelergy's 45 nm plug-ins report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One fp16 MAC.
    pub mac_pj: f64,
    /// One register-file word access.
    pub regfile_pj: f64,
    /// One global-buffer word access.
    pub buffer_pj: f64,
    /// One DRAM word access.
    pub dram_pj: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable { mac_pj: 1.1, regfile_pj: 0.18, buffer_pj: 6.0, dram_pj: 200.0 }
    }
}

/// Total energy of an evaluated mapping, in microjoules.
pub fn mapping_energy_uj(cost: &MappingCost, table: &EnergyTable) -> f64 {
    let pj = cost.macs as f64 * table.mac_pj
        + cost.regfile_accesses as f64 * table.regfile_pj
        + cost.buffer_reads as f64 * table.buffer_pj
        + cost.dram_words as f64 * table.dram_pj;
    pj * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PeArray;
    use crate::mapping::{Dataflow, Mapping};
    use crate::problem::Gemm;

    #[test]
    fn dram_dominates_naive_mappings() {
        let table = EnergyTable::default();
        assert!(table.dram_pj > 20.0 * table.buffer_pj);
        assert!(table.buffer_pj > 10.0 * table.regfile_pj);
    }

    #[test]
    fn weight_stationary_saves_energy_on_large_batches() {
        let arch = PeArray::nfp_mlp_engine();
        let g = Gemm::new(100_000, 64, 64);
        let table = EnergyTable::default();
        let ws = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary }
            .evaluate(&g, &arch);
        let os = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::OutputStationary }
            .evaluate(&g, &arch);
        assert!(mapping_energy_uj(&ws, &table) < mapping_energy_uj(&os, &table));
    }

    #[test]
    fn energy_is_positive_and_scales_with_work() {
        let arch = PeArray::nfp_mlp_engine();
        let table = EnergyTable::default();
        let small = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary }
            .evaluate(&Gemm::new(100, 64, 64), &arch);
        let big = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary }
            .evaluate(&Gemm::new(10_000, 64, 64), &arch);
        let e_small = mapping_energy_uj(&small, &table);
        let e_big = mapping_energy_uj(&big, &table);
        assert!(e_small > 0.0);
        assert!(e_big > 10.0 * e_small);
    }
}
