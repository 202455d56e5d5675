//! The mapping search: exhaustively enumerate power-of-two spatial tiles
//! and both dataflows, pick the best by delay then energy (Timeloop's
//! default optimisation metric order for latency-focused runs).

use crate::arch::PeArray;
use crate::energy::{mapping_energy_uj, EnergyTable};
use crate::mapping::{Dataflow, Mapping, MappingCost};
use crate::problem::Gemm;

/// A search result: the winning mapping and its cost/energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its cycle/access cost.
    pub cost: MappingCost,
    /// Its energy in microjoules.
    pub energy_uj: f64,
    /// Number of candidate mappings evaluated.
    pub candidates: u32,
}

/// Power-of-two tiles up to `limit`, plus `limit` itself when it is not
/// a power of two — so the full-array tile (the NFP's fixed dataflow)
/// is always in the mapspace even on non-power-of-two arrays, and the
/// search can never return a mapping worse than the fixed tiling.
fn pow2_tiles(limit: u64) -> impl Iterator<Item = u64> {
    (0..=limit.ilog2()).map(|s| 1u64 << s).chain((!limit.is_power_of_two()).then_some(limit))
}

/// Search all valid mappings of `problem` on `arch`, minimising cycles
/// first and energy as the tie-breaker.
pub fn best_mapping(problem: &Gemm, arch: &PeArray, table: &EnergyTable) -> SearchResult {
    let _span = ng_obs::span("timeloop.best_mapping");
    let mut best: Option<SearchResult> = None;
    let mut candidates = 0;
    for spatial_n in pow2_tiles(arch.rows as u64) {
        for spatial_k in pow2_tiles(arch.cols as u64) {
            for dataflow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                let mapping = Mapping { spatial_n, spatial_k, dataflow };
                if !mapping.is_valid(arch) {
                    continue;
                }
                candidates += 1;
                let cost = mapping.evaluate(problem, arch);
                let energy_uj = mapping_energy_uj(&cost, table);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        cost.cycles < b.cost.cycles
                            || (cost.cycles == b.cost.cycles && energy_uj < b.energy_uj)
                    }
                };
                if better {
                    best = Some(SearchResult { mapping, cost, energy_uj, candidates });
                }
            }
        }
    }
    let mut result = best.expect("at least one valid mapping exists");
    result.candidates = candidates;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_mapping_saturates_array_for_64_wide_layers() {
        let arch = PeArray::nfp_mlp_engine();
        let g = Gemm::new(4096, 64, 64);
        let r = best_mapping(&g, &arch, &EnergyTable::default());
        assert_eq!(r.mapping.spatial_n, 64);
        assert_eq!(r.mapping.spatial_k, 64);
        assert_eq!(r.cost.cycles, 4096);
    }

    #[test]
    fn narrow_output_layer_still_tiles_k() {
        // NSDF output layer: N=1, K=64 — the mapper should spread K.
        let arch = PeArray::nfp_mlp_engine();
        let g = Gemm::new(1000, 1, 64);
        let r = best_mapping(&g, &arch, &EnergyTable::default());
        assert_eq!(r.mapping.spatial_k, 64);
        assert_eq!(r.cost.cycles, 1000);
    }

    #[test]
    fn search_space_is_exhaustive() {
        let arch = PeArray::nfp_mlp_engine();
        let r = best_mapping(&Gemm::new(10, 64, 64), &arch, &EnergyTable::default());
        // 7 x 7 power-of-two tiles x 2 dataflows.
        assert_eq!(r.candidates, 7 * 7 * 2);
    }

    #[test]
    fn non_pow2_arrays_still_reach_the_full_array_tile() {
        // A 48x48 array's best mapping of a 48-wide layer must use the
        // whole array (one tile per query), not the largest power of
        // two below it — the fixed dataflow is always in the mapspace.
        let arch = PeArray { rows: 48, cols: 48, ..PeArray::nfp_mlp_engine() };
        let r = best_mapping(&Gemm::new(1000, 48, 48), &arch, &EnergyTable::default());
        assert_eq!((r.mapping.spatial_n, r.mapping.spatial_k), (48, 48));
        assert_eq!(r.cost.cycles, 1000);
    }

    #[test]
    fn ties_broken_by_energy() {
        // For big batches both dataflows reach the same cycles at full
        // tiling; weight-stationary must win on energy.
        let arch = PeArray::nfp_mlp_engine();
        let g = Gemm::new(100_000, 64, 64);
        let r = best_mapping(&g, &arch, &EnergyTable::default());
        assert_eq!(r.mapping.dataflow, Dataflow::WeightStationary);
    }
}
