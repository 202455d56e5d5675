//! End-to-end evaluation of an MLP on the PE array: map each layer with
//! the mapper, sum cycles and energy. This is the number compared against
//! the `ngpc` MLP engine's own cycle model (paper Fig. 13's "mlp imp TA"
//! dotted lines, which agree within ~7 %).

use crate::arch::PeArray;
use crate::energy::EnergyTable;
use crate::mapper::best_mapping;
use crate::problem::Gemm;

/// Result of evaluating a full MLP over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpEvaluation {
    /// Total cycles across all layers, including per-layer staging
    /// overhead (weight swap between layers).
    pub cycles: u64,
    /// Total MACs.
    pub macs: u64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Execution time in nanoseconds at the array clock.
    pub time_ns: f64,
    /// Per-layer cycles.
    pub layer_cycles: Vec<u64>,
}

/// Cycles spent re-staging weights between layers (drain + refill of the
/// array's weight registers from the weight SRAM).
pub const LAYER_SWAP_CYCLES: u64 = 64;

/// Evaluate a batch of `batch` inferences of a bias-free MLP
/// (`input -> hidden x layers -> output`) on `arch`.
pub fn evaluate_mlp(
    arch: &PeArray,
    table: &EnergyTable,
    batch: u64,
    input: u64,
    hidden: u64,
    hidden_layers: u64,
    output: u64,
) -> MlpEvaluation {
    let layers = Gemm::mlp_layers(batch, input, hidden, hidden_layers, output);
    let mut cycles = 0u64;
    let mut macs = 0u64;
    let mut energy_uj = 0.0;
    let mut layer_cycles = Vec::with_capacity(layers.len());
    for layer in &layers {
        let r = best_mapping(layer, arch, table);
        cycles += r.cost.cycles + LAYER_SWAP_CYCLES;
        macs += r.cost.macs;
        energy_uj += r.energy_uj;
        layer_cycles.push(r.cost.cycles);
    }
    let time_ns = cycles as f64 / arch.clock_ghz;
    MlpEvaluation { cycles, macs, energy_uj, time_ns, layer_cycles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mlp_takes_one_cycle_per_layer_per_query() {
        // 64-wide layers fully occupy the 64x64 array: a 4-hidden-layer
        // MLP is 5 GEMMs -> ~5 cycles per query plus staging.
        let arch = PeArray::nfp_mlp_engine();
        let batch = 100_000u64;
        let eval = evaluate_mlp(&arch, &EnergyTable::default(), batch, 32, 64, 4, 3);
        let per_query = eval.cycles as f64 / batch as f64;
        assert!((per_query - 5.0).abs() < 0.1, "per-query cycles {per_query}");
    }

    #[test]
    fn energy_scales_with_batch() {
        let arch = PeArray::nfp_mlp_engine();
        let t = EnergyTable::default();
        let e1 = evaluate_mlp(&arch, &t, 1_000, 32, 64, 3, 16).energy_uj;
        let e2 = evaluate_mlp(&arch, &t, 2_000, 32, 64, 3, 16).energy_uj;
        assert!(e2 > 1.8 * e1 && e2 < 2.2 * e1);
    }

    #[test]
    fn layer_count_matches_topology() {
        let arch = PeArray::nfp_mlp_engine();
        let eval = evaluate_mlp(&arch, &EnergyTable::default(), 10, 32, 64, 4, 1);
        assert_eq!(eval.layer_cycles.len(), 5);
    }

    #[test]
    fn macs_match_analytic_count() {
        let arch = PeArray::nfp_mlp_engine();
        let eval = evaluate_mlp(&arch, &EnergyTable::default(), 7, 32, 64, 3, 16);
        let expected = 7 * (32 * 64 + 64 * 64 * 2 + 64 * 16);
        assert_eq!(eval.macs, expected);
    }
}
