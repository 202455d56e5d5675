//! Loop-nest mappings: how a GEMM's iteration space is tiled across the
//! PE array (spatially) and time (temporally), and which operand stays
//! stationary.

use crate::arch::PeArray;
use crate::problem::Gemm;

/// Which operand is held stationary in the PE register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights stay in the PEs; activations stream (the NFP engine's
    /// dataflow — one layer's weights are staged, the batch streams).
    WeightStationary,
    /// Partial sums stay; weights and activations stream.
    OutputStationary,
}

/// A concrete mapping of a GEMM onto the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Spatial tile of the N (output-neuron) dimension (<= array rows).
    pub spatial_n: u64,
    /// Spatial tile of the K (input-neuron) dimension (<= array cols).
    pub spatial_k: u64,
    /// Dataflow choice.
    pub dataflow: Dataflow,
}

/// Cycle/access counts of one evaluated mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingCost {
    /// Total execution cycles.
    pub cycles: u64,
    /// MAC operations (equals the GEMM's MACs — work conservation).
    pub macs: u64,
    /// Words read from the global buffer.
    pub buffer_reads: u64,
    /// Words read/written at the register files.
    pub regfile_accesses: u64,
    /// Words exchanged with DRAM.
    pub dram_words: u64,
    /// Fraction of PE-cycles doing useful work.
    pub utilization: f64,
}

impl Mapping {
    /// Whether this mapping is legal for the given array.
    pub fn is_valid(&self, arch: &PeArray) -> bool {
        self.spatial_n >= 1
            && self.spatial_k >= 1
            && self.spatial_n <= arch.rows as u64
            && self.spatial_k <= arch.cols as u64
    }

    /// Evaluate the mapping on a problem.
    ///
    /// Temporal loops cover the remainder: `ceil(n/spatial_n)` x
    /// `ceil(k/spatial_k)` tiles, each streaming the `m` batch elements
    /// one per cycle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the mapping is invalid for the array.
    pub fn evaluate(&self, problem: &Gemm, arch: &PeArray) -> MappingCost {
        debug_assert!(self.is_valid(arch));
        let n_tiles = problem.n.div_ceil(self.spatial_n);
        let k_tiles = problem.k.div_ceil(self.spatial_k);
        let cycles = n_tiles * k_tiles * problem.m;
        let macs = problem.macs();
        let active_pes = self.spatial_n * self.spatial_k;
        let utilization = macs as f64 / (cycles as f64 * arch.pes() as f64).max(1.0)
            * (arch.pes() as f64 / active_pes.max(1) as f64).min(1.0);

        let (buffer_reads, regfile_accesses, dram_words) = match self.dataflow {
            Dataflow::WeightStationary => {
                // Weights loaded once per (n,k) tile; activations read
                // per cycle per active column; psums spilled per n-tile.
                let weight_loads = problem.n * problem.k;
                let act_reads = cycles * self.spatial_k;
                let psum_traffic = problem.m * problem.n * k_tiles;
                (
                    weight_loads + act_reads,
                    macs + psum_traffic,
                    problem.n * problem.k + problem.m * problem.k + problem.m * problem.n,
                )
            }
            Dataflow::OutputStationary => {
                // Weights and activations both stream every cycle; psums
                // never leave the PEs until done.
                let weight_reads = cycles * active_pes;
                let act_reads = cycles * self.spatial_k;
                (
                    weight_reads + act_reads,
                    macs,
                    problem.n * problem.k + problem.m * problem.k + problem.m * problem.n,
                )
            }
        };
        MappingCost { cycles, macs, buffer_reads, regfile_accesses, dram_words, utilization }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> PeArray {
        PeArray::nfp_mlp_engine()
    }

    #[test]
    fn full_array_mapping_of_64x64_layer() {
        let g = Gemm::new(1000, 64, 64);
        let m = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary };
        let cost = m.evaluate(&g, &arch());
        // One tile, one batch element per cycle.
        assert_eq!(cost.cycles, 1000);
        assert_eq!(cost.macs, g.macs());
        assert!(cost.utilization > 0.99);
    }

    #[test]
    fn undersized_spatial_tiles_take_longer() {
        let g = Gemm::new(1000, 64, 64);
        let small = Mapping { spatial_n: 16, spatial_k: 16, dataflow: Dataflow::WeightStationary };
        let cost = small.evaluate(&g, &arch());
        assert_eq!(cost.cycles, 4 * 4 * 1000);
    }

    #[test]
    fn validity_respects_array_bounds() {
        let a = arch();
        assert!(Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary }
            .is_valid(&a));
        assert!(!Mapping { spatial_n: 65, spatial_k: 1, dataflow: Dataflow::WeightStationary }
            .is_valid(&a));
    }

    #[test]
    fn weight_stationary_reads_weights_once() {
        let g = Gemm::new(10_000, 64, 64);
        let ws = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::WeightStationary }
            .evaluate(&g, &arch());
        let os = Mapping { spatial_n: 64, spatial_k: 64, dataflow: Dataflow::OutputStationary }
            .evaluate(&g, &arch());
        assert!(
            ws.buffer_reads < os.buffer_reads,
            "weight-stationary should read the buffer less: {} vs {}",
            ws.buffer_reads,
            os.buffer_reads
        );
    }

    #[test]
    fn work_is_conserved_across_mappings() {
        let g = Gemm::new(777, 64, 32);
        for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            for (n, k) in [(64u64, 32u64), (32, 32), (8, 16)] {
                let cost =
                    Mapping { spatial_n: n, spatial_k: k, dataflow: df }.evaluate(&g, &arch());
                assert_eq!(cost.macs, g.macs());
            }
        }
    }
}
