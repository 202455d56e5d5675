//! The MLP engine: a 64x64 grid of MAC units computing one layer of the
//! multi-layer perceptron at a time, with a dedicated small SRAM for the
//! intermediate features (paper Fig. 9-b).

use ng_neural::math::Activation;
use ng_neural::mlp::Mlp;

use crate::config::NfpConfig;
use crate::error::{NgpcError, Result};

/// MAC-array cycles one query of a `rows x cols` weight matrix takes on
/// a `mac_rows x mac_cols` array under the paper's fixed
/// weight-stationary dataflow: the array computes one full tile per
/// cycle, so the layer costs `rows.div_ceil(mac_rows) *
/// cols.div_ceil(mac_cols)` cycles. The engine's own cycle accounting
/// and the emulator's MLP stage both charge this one formula; the
/// `ng-timeloop` mapper's best mapping agrees with it exactly (the
/// Fig. 13 cross-check in the root crate's `tests/paper_reproduction.rs`).
pub fn layer_tiles(rows: usize, cols: usize, mac_rows: usize, mac_cols: usize) -> usize {
    rows.div_ceil(mac_rows.max(1)) * cols.div_ceil(mac_cols.max(1))
}

/// Execution statistics of the MLP engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MlpEngineStats {
    /// Multiply-accumulate operations issued.
    pub macs: u64,
    /// Layer passes executed.
    pub layer_passes: u64,
    /// Total cycles consumed.
    pub cycles: u64,
}

/// One staged weight matrix.
#[derive(Debug, Clone)]
struct StagedLayer {
    rows: usize,
    cols: usize,
    weights: Vec<f32>,
    /// ReLU for hidden layers, the network's output activation for the
    /// final layer (always `None` for the raw-output app models).
    activation: Activation,
}

/// The 64x64 MAC array with staged weights.
#[derive(Debug, Clone)]
pub struct MlpEngine {
    mac_rows: usize,
    mac_cols: usize,
    layers: Vec<StagedLayer>,
    stats: MlpEngineStats,
}

impl MlpEngine {
    /// Create an engine from the NFP configuration.
    pub fn new(config: &NfpConfig) -> Self {
        MlpEngine {
            mac_rows: config.mac_rows as usize,
            mac_cols: config.mac_cols as usize,
            layers: Vec::new(),
            stats: MlpEngineStats::default(),
        }
    }

    /// Stage the weights of `mlp` into the engine's weight SRAM.
    pub fn load_weights(&mut self, mlp: &Mlp) {
        let cfg = *mlp.config();
        self.layers = (0..cfg.n_matrices())
            .map(|m| {
                let (rows, cols) = cfg.matrix_shape(m);
                StagedLayer {
                    rows,
                    cols,
                    weights: mlp.matrix(m).to_vec(),
                    activation: if m == cfg.hidden_layers {
                        cfg.output_activation
                    } else {
                        Activation::Relu
                    },
                }
            })
            .collect();
    }

    /// Whether weights are staged.
    pub fn is_loaded(&self) -> bool {
        !self.layers.is_empty()
    }

    /// Forward one feature vector through the staged network.
    ///
    /// Bit-identical to [`Mlp::forward`]: each output row accumulates in
    /// increasing input order, exactly as the reference GEMV does, so the
    /// f32 results match exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::ProgrammingModel`] if no weights are staged,
    /// or a dimension error for bad input width.
    pub fn forward(&mut self, input: &[f32]) -> Result<Vec<f32>> {
        if self.layers.is_empty() {
            return Err(NgpcError::ProgrammingModel {
                message: "mlp engine used before weights were loaded".to_string(),
            });
        }
        if input.len() != self.layers[0].cols {
            return Err(NgpcError::Neural(ng_neural::NgError::DimensionMismatch {
                context: "mlp engine input",
                expected: self.layers[0].cols,
                actual: input.len(),
            }));
        }
        let mut cur = input.to_vec();
        let n_layers = self.layers.len();
        let mac_rows = self.mac_rows;
        let mac_cols = self.mac_cols;
        let mut macs = 0u64;
        let mut passes = 0u64;
        let mut cycles = 0u64;
        for layer in &self.layers {
            let mut next = vec![0.0f32; layer.rows];
            // The array computes tiles of mac_rows outputs x mac_cols
            // inputs per cycle; iterating k-tiles in increasing order
            // keeps the accumulation order identical to the reference.
            let row_tiles = layer.rows.div_ceil(mac_rows);
            for rt in 0..row_tiles {
                let row_end = ((rt + 1) * mac_rows).min(layer.rows);
                for (r, slot) in next[rt * mac_rows..row_end].iter_mut().enumerate() {
                    let r = rt * mac_rows + r;
                    let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
                    let mut acc = 0.0f32;
                    for (w, x) in row.iter().zip(&cur) {
                        acc += w * x;
                    }
                    *slot = acc;
                }
            }
            macs += (layer.rows * layer.cols) as u64;
            passes += 1;
            // One batch element occupies the array for one cycle per
            // tile of the layer (64x64 MACs fire per cycle).
            cycles += layer_tiles(layer.rows, layer.cols, mac_rows, mac_cols) as u64;
            layer.activation.apply_slice(&mut next);
            cur = next;
        }
        self.stats.macs += macs;
        self.stats.layer_passes += passes;
        self.stats.cycles += cycles + n_layers as u64; // activation latch per layer
        Ok(cur)
    }

    /// Cycle model for a batch of `n` queries: the array processes one
    /// query-layer tile per cycle, pipelined back-to-back, one layer at a
    /// time over the whole batch (intermediate activations stay in the
    /// dedicated SRAM).
    pub fn batch_cycles(&self, n: u64) -> u64 {
        let per_query: u64 = self
            .layers
            .iter()
            .map(|l| layer_tiles(l.rows, l.cols, self.mac_rows, self.mac_cols) as u64)
            .sum();
        let pipeline_fill = 8;
        n * per_query.max(1) + pipeline_fill
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MlpEngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_neural::mlp::MlpConfig;

    fn reference(input_dim: usize, layers: usize, out: usize) -> Mlp {
        Mlp::new(MlpConfig::neural_graphics(input_dim, layers, out, Activation::None), 5).unwrap()
    }

    #[test]
    fn forward_matches_reference_bit_exactly() {
        let mlp = reference(32, 4, 3);
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let hw = engine.forward(&x).unwrap();
        let sw = mlp.forward(&x).unwrap();
        assert_eq!(hw, sw);
    }

    #[test]
    fn forward_matches_for_wide_layers_spanning_tiles() {
        // 100-wide input exercises multi-tile accumulation.
        let mlp = Mlp::new(
            MlpConfig {
                input_dim: 100,
                hidden_dim: 96,
                hidden_layers: 2,
                output_dim: 7,
                output_activation: Activation::Sigmoid,
            },
            9,
        )
        .unwrap();
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.13).cos()).collect();
        assert_eq!(engine.forward(&x).unwrap(), mlp.forward(&x).unwrap());
    }

    #[test]
    fn unloaded_engine_errors() {
        let mut engine = MlpEngine::new(&NfpConfig::default());
        assert!(engine.forward(&[0.0; 32]).is_err());
    }

    #[test]
    fn wrong_width_errors() {
        let mlp = reference(32, 2, 1);
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        assert!(engine.forward(&[0.0; 16]).is_err());
    }

    #[test]
    fn batch_cycles_linear_in_batch() {
        let mlp = reference(32, 3, 16);
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        let c1 = engine.batch_cycles(1_000);
        let c2 = engine.batch_cycles(2_000);
        assert!(c2 > c1 && c2 < 2 * c1 + 100);
    }

    #[test]
    fn sixty_four_wide_layers_take_one_tile_each() {
        // Table I MLPs (<=64 wide) occupy exactly one tile per layer: a
        // 4-hidden-layer net = 5 matrices = 5 cycles per query.
        let mlp = reference(64, 4, 64);
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        assert_eq!(engine.batch_cycles(1000), 1000 * 5 + 8);
    }

    #[test]
    fn layer_tiles_is_the_full_array_tile_count() {
        assert_eq!(layer_tiles(64, 64, 64, 64), 1);
        assert_eq!(layer_tiles(65, 64, 64, 64), 2);
        assert_eq!(layer_tiles(128, 128, 64, 64), 4);
        assert_eq!(layer_tiles(64, 64, 16, 16), 16);
        assert_eq!(layer_tiles(3, 100, 7, 48), 3);
    }

    #[test]
    fn stats_accumulate_macs() {
        let mlp = reference(32, 2, 4);
        let mut engine = MlpEngine::new(&NfpConfig::default());
        engine.load_weights(&mlp);
        engine.forward(&[0.1; 32]).unwrap();
        assert_eq!(engine.stats().macs as usize, mlp.config().macs_per_inference());
    }
}
