//! Engine fusion: the encoding engines write their outputs directly into
//! the MLP engine's input memory (paper Section V), eliminating the
//! DRAM round trip of the GPU implementation (Fig. 7) where the encoding
//! kernel writes to device memory and the MLP kernel reads it back.

use ng_neural::apps::FieldModel;
use ng_neural::encoding::Encoding;

use super::encoding_engine::EncodingCluster;
use super::mlp_engine::MlpEngine;
use crate::config::NfpConfig;
use crate::error::Result;

/// Timing/traffic statistics of a fused batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusedStats {
    /// Queries processed.
    pub queries: u64,
    /// Encoding-stage cycles for the batch.
    pub encoding_cycles: u64,
    /// MLP-stage cycles for the batch.
    pub mlp_cycles: u64,
    /// Fused pipeline cycles (stages overlap; the slower stage wins).
    pub fused_cycles: u64,
    /// DRAM bytes the fusion avoided (the encoded-feature round trip the
    /// GPU implementation pays, at fp16).
    pub dram_bytes_saved: u64,
}

/// A fused Neural Fields Processor: encoding cluster + MLP engine.
#[derive(Debug)]
pub struct FusedNfp {
    config: NfpConfig,
    encoding: EncodingCluster,
    mlp: MlpEngine,
    feature_dim: usize,
    input_dim: usize,
    output_dim: usize,
}

impl FusedNfp {
    /// Configure an NFP for a trained encoding + MLP pair. The engines
    /// read the grid tables from `table`, a shared copy of the field's
    /// parameter buffer (so [`crate::cluster::Ngpc`]'s N NFPs don't hold
    /// N copies).
    ///
    /// # Errors
    ///
    /// Returns configuration errors if the grid does not map onto the
    /// engine gang.
    pub fn from_field_shared(
        config: NfpConfig,
        field: &FieldModel,
        table: &std::sync::Arc<Vec<f32>>,
    ) -> Result<Self> {
        config.validate()?;
        let mut encoding = EncodingCluster::new(&config);
        encoding.configure_shared(&field.encoding, table)?;
        let mut mlp = MlpEngine::new(&config);
        mlp.load_weights(&field.mlp);
        Ok(FusedNfp {
            config,
            encoding,
            mlp,
            feature_dim: field.encoding.output_dim(),
            input_dim: field.encoding.input_dim(),
            output_dim: field.mlp.config().output_dim,
        })
    }

    /// Query dimensionality (2 or 3).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Raw output width.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Run one query through the fused pipeline.
    ///
    /// Functionally bit-identical to `FieldModel::forward` — the features
    /// never leave the chip.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn query(&mut self, x: &[f32]) -> Result<Vec<f32>> {
        let mut features = vec![0.0f32; self.feature_dim];
        self.encoding.encode_into(x, &mut features)?;
        self.mlp.forward(&features)
    }

    /// Run a batch laid out row-major (`n x input_dim`), returning the
    /// outputs (`n x output_dim`) and the fused timing statistics.
    ///
    /// # Errors
    ///
    /// Propagates engine and dimension errors.
    pub fn run_batch(&mut self, inputs: &[f32]) -> Result<(Vec<f32>, FusedStats)> {
        let d = self.input_dim;
        if d == 0 || !inputs.len().is_multiple_of(d) {
            return Err(crate::error::NgpcError::Neural(ng_neural::NgError::DimensionMismatch {
                context: "fused batch input",
                expected: d,
                actual: inputs.len(),
            }));
        }
        let n = (inputs.len() / d) as u64;
        let mut out = Vec::with_capacity(n as usize * self.output_dim);
        for q in inputs.chunks_exact(d) {
            out.extend_from_slice(&self.query(q)?);
        }
        let encoding_cycles = self.encoding.batch_cycles(n);
        let mlp_cycles = self.mlp.batch_cycles(n);
        let stats = FusedStats {
            queries: n,
            encoding_cycles,
            mlp_cycles,
            // Fused: the two engines pipeline; the batch drains at the
            // slower stage's rate.
            fused_cycles: encoding_cycles.max(mlp_cycles),
            dram_bytes_saved: n * self.feature_dim as u64 * 2 * 2, // write + read, fp16
        };
        Ok((out, stats))
    }

    /// Batch latency in nanoseconds under the fused cycle model.
    pub fn batch_time_ns(&self, n: u64) -> f64 {
        let cycles = self.encoding.batch_cycles(n).max(self.mlp.batch_cycles(n));
        cycles as f64 * self.config.cycle_ns()
    }

    /// Batch latency without fusion (stages serialise and the feature
    /// round trip costs DRAM latency) — used by the fusion ablation.
    pub fn batch_time_unfused_ns(&self, n: u64, dram_bw_gbps: f64) -> f64 {
        let cycles = self.encoding.batch_cycles(n) + self.mlp.batch_cycles(n);
        let round_trip_bytes = n as f64 * self.feature_dim as f64 * 2.0 * 2.0;
        cycles as f64 * self.config.cycle_ns() + round_trip_bytes / dram_bw_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_neural::apps::gia::GiaModel;
    use ng_neural::apps::nsdf::NsdfModel;
    use ng_neural::apps::EncodingKind;
    use std::sync::Arc;

    /// A paper NFP configured for `field`, with its own copy of the grid.
    fn nfp(field: &FieldModel) -> FusedNfp {
        let table = Arc::new(field.encoding.params().to_vec());
        FusedNfp::from_field_shared(NfpConfig::default(), field, &table).unwrap()
    }

    #[test]
    fn fused_query_matches_field_model_exactly() {
        let model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 3);
        let mut nfp = nfp(model.field());
        for &(x, y, z) in &[(0.1f32, 0.5, 0.9), (0.33, 0.66, 0.2), (0.77, 0.12, 0.05)] {
            let hw = nfp.query(&[x, y, z]).unwrap();
            let sw = model.field().forward(&[x, y, z]).unwrap();
            assert_eq!(hw, sw, "divergence at ({x},{y},{z})");
        }
    }

    #[test]
    fn fused_batch_matches_reference_for_gia() {
        let model = GiaModel::new(EncodingKind::LowResDenseGrid, 8);
        let mut nfp = nfp(model.field());
        let inputs = [0.1f32, 0.2, 0.5, 0.5, 0.9, 0.8];
        let (out, stats) = nfp.run_batch(&inputs).unwrap();
        assert_eq!(stats.queries, 3);
        for (i, q) in inputs.chunks_exact(2).enumerate() {
            let sw = model.field().forward(q).unwrap();
            assert_eq!(&out[i * 3..(i + 1) * 3], &sw[..]);
        }
    }

    #[test]
    fn fusion_is_never_slower_than_serial() {
        let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 2);
        let mut nfp = nfp(model.field());
        let (_, stats) = nfp.run_batch(&[0.5f32; 30]).unwrap();
        assert!(stats.fused_cycles <= stats.encoding_cycles + stats.mlp_cycles);
        assert!(stats.fused_cycles >= stats.encoding_cycles.max(stats.mlp_cycles));
    }

    #[test]
    fn fusion_saves_the_feature_round_trip() {
        let model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 2);
        let mut nfp = nfp(model.field());
        let (_, stats) = nfp.run_batch(&[0.5f32; 30]).unwrap();
        // 10 queries x 16 features x 2 bytes x (write + read).
        assert_eq!(stats.dram_bytes_saved, 10 * 16 * 2 * 2);
    }

    #[test]
    fn unfused_time_exceeds_fused_time() {
        let model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 4);
        let nfp = nfp(model.field());
        assert!(nfp.batch_time_unfused_ns(10_000, 936.2) > nfp.batch_time_ns(10_000));
    }

    #[test]
    fn ragged_batch_rejected() {
        let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 2);
        let mut nfp = nfp(model.field());
        assert!(nfp.run_batch(&[0.5f32; 31]).is_err());
    }
}
