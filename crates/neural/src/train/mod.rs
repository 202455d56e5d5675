//! Deterministic training loops: a generic [`FieldModel`] trainer, and
//! GIA and NSDF training against analytic targets.
//!
//! Training follows the paper's setup (Section II.2): batches of points
//! are drawn from the scene observations, the encoding + MLP pipeline is
//! evaluated, a regression loss propagates gradients back through the MLP
//! into the grid tables, and Adam updates both parameter chunks.
//!
//! Because the ground truths in [`crate::data`] are analytic, scene
//! "observations" are sampled directly from the target field — the exact
//! code path (encode, infer, backprop) is what matters to the
//! architecture study, not the provenance of the supervision signal.

use crate::apps::gia::GiaModel;
use crate::apps::nsdf::NsdfModel;
use crate::apps::{FieldGrads, FieldModel, OutputDecode};
use crate::data::procedural::ProceduralImage;
use crate::encoding::Encoding;
use crate::error::Result;
use crate::math::{Pcg32, Vec3};
use crate::mlp::{Adam, AdamConfig, Loss};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// Adam settings (applied to both the grid tables and the MLP).
    pub adam: AdamConfig,
    /// Regression loss.
    pub loss: Loss,
    /// RNG seed for batch sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 500,
            batch_size: 1024,
            adam: AdamConfig::default(),
            loss: Loss::Mse,
            seed: 0,
        }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean loss of the first step.
    pub initial_loss: f32,
    /// Mean loss of the last step.
    pub final_loss: f32,
    /// Loss after every step.
    pub history: Vec<f32>,
}

impl TrainStats {
    fn from_history(history: Vec<f32>) -> Self {
        TrainStats {
            initial_loss: *history.first().unwrap_or(&0.0),
            final_loss: *history.last().unwrap_or(&0.0),
            history,
        }
    }
}

/// Drives training of the grid-encoded field models.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Generic regression training of a [`FieldModel`]: each batch element
    /// is produced by `sample(rng, input, target)` where `input` has the
    /// encoding's input width and `target` the decoded output width.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the model.
    pub fn train_field<S>(
        &self,
        model: &mut FieldModel,
        decode: OutputDecode,
        mut sample: S,
    ) -> Result<TrainStats>
    where
        S: FnMut(&mut Pcg32, &mut [f32], &mut [f32]),
    {
        let in_dim = model.encoding.config().dim;
        let out_dim = model.mlp.config().output_dim;
        let mut rng = Pcg32::with_stream(self.config.seed, 0x7541);
        let mut enc_adam = Adam::new(self.config.adam, model.encoding.param_count());
        let mut mlp_adam = Adam::new(self.config.adam, model.mlp.param_count());
        let mut grads = FieldGrads::zeros_like(model);
        let mut input = vec![0.0f32; in_dim];
        let mut target = vec![0.0f32; out_dim];
        let mut d_decoded = vec![0.0f32; out_dim];
        let mut d_raw = vec![0.0f32; out_dim];
        let mut history = Vec::with_capacity(self.config.steps);

        for _ in 0..self.config.steps {
            grads.clear();
            let mut batch_loss = 0.0f32;
            for _ in 0..self.config.batch_size {
                sample(&mut rng, &mut input, &mut target);
                let (features, trace) = model.forward_traced(&input)?;
                let raw = trace.post.last().expect("trace has layers").clone();
                let mut decoded = raw.clone();
                decode.apply(&mut decoded);
                for c in 0..out_dim {
                    batch_loss += self.config.loss.value(decoded[c], target[c]);
                    d_decoded[c] = self.config.loss.gradient(decoded[c], target[c]);
                }
                decode.gradient(&raw, &decoded, &d_decoded, &mut d_raw);
                model.backward(&input, &features, &trace, &d_raw, &mut grads)?;
            }
            let scale = 1.0 / (self.config.batch_size * out_dim) as f32;
            grads.scale(scale);
            batch_loss *= scale;
            enc_adam.step(model.encoding.params_mut(), &grads.encoding)?;
            mlp_adam.step(model.mlp.params_mut(), &grads.mlp)?;
            history.push(batch_loss);
        }
        Ok(TrainStats::from_history(history))
    }

    /// Train a GIA model against a procedural image.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the model.
    pub fn train_gia(&self, model: &mut GiaModel, image: &ProceduralImage) -> TrainStats {
        let decode = model.decode();
        let img = *image;
        self.train_field(model.field_mut(), decode, move |rng, input, target| {
            let u = rng.next_f32();
            let v = rng.next_f32();
            input[0] = u;
            input[1] = v;
            let c = img.color_at(u, v);
            target[0] = c.x;
            target[1] = c.y;
            target[2] = c.z;
        })
        .expect("gia model dimensions are consistent")
    }

    /// Train an NSDF model against a signed-distance oracle. Distances are
    /// truncated to `[-trunc, trunc]` (standard TSDF practice) so network
    /// capacity concentrates near the surface.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the model.
    pub fn train_nsdf<F>(&self, model: &mut NsdfModel, sdf: F, trunc: f32) -> TrainStats
    where
        F: Fn(Vec3) -> f32,
    {
        let decode = model.decode();
        self.train_field(model.field_mut(), decode, move |rng, input, target| {
            let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
            input[0] = p.x;
            input[1] = p.y;
            input[2] = p.z;
            target[0] = sdf(p).clamp(-trunc, trunc);
        })
        .expect("nsdf model dimensions are consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::EncodingKind;
    use crate::data::sdf::SdfShape;

    fn quick_config(steps: usize) -> TrainConfig {
        TrainConfig { steps, batch_size: 128, ..TrainConfig::default() }
    }

    #[test]
    fn gia_loss_decreases() {
        let image = ProceduralImage::new(5);
        let mut model = GiaModel::new(EncodingKind::LowResDenseGrid, 1);
        let stats = Trainer::new(quick_config(40)).train_gia(&mut model, &image);
        assert!(
            stats.final_loss < stats.initial_loss * 0.8,
            "loss {} -> {}",
            stats.initial_loss,
            stats.final_loss
        );
    }

    #[test]
    fn nsdf_learns_a_sphere_roughly() {
        // Hashgrid: its coarse dense levels get full coverage even from
        // small test batches, so convergence is fast and reliable.
        let shape = SdfShape::centered_sphere(0.3);
        let mut model = NsdfModel::new(EncodingKind::MultiResHashGrid, 2);
        let cfg = TrainConfig { steps: 80, batch_size: 256, ..TrainConfig::default() };
        let stats = Trainer::new(cfg).train_nsdf(&mut model, move |p| shape.distance(p), 0.2);
        assert!(
            stats.final_loss < stats.initial_loss * 0.5,
            "loss {} -> {}",
            stats.initial_loss,
            stats.final_loss
        );
        // Signs should be right at the center and far corner.
        let inside = model.distance(Vec3::splat(0.5)).unwrap();
        let outside = model.distance(Vec3::new(0.02, 0.02, 0.02)).unwrap();
        assert!(inside < outside, "inside {inside} vs outside {outside}");
    }

    #[test]
    fn training_is_deterministic() {
        let image = ProceduralImage::new(4);
        let mut a = GiaModel::new(EncodingKind::LowResDenseGrid, 5);
        let mut b = GiaModel::new(EncodingKind::LowResDenseGrid, 5);
        let cfg = quick_config(5);
        let sa = Trainer::new(cfg).train_gia(&mut a, &image);
        let sb = Trainer::new(cfg).train_gia(&mut b, &image);
        assert_eq!(sa.history, sb.history);
    }

    #[test]
    fn history_length_matches_steps() {
        let image = ProceduralImage::new(4);
        let mut model = GiaModel::new(EncodingKind::LowResDenseGrid, 6);
        let stats = Trainer::new(quick_config(7)).train_gia(&mut model, &image);
        assert_eq!(stats.history.len(), 7);
    }
}
