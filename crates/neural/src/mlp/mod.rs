//! Fully-fused-style multi-layer perceptrons.
//!
//! Neural-graphics MLPs are tiny — 2 to 4 hidden layers of 64 neurons —
//! and, following tiny-cuda-nn's `FullyFusedMLP`, carry **no explicit
//! biases** (the grid encoding's trainable features absorb constant
//! offsets). The small width is exactly why the paper's analysis finds the
//! GPU memory-bound on these kernels (compute `O(M^2)` vs traffic `O(M)`
//! per layer), and why the NFP dedicates a 64x64 MAC array to them.
//!
//! [`Mlp`] keeps all weight matrices in one flat, row-major buffer so
//! optimizers can treat the network as a single parameter chunk and so the
//! hardware model can stream weights in deterministic order.

pub mod adam;
pub mod loss;

pub use adam::{Adam, AdamConfig};
pub use loss::Loss;

use crate::error::{NgError, Result};
use crate::math::{Activation, Pcg32};

/// Topology and activations of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Width of the input feature vector.
    pub input_dim: usize,
    /// Neurons per hidden layer (64 in every Table I configuration).
    pub hidden_dim: usize,
    /// Number of hidden layers (Table I `layers`).
    pub hidden_layers: usize,
    /// Width of the output vector.
    pub output_dim: usize,
    /// Activation applied to the output layer.
    pub output_activation: Activation,
}

impl MlpConfig {
    /// Standard neural-graphics MLP: 64-wide hidden layers, ReLU.
    pub fn neural_graphics(
        input_dim: usize,
        hidden_layers: usize,
        output_dim: usize,
        output_activation: Activation,
    ) -> Self {
        MlpConfig { input_dim, hidden_dim: 64, hidden_layers, output_dim, output_activation }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::InvalidConfig`] on zero-sized dimensions or an
    /// unreasonable layer count.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("input_dim", self.input_dim),
            ("hidden_dim", self.hidden_dim),
            ("output_dim", self.output_dim),
        ] {
            if v == 0 || v > 4096 {
                return Err(NgError::InvalidConfig {
                    parameter: name,
                    message: format!("must be 1..=4096, got {v}"),
                });
            }
        }
        if self.hidden_layers == 0 || self.hidden_layers > 16 {
            return Err(NgError::InvalidConfig {
                parameter: "hidden_layers",
                message: format!("must be 1..=16, got {}", self.hidden_layers),
            });
        }
        Ok(())
    }

    /// Number of weight matrices (hidden layers + output layer).
    pub fn n_matrices(&self) -> usize {
        self.hidden_layers + 1
    }

    /// Shape `(rows, cols)` of weight matrix `m` (`y = W x`).
    pub fn matrix_shape(&self, m: usize) -> (usize, usize) {
        let rows = if m == self.hidden_layers { self.output_dim } else { self.hidden_dim };
        let cols = if m == 0 { self.input_dim } else { self.hidden_dim };
        (rows, cols)
    }

    /// Total number of weights.
    pub fn param_count(&self) -> usize {
        (0..self.n_matrices())
            .map(|m| {
                let (r, c) = self.matrix_shape(m);
                r * c
            })
            .sum()
    }

    /// Multiply–accumulate operations for a single forward inference.
    pub fn macs_per_inference(&self) -> usize {
        self.param_count()
    }
}

/// Intermediate activations retained for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct MlpTrace {
    /// Pre-activation values per layer (including output layer).
    pub pre: Vec<Vec<f32>>,
    /// Post-activation values per layer (including output layer).
    pub post: Vec<Vec<f32>>,
}

/// A bias-free multi-layer perceptron with ReLU hidden activations.
///
/// ```
/// use ng_neural::mlp::{Mlp, MlpConfig};
/// use ng_neural::math::Activation;
///
/// # fn main() -> ng_neural::Result<()> {
/// let cfg = MlpConfig::neural_graphics(32, 3, 1, Activation::None);
/// let mlp = Mlp::new(cfg, 7)?;
/// let y = mlp.forward(&vec![0.1; 32])?;
/// assert_eq!(y.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    weights: Vec<f32>,
    offsets: Vec<usize>,
}

impl Mlp {
    /// Allocate and He-initialise the weights.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: MlpConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut offsets = Vec::with_capacity(config.n_matrices() + 1);
        let mut total = 0usize;
        for m in 0..config.n_matrices() {
            offsets.push(total);
            let (r, c) = config.matrix_shape(m);
            total += r * c;
        }
        offsets.push(total);
        let mut weights = vec![0.0f32; total];
        let mut rng = Pcg32::with_stream(seed, 0x3a7f);
        for m in 0..config.n_matrices() {
            let (r, c) = config.matrix_shape(m);
            // He initialisation for ReLU nets: std = sqrt(2 / fan_in).
            let std = (2.0 / c as f32).sqrt();
            for w in &mut weights[offsets[m]..offsets[m] + r * c] {
                *w = rng.normal() * std;
            }
        }
        Ok(Mlp { config, weights, offsets })
    }

    /// The topology this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// All weights as one flat parameter chunk.
    pub fn params(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable access to the flat parameter chunk (for optimizers).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Number of trainable weights.
    pub fn param_count(&self) -> usize {
        self.weights.len()
    }

    /// Weight matrix `m` as a row-major slice.
    pub fn matrix(&self, m: usize) -> &[f32] {
        &self.weights[self.offsets[m]..self.offsets[m + 1]]
    }

    /// `y = act(W x)` into `out` for matrix `m`.
    fn gemv(&self, m: usize, x: &[f32], out: &mut [f32]) {
        let (rows, cols) = self.config.matrix_shape(m);
        debug_assert_eq!(x.len(), cols);
        debug_assert_eq!(out.len(), rows);
        let w = self.matrix(m);
        for (r, o) in out.iter_mut().enumerate() {
            let row = &w[r * cols..(r + 1) * cols];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            *o = acc;
        }
    }

    /// Forward inference.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::DimensionMismatch`] if `input` has the wrong
    /// length.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = vec![0.0; self.config.output_dim];
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Forward inference into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::DimensionMismatch`] on wrong slice lengths.
    pub fn forward_into(&self, input: &[f32], out: &mut [f32]) -> Result<()> {
        if input.len() != self.config.input_dim {
            return Err(NgError::DimensionMismatch {
                context: "mlp input",
                expected: self.config.input_dim,
                actual: input.len(),
            });
        }
        if out.len() != self.config.output_dim {
            return Err(NgError::DimensionMismatch {
                context: "mlp output",
                expected: self.config.output_dim,
                actual: out.len(),
            });
        }
        let mut cur = input.to_vec();
        for m in 0..self.config.hidden_layers {
            let mut next = vec![0.0; self.config.hidden_dim];
            self.gemv(m, &cur, &mut next);
            Activation::Relu.apply_slice(&mut next);
            cur = next;
        }
        self.gemv(self.config.hidden_layers, &cur, out);
        self.config.output_activation.apply_slice(out);
        Ok(())
    }

    /// Forward pass retaining every layer's pre/post activations.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::DimensionMismatch`] if `input` has the wrong
    /// length.
    pub fn forward_traced(&self, input: &[f32]) -> Result<MlpTrace> {
        if input.len() != self.config.input_dim {
            return Err(NgError::DimensionMismatch {
                context: "mlp input",
                expected: self.config.input_dim,
                actual: input.len(),
            });
        }
        let n = self.config.n_matrices();
        let mut trace = MlpTrace { pre: Vec::with_capacity(n), post: Vec::with_capacity(n) };
        let mut cur = input.to_vec();
        for m in 0..n {
            let (rows, _) = self.config.matrix_shape(m);
            let mut pre = vec![0.0; rows];
            self.gemv(m, &cur, &mut pre);
            let act = if m == self.config.hidden_layers {
                self.config.output_activation
            } else {
                Activation::Relu
            };
            let mut post = pre.clone();
            act.apply_slice(&mut post);
            trace.pre.push(pre);
            cur = post.clone();
            trace.post.push(post);
        }
        Ok(trace)
    }

    /// Backward pass for one sample.
    ///
    /// Accumulates `dL/dW` into `d_weights` (same layout as
    /// [`Mlp::params`]) and returns `dL/d input` (needed to train the grid
    /// encoding feeding this network).
    ///
    /// # Errors
    ///
    /// Returns [`NgError::DimensionMismatch`] on inconsistent sizes.
    pub fn backward(
        &self,
        input: &[f32],
        trace: &MlpTrace,
        d_output: &[f32],
        d_weights: &mut [f32],
    ) -> Result<Vec<f32>> {
        if d_output.len() != self.config.output_dim {
            return Err(NgError::DimensionMismatch {
                context: "mlp backward d_output",
                expected: self.config.output_dim,
                actual: d_output.len(),
            });
        }
        if d_weights.len() != self.weights.len() {
            return Err(NgError::DimensionMismatch {
                context: "mlp backward d_weights",
                expected: self.weights.len(),
                actual: d_weights.len(),
            });
        }
        let n = self.config.n_matrices();
        // delta = dL/d pre-activation of the current layer.
        let mut delta: Vec<f32> = d_output
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let pre = trace.pre[n - 1][i];
                let post = trace.post[n - 1][i];
                g * self.config.output_activation.derivative(pre, post)
            })
            .collect();
        for m in (0..n).rev() {
            let (rows, cols) = self.config.matrix_shape(m);
            let below: &[f32] = if m == 0 { input } else { &trace.post[m - 1] };
            debug_assert_eq!(below.len(), cols);
            // dW += delta (outer) below
            let dw = &mut d_weights[self.offsets[m]..self.offsets[m + 1]];
            for r in 0..rows {
                let d = delta[r];
                if d != 0.0 {
                    let row = &mut dw[r * cols..(r + 1) * cols];
                    for (slot, b) in row.iter_mut().zip(below) {
                        *slot += d * b;
                    }
                }
            }
            // d below = W^T delta, through the activation derivative of the
            // layer below (ReLU), unless we've reached the input.
            let w = self.matrix(m);
            let mut d_below = vec![0.0f32; cols];
            for r in 0..rows {
                let d = delta[r];
                if d != 0.0 {
                    let row = &w[r * cols..(r + 1) * cols];
                    for (slot, wv) in d_below.iter_mut().zip(row) {
                        *slot += d * wv;
                    }
                }
            }
            if m == 0 {
                return Ok(d_below);
            }
            let pre_below = &trace.pre[m - 1];
            let post_below = &trace.post[m - 1];
            for (i, slot) in d_below.iter_mut().enumerate() {
                *slot *= Activation::Relu.derivative(pre_below[i], post_below[i]);
            }
            delta = d_below;
        }
        unreachable!("loop always returns at m == 0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mlp {
        Mlp::new(MlpConfig::neural_graphics(8, 2, 3, Activation::Sigmoid), 11).unwrap()
    }

    #[test]
    fn table1_param_counts() {
        // NeRF density model: 32 -> 64x3 -> 1... actually ->16 latent; see apps.
        let cfg = MlpConfig::neural_graphics(32, 3, 16, Activation::None);
        assert_eq!(cfg.param_count(), 32 * 64 + 64 * 64 * 2 + 64 * 16);
    }

    #[test]
    fn forward_shapes() {
        let mlp = small();
        let y = mlp.forward(&[0.5; 8]).unwrap();
        assert_eq!(y.len(), 3);
        assert!(y.iter().all(|v| (0.0..=1.0).contains(v))); // sigmoid output
    }

    #[test]
    fn forward_rejects_bad_input() {
        let mlp = small();
        assert!(mlp.forward(&[0.0; 7]).is_err());
    }

    #[test]
    fn traced_forward_matches_plain() {
        let mlp = small();
        let x: Vec<f32> = (0..8).map(|i| (i as f32) / 8.0 - 0.3).collect();
        let y = mlp.forward(&x).unwrap();
        let trace = mlp.forward_traced(&x).unwrap();
        assert_eq!(trace.post.last().unwrap(), &y);
        assert_eq!(trace.pre.len(), mlp.config().n_matrices());
    }

    #[test]
    fn zero_weights_give_zero_preactivation() {
        let mut mlp = small();
        mlp.params_mut().iter_mut().for_each(|w| *w = 0.0);
        let y = mlp.forward(&[1.0; 8]).unwrap();
        // Sigmoid(0) = 0.5 at the output.
        assert!(y.iter().all(|v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let mut mlp = Mlp::new(MlpConfig::neural_graphics(5, 2, 2, Activation::None), 3).unwrap();
        let x = [0.3f32, -0.2, 0.8, 0.1, -0.6];
        // Loss = sum(outputs).
        let trace = mlp.forward_traced(&x).unwrap();
        let d_out = vec![1.0f32; 2];
        let mut analytic = vec![0.0f32; mlp.param_count()];
        mlp.backward(&x, &trace, &d_out, &mut analytic).unwrap();

        let loss = |m: &Mlp| -> f32 { m.forward(&x).unwrap().iter().sum() };
        let h = 1e-3f32;
        // Probe a spread of parameters across matrices.
        let probes = [0usize, 7, 64, 200, mlp.param_count() - 1];
        for &idx in &probes {
            let orig = mlp.params()[idx];
            mlp.params_mut()[idx] = orig + h;
            let plus = loss(&mlp);
            mlp.params_mut()[idx] = orig - h;
            let minus = loss(&mlp);
            mlp.params_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!(
                (analytic[idx] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "w[{idx}]: analytic {} vs numeric {numeric}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn input_gradients_match_finite_difference() {
        let mlp = Mlp::new(MlpConfig::neural_graphics(4, 2, 2, Activation::Sigmoid), 9).unwrap();
        let x = [0.25f32, -0.5, 0.75, 0.1];
        let trace = mlp.forward_traced(&x).unwrap();
        let d_out = vec![1.0f32; 2];
        let mut dw = vec![0.0f32; mlp.param_count()];
        let d_in = mlp.backward(&x, &trace, &d_out, &mut dw).unwrap();

        let loss = |x: &[f32]| -> f32 { mlp.forward(x).unwrap().iter().sum() };
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!(
                (d_in[i] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "x[{i}]: analytic {} vs numeric {numeric}",
                d_in[i]
            );
        }
    }

    #[test]
    fn macs_equal_params_for_biasfree_net() {
        let cfg = MlpConfig::neural_graphics(32, 4, 3, Activation::Sigmoid);
        assert_eq!(cfg.macs_per_inference(), cfg.param_count());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Mlp::new(MlpConfig::neural_graphics(0, 2, 3, Activation::None), 0).is_err());
        assert!(Mlp::new(MlpConfig::neural_graphics(8, 0, 3, Activation::None), 0).is_err());
        assert!(Mlp::new(MlpConfig::neural_graphics(8, 20, 3, Activation::None), 0).is_err());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(MlpConfig::neural_graphics(8, 2, 3, Activation::None), 42).unwrap();
        let b = Mlp::new(MlpConfig::neural_graphics(8, 2, 3, Activation::None), 42).unwrap();
        assert_eq!(a.params(), b.params());
    }
}
