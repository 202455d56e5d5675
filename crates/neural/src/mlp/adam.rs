//! Adam optimizer (Kingma & Ba), the optimizer used by instant-NGP and the
//! paper's training runs.

use crate::error::{NgError, Result};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay of the first moment.
    pub beta1: f32,
    /// Exponential decay of the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub epsilon: f32,
    /// Decoupled L2 weight decay (0 disables it).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    /// instant-NGP's defaults: lr 1e-2, betas (0.9, 0.99), eps 1e-15.
    fn default() -> Self {
        AdamConfig {
            learning_rate: 1e-2,
            beta1: 0.9,
            beta2: 0.99,
            epsilon: 1e-15,
            weight_decay: 0.0,
        }
    }
}

/// Adam state for one flat parameter chunk.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Create optimizer state for `param_count` parameters.
    pub fn new(config: AdamConfig, param_count: usize) -> Self {
        Adam { config, step: 0, m: vec![0.0; param_count], v: vec![0.0; param_count] }
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Override the learning rate (used for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.config.learning_rate = lr;
    }

    /// Apply one Adam update: `params -= lr * m_hat / (sqrt(v_hat) + eps)`.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::DimensionMismatch`] if slice lengths differ from
    /// the state size.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<()> {
        if params.len() != self.m.len() || grads.len() != self.m.len() {
            return Err(NgError::DimensionMismatch {
                context: "adam step",
                expected: self.m.len(),
                actual: if params.len() != self.m.len() { params.len() } else { grads.len() },
            });
        }
        self.step += 1;
        let t = self.step as f32;
        let AdamConfig { learning_rate, beta1, beta2, epsilon, weight_decay } = self.config;
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        for i in 0..params.len() {
            let mut g = grads[i];
            if weight_decay != 0.0 {
                g += weight_decay * params[i];
            }
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bias1;
            let v_hat = self.v[i] / bias2;
            params[i] -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        // f(x) = (x - 3)^2, grad = 2(x - 3).
        let mut adam = Adam::new(AdamConfig { learning_rate: 0.1, ..AdamConfig::default() }, 1);
        let mut x = [0.0f32];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g).unwrap();
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "converged to {}", x[0]);
    }

    #[test]
    fn minimises_rosenbrock_slowly_but_surely() {
        let mut adam = Adam::new(AdamConfig { learning_rate: 2e-2, ..AdamConfig::default() }, 2);
        let mut p = [-1.0f32, 1.0];
        let f = |p: &[f32]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let start = f(&p);
        for _ in 0..2_000 {
            let g = [
                -2.0 * (1.0 - p[0]) - 400.0 * p[0] * (p[1] - p[0] * p[0]),
                200.0 * (p[1] - p[0] * p[0]),
            ];
            adam.step(&mut p, &g).unwrap();
        }
        assert!(f(&p) < start * 0.01, "f went {start} -> {}", f(&p));
    }

    #[test]
    fn first_step_is_lr_sized() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut adam = Adam::new(AdamConfig { learning_rate: 0.5, ..AdamConfig::default() }, 1);
        let mut x = [0.0f32];
        adam.step(&mut x, &[123.0]).unwrap();
        assert!((x[0].abs() - 0.5).abs() < 1e-3, "step was {}", x[0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let cfg = AdamConfig { learning_rate: 0.01, weight_decay: 1.0, ..AdamConfig::default() };
        let mut adam = Adam::new(cfg, 1);
        let mut x = [10.0f32];
        for _ in 0..100 {
            adam.step(&mut x, &[0.0]).unwrap();
        }
        assert!(x[0] < 10.0);
    }

    #[test]
    fn size_mismatch_errors() {
        let mut adam = Adam::new(AdamConfig::default(), 4);
        let mut p = [0.0f32; 3];
        assert!(adam.step(&mut p, &[0.0; 4]).is_err());
    }

    #[test]
    fn step_counter_advances() {
        let mut adam = Adam::new(AdamConfig::default(), 1);
        assert_eq!(adam.steps_taken(), 0);
        adam.step(&mut [0.0], &[1.0]).unwrap();
        assert_eq!(adam.steps_taken(), 1);
    }
}
