//! Training losses for neural-graphics regression.

/// Pointwise regression losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Loss {
    /// Mean squared error.
    #[default]
    Mse,
    /// Mean absolute error.
    L1,
    /// Relative L2 (instant-NGP's NeRF loss): `(y - t)^2 / (y^2 + 0.01)`,
    /// which equalises gradient magnitude across dynamic range.
    RelativeL2,
}

impl Loss {
    /// Loss value for one prediction/target pair.
    #[inline]
    pub fn value(self, prediction: f32, target: f32) -> f32 {
        let d = prediction - target;
        match self {
            Loss::Mse => d * d,
            Loss::L1 => d.abs(),
            Loss::RelativeL2 => d * d / (prediction * prediction + 0.01),
        }
    }

    /// `d loss / d prediction` for one pair.
    #[inline]
    pub fn gradient(self, prediction: f32, target: f32) -> f32 {
        let d = prediction - target;
        match self {
            Loss::Mse => 2.0 * d,
            Loss::L1 => {
                if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            // Treat the denominator as a constant (instant-NGP does the
            // same); the full quotient-rule derivative destabilises
            // training.
            Loss::RelativeL2 => 2.0 * d / (prediction * prediction + 0.01),
        }
    }

    /// Mean loss over a batch, writing per-element gradients (already
    /// divided by the element count) into `grad`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or are empty.
    pub fn batch(self, predictions: &[f32], targets: &[f32], grad: &mut [f32]) -> f32 {
        assert_eq!(predictions.len(), targets.len());
        assert_eq!(predictions.len(), grad.len());
        assert!(!predictions.is_empty());
        let inv_n = 1.0 / predictions.len() as f32;
        let mut total = 0.0;
        for i in 0..predictions.len() {
            total += self.value(predictions[i], targets[i]);
            grad[i] = self.gradient(predictions[i], targets[i]) * inv_n;
        }
        total * inv_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_at_target() {
        for loss in [Loss::Mse, Loss::L1, Loss::RelativeL2] {
            assert_eq!(loss.value(0.7, 0.7), 0.0);
            assert_eq!(loss.gradient(0.7, 0.7), 0.0);
        }
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let (p, t) = (0.4f32, 0.9f32);
        let h = 1e-3;
        let numeric = (Loss::Mse.value(p + h, t) - Loss::Mse.value(p - h, t)) / (2.0 * h);
        assert!((numeric - Loss::Mse.gradient(p, t)).abs() < 1e-3);
    }

    #[test]
    fn relative_l2_gradient_matches_its_definition() {
        // RelativeL2 deliberately treats the denominator as constant (as
        // instant-NGP does), so the gradient is 2 d / (p^2 + 0.01), not
        // the full quotient rule.
        let (p, t) = (0.4f32, 0.9f32);
        let expected = 2.0 * (p - t) / (p * p + 0.01);
        assert!((Loss::RelativeL2.gradient(p, t) - expected).abs() < 1e-6);
    }

    #[test]
    fn l1_gradient_is_sign() {
        assert_eq!(Loss::L1.gradient(1.0, 0.0), 1.0);
        assert_eq!(Loss::L1.gradient(-1.0, 0.0), -1.0);
    }

    #[test]
    fn batch_reduces_mean() {
        let p = [1.0f32, 2.0, 3.0];
        let t = [0.0f32, 0.0, 0.0];
        let mut g = [0.0f32; 3];
        let v = Loss::Mse.batch(&p, &t, &mut g);
        assert!((v - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-6);
        assert!((g[2] - 2.0 * 3.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn relative_l2_downweights_bright_regions() {
        let dim = Loss::RelativeL2.value(10.0, 9.0);
        let bright_grad = Loss::RelativeL2.gradient(10.0, 9.0).abs();
        let dark_grad = Loss::RelativeL2.gradient(0.1, -0.9).abs();
        assert!(dim < 1.0);
        assert!(dark_grad > bright_grad);
    }
}
