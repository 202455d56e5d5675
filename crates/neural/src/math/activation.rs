//! Activation functions used by neural-graphics MLPs.
//!
//! Hidden layers of the fully-fused MLPs always use ReLU (as in
//! tiny-cuda-nn); the output activation depends on the application:
//! sigmoid for colors, exponential for NeRF density, and identity for
//! signed distances.

/// An elementwise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity (used for signed-distance outputs).
    #[default]
    None,
    /// Rectified linear unit (hidden layers).
    Relu,
    /// Logistic sigmoid (color outputs in `[0, 1]`).
    Sigmoid,
    /// Exponential (NeRF density output; guarantees non-negative sigma).
    Exp,
    /// Softplus, a smooth non-negative alternative for densities.
    Softplus,
}

impl Activation {
    /// Apply the activation to a single value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            // Clamp to keep exp from overflowing during early training.
            Activation::Exp => x.clamp(-15.0, 15.0).exp(),
            Activation::Softplus => {
                if x > 15.0 {
                    x
                } else {
                    (1.0 + x.exp()).ln()
                }
            }
        }
    }

    /// Derivative of the activation expressed in terms of the *pre*-activation
    /// input `x` and the already-computed output `y = apply(x)`.
    ///
    /// Using `y` where possible avoids recomputing transcendentals in the
    /// backward pass.
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::None => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Exp => {
                if (-15.0..=15.0).contains(&x) {
                    y
                } else {
                    0.0
                }
            }
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Apply in place over a slice.
    pub fn apply_slice(self, xs: &mut [f32]) {
        if self == Activation::None {
            return;
        }
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(act: Activation, x: f32) -> f32 {
        let h = 1e-3;
        (act.apply(x + h) - act.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn relu_basic() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        for x in [-20.0, -1.0, 0.0, 1.0, 20.0] {
            let y = s.apply(x);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn exp_non_negative_and_clamped() {
        let e = Activation::Exp;
        assert!(e.apply(-100.0) > 0.0);
        assert!(e.apply(100.0).is_finite());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for act in [Activation::None, Activation::Sigmoid, Activation::Exp, Activation::Softplus] {
            for x in [-2.0f32, -0.5, 0.1, 1.0, 2.0] {
                let y = act.apply(x);
                let analytic = act.derivative(x, y);
                let numeric = finite_diff(act, x);
                assert!(
                    (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "{act:?} at {x}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_sides() {
        let r = Activation::Relu;
        assert_eq!(r.derivative(-1.0, 0.0), 0.0);
        assert_eq!(r.derivative(1.0, 1.0), 1.0);
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let mut xs = [-1.0, 0.0, 1.0, 2.0];
        Activation::Sigmoid.apply_slice(&mut xs);
        for (i, x) in [-1.0f32, 0.0, 1.0, 2.0].iter().enumerate() {
            assert_eq!(xs[i], Activation::Sigmoid.apply(*x));
        }
    }

    #[test]
    fn softplus_positive() {
        for x in [-30.0f32, -1.0, 0.0, 1.0, 30.0] {
            assert!(Activation::Softplus.apply(x) >= 0.0);
        }
    }
}
