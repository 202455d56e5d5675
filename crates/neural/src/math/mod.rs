//! Small math utilities: fixed-size vectors, activations and a seedable RNG.

pub mod activation;
pub mod half;
pub mod rng;
pub mod vecn;

pub use activation::Activation;
pub use rng::Pcg32;
pub use vecn::{Vec2, Vec3};

/// Linearly interpolate between `a` and `b` by `t` (`t = 0` yields `a`).
///
/// ```
/// assert_eq!(ng_neural::math::lerp(2.0, 4.0, 0.5), 3.0);
/// ```
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Clamp `x` into `[lo, hi]`.
///
/// # Panics
///
/// Panics in debug builds if `lo > hi`.
#[inline]
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    debug_assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
    x.max(lo).min(hi)
}

/// Smoothstep interpolation (0 at `e0`, 1 at `e1`, C1-continuous).
#[inline]
pub fn smoothstep(e0: f32, e1: f32, x: f32) -> f32 {
    let t = clamp((x - e0) / (e1 - e0), 0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// FNV-1a over a string, 64-bit — the workspace's shared content-hash
/// for cache keys and model fingerprints (`ng-dse`'s point cache).
///
/// ```
/// assert_eq!(ng_neural::math::fnv1a64(""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(ng_neural::math::fnv1a64("a"), ng_neural::math::fnv1a64("b"));
/// ```
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(1.0, 5.0, 0.0), 1.0);
        assert_eq!(lerp(1.0, 5.0, 1.0), 5.0);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(2.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(0.25, 0.0, 1.0), 0.25);
    }

    #[test]
    fn smoothstep_monotone() {
        let mut prev = smoothstep(0.0, 1.0, 0.0);
        for i in 1..=100 {
            let v = smoothstep(0.0, 1.0, i as f32 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
        assert!((smoothstep(0.0, 1.0, 1.0) - 1.0).abs() < 1e-6);
    }
}
