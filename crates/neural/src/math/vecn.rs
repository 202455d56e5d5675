//! Fixed-size 2D/3D vectors used by the analytic scenes and model queries.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-component single-precision vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
}

/// A 3-component single-precision vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

impl Vec2 {
    /// Construct from components.
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f32 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Components as a slice-compatible array.
    #[inline]
    pub fn to_array(self) -> [f32; 2] {
        [self.x, self.y]
    }
}

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// The all-same-component vector.
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Zero vector.
    pub const ZERO: Vec3 = Vec3::splat(0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit-length copy of this vector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vector is (near) zero length.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        debug_assert!(len > 1e-12, "cannot normalize near-zero vector");
        self / len
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise maximum with another vector.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise minimum with another vector.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Components as an array (useful for feeding encoders).
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Convert spherical viewing angles (theta = polar from +z,
    /// phi = azimuth in the xy-plane) to a unit direction.
    pub fn from_spherical(theta: f32, phi: f32) -> Vec3 {
        let st = theta.sin();
        Vec3::new(st * phi.cos(), st * phi.sin(), theta.cos())
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<[f32; 2]> for Vec2 {
    fn from(a: [f32; 2]) -> Self {
        Vec2::new(a[0], a[1])
    }
}

macro_rules! impl_binop3 {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Vec3 {
            type Output = Vec3;
            #[inline]
            fn $method(self, rhs: Vec3) -> Vec3 {
                Vec3::new(self.x $op rhs.x, self.y $op rhs.y, self.z $op rhs.z)
            }
        }
    };
}

impl_binop3!(Add, add, +);
impl_binop3!(Sub, sub, -);
impl_binop3!(Mul, mul, *);

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-4);
        assert!(c.dot(b).abs() < 1e-4);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spherical_round_trip_poles() {
        let up = Vec3::from_spherical(0.0, 0.0);
        assert!((up.z - 1.0).abs() < 1e-6);
        let down = Vec3::from_spherical(std::f32::consts::PI, 0.0);
        assert!((down.z + 1.0).abs() < 1e-6);
    }

    #[test]
    fn spherical_is_unit_length() {
        for i in 0..16 {
            for j in 0..16 {
                let theta = std::f32::consts::PI * i as f32 / 15.0;
                let phi = 2.0 * std::f32::consts::PI * j as f32 / 15.0;
                let d = Vec3::from_spherical(theta, phi);
                assert!((d.length() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a + Vec3::ZERO, a);
        assert_eq!(a - a, Vec3::ZERO);
        assert_eq!(a * 1.0, a);
        assert_eq!(-(-a), a);
        assert_eq!((a / 2.0) * 2.0, a);
    }
}
