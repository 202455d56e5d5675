//! Neural radiance and density fields (NeRF).
//!
//! Two concatenated networks (paper Fig. 4): a *density MLP* maps encoded
//! positions to sigma plus latent geometry features; a *color MLP* maps
//! those latent features together with the spherical-harmonics-encoded
//! view direction to RGB. The output is the `(RGB, sigma)` tuple of one
//! sample; compositing samples along a ray is left to the GPU, as in the
//! paper.

use super::params::{NERF_LATENT_DIM, NERF_SH_DIM};
use super::{table1, AppKind, EncodingKind, FieldModel, OutputDecode};
use crate::encoding::sh::SphericalHarmonics;
use crate::encoding::{Encoding, MultiResGrid};
use crate::error::Result;
use crate::math::{Activation, Vec3};
use crate::mlp::{Mlp, MlpTrace};

/// A radiance-field sample: emitted color and volume density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadianceSample {
    /// Emitted/reflected RGB color in `[0,1]`.
    pub color: Vec3,
    /// Volume density (non-negative).
    pub sigma: f32,
}

/// Everything computed during a traced NeRF forward pass.
#[derive(Debug, Clone)]
pub struct NerfTrace {
    /// Grid-encoding features of the position.
    pub features: Vec<f32>,
    /// Density MLP trace.
    pub density_trace: MlpTrace,
    /// Raw density-MLP outputs (channel 0 is pre-exp sigma).
    pub density_raw: Vec<f32>,
    /// Color-MLP input (latent + SH direction features).
    pub color_input: Vec<f32>,
    /// Color MLP trace.
    pub color_trace: MlpTrace,
    /// Raw color-MLP outputs (pre-sigmoid RGB).
    pub color_raw: Vec<f32>,
    /// Decoded sample.
    pub sample: RadianceSample,
}

/// The full NeRF pipeline of Table I.
#[derive(Debug, Clone)]
pub struct NerfModel {
    density: FieldModel,
    color_mlp: Mlp,
    sh: SphericalHarmonics,
    encoding_kind: EncodingKind,
}

impl NerfModel {
    /// Build the Table I NeRF configuration for the chosen encoding.
    pub fn new(encoding: EncodingKind, seed: u64) -> Self {
        let p = table1(AppKind::Nerf, encoding);
        let grid = MultiResGrid::new(p.grid, seed).expect("table1 grid config is valid");
        let density_mlp = Mlp::new(p.mlp, seed ^ 0xDE45).expect("table1 mlp config is valid");
        let color_mlp = Mlp::new(p.color_mlp.expect("nerf has a color mlp"), seed ^ 0xC010)
            .expect("table1 color mlp config is valid");
        NerfModel {
            density: FieldModel::new(grid, density_mlp).expect("table1 widths are consistent"),
            color_mlp,
            sh: SphericalHarmonics::degree4(),
            encoding_kind: encoding,
        }
    }

    /// The encoding scheme in use.
    pub fn encoding_kind(&self) -> EncodingKind {
        self.encoding_kind
    }

    /// The density branch (grid encoding + density MLP).
    pub fn density_field(&self) -> &FieldModel {
        &self.density
    }

    /// The color MLP.
    pub fn color_mlp(&self) -> &Mlp {
        &self.color_mlp
    }

    /// Total trainable parameters across both networks and the grid.
    pub fn param_count(&self) -> usize {
        self.density.param_count() + self.color_mlp.param_count()
    }

    /// Density-only query (used by importance samplers): sigma at `pos`.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn sigma(&self, pos: Vec3) -> Result<f32> {
        let raw = self.density.forward(&pos.to_array())?;
        Ok(Activation::Exp.apply(raw[0]))
    }

    /// Full radiance query at position `pos` (in `[0,1]^3`) viewed from
    /// unit direction `dir`.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn query(&self, pos: Vec3, dir: Vec3) -> Result<RadianceSample> {
        Ok(self.forward_traced(pos, dir)?.sample)
    }

    /// Traced forward pass retaining every intermediate.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn forward_traced(&self, pos: Vec3, dir: Vec3) -> Result<NerfTrace> {
        let features = self.density.encoding.encode(&pos.to_array())?;
        let density_trace = self.density.mlp.forward_traced(&features)?;
        let density_raw = density_trace.post.last().expect("trace has layers").clone();
        let sigma = Activation::Exp.apply(density_raw[0]);

        // Assemble the composite color input: latent geometry features
        // followed by SH-encoded direction ([0,1]-remapped as in
        // instant-NGP).
        let mut color_input = vec![0.0f32; NERF_LATENT_DIM + NERF_SH_DIM];
        color_input[..NERF_LATENT_DIM].copy_from_slice(&density_raw[..NERF_LATENT_DIM]);
        let dir01 = [(dir.x + 1.0) * 0.5, (dir.y + 1.0) * 0.5, (dir.z + 1.0) * 0.5];
        self.sh.encode_into(&dir01, &mut color_input[NERF_LATENT_DIM..])?;

        let color_trace = self.color_mlp.forward_traced(&color_input)?;
        let color_raw = color_trace.post.last().expect("trace has layers").clone();
        let color = Vec3::new(
            Activation::Sigmoid.apply(color_raw[0]),
            Activation::Sigmoid.apply(color_raw[1]),
            Activation::Sigmoid.apply(color_raw[2]),
        );
        Ok(NerfTrace {
            features,
            density_trace,
            density_raw,
            color_input,
            color_trace,
            color_raw,
            sample: RadianceSample { color, sigma },
        })
    }

    /// The decode applied to the color branch.
    pub fn color_decode(&self) -> OutputDecode {
        OutputDecode::Color
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NerfModel {
        NerfModel::new(EncodingKind::LowResDenseGrid, 9)
    }

    #[test]
    fn query_produces_valid_sample() {
        let m = model();
        let s = m.query(Vec3::new(0.4, 0.5, 0.6), Vec3::new(0.0, 0.0, 1.0)).unwrap();
        assert!(s.sigma >= 0.0);
        for ch in [s.color.x, s.color.y, s.color.z] {
            assert!((0.0..=1.0).contains(&ch));
        }
    }

    #[test]
    fn sigma_matches_traced_forward() {
        let m = model();
        let pos = Vec3::new(0.3, 0.7, 0.2);
        let sigma = m.sigma(pos).unwrap();
        let trace = m.forward_traced(pos, Vec3::new(1.0, 0.0, 0.0)).unwrap();
        assert!((sigma - trace.sample.sigma).abs() < 1e-6);
    }

    #[test]
    fn color_depends_on_view_direction() {
        // With random init this holds almost surely; it verifies the SH
        // path is wired into the color input.
        let m = NerfModel::new(EncodingKind::MultiResDenseGrid, 21);
        let pos = Vec3::new(0.5, 0.5, 0.5);
        let a = m.query(pos, Vec3::new(0.0, 0.0, 1.0)).unwrap();
        let b = m.query(pos, Vec3::new(1.0, 0.0, 0.0)).unwrap();
        assert!((a.color - b.color).length() > 1e-6, "color did not change with view direction");
        assert!((a.sigma - b.sigma).abs() < 1e-9, "sigma must be view-independent");
    }
}
