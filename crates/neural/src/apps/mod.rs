//! The four representative neural-graphics applications of the NGPC paper:
//! NeRF, NSDF, GIA and NVR (paper Fig. 4, Table I).
//!
//! All four share the same two-stage pipeline: a parametric grid
//! [`crate::encoding`] feeding a tiny fully-fused [`crate::mlp`]. They
//! differ in input dimensionality, output decoding and (for NeRF) in the
//! density/color two-network split. [`FieldModel`] captures the shared
//! "encoding -> MLP" pair; each app module wraps it with the right
//! decoding and training target.

pub mod gia;
pub mod nerf;
pub mod nsdf;
pub mod nvr;
pub mod params;

pub use params::{all_table1, table1, AppParams};

use crate::encoding::{Encoding, MultiResGrid};
use crate::error::Result;
use crate::math::Activation;
use crate::mlp::{Mlp, MlpTrace};

/// The four neural-graphics applications under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Neural radiance and density fields (novel view synthesis).
    Nerf,
    /// Neural signed distance functions (3D shape representation).
    Nsdf,
    /// Gigapixel image approximation (2D image fitting).
    Gia,
    /// Neural volume rendering (density + reflectance fields).
    Nvr,
}

impl AppKind {
    /// All four applications, in the paper's order.
    pub const ALL: [AppKind; 4] = [AppKind::Nerf, AppKind::Nsdf, AppKind::Gia, AppKind::Nvr];

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Nerf => "NeRF",
            AppKind::Nsdf => "NSDF",
            AppKind::Gia => "GIA",
            AppKind::Nvr => "NVR",
        }
    }

    /// Spatial input dimensionality (2 for images, 3 for volumes).
    pub fn spatial_dim(self) -> usize {
        match self {
            AppKind::Gia => 2,
            _ => 3,
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three input-encoding schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingKind {
    /// Multiresolution hashgrid (16 levels, hash-indexed).
    MultiResHashGrid,
    /// Multiresolution densegrid (8 levels, 1:1).
    MultiResDenseGrid,
    /// Low-resolution densegrid (2 levels, 1:1/tiled).
    LowResDenseGrid,
}

impl EncodingKind {
    /// All three encodings, in the paper's order.
    pub const ALL: [EncodingKind; 3] = [
        EncodingKind::MultiResHashGrid,
        EncodingKind::MultiResDenseGrid,
        EncodingKind::LowResDenseGrid,
    ];

    /// Abbreviation used in the paper's Fig. 8 (MRHG/MRDG/LRDG).
    pub fn abbrev(self) -> &'static str {
        match self {
            EncodingKind::MultiResHashGrid => "MRHG",
            EncodingKind::MultiResDenseGrid => "MRDG",
            EncodingKind::LowResDenseGrid => "LRDG",
        }
    }

    /// Resolution levels of the encoding's grid (Table I: 16 hashgrid,
    /// 8 densegrid, 2 low-res levels, the same for every application).
    pub fn levels(self) -> usize {
        match self {
            EncodingKind::MultiResHashGrid => 16,
            EncodingKind::MultiResDenseGrid => 8,
            EncodingKind::LowResDenseGrid => 2,
        }
    }

    /// Long name as used in the paper's prose.
    pub fn name(self) -> &'static str {
        match self {
            EncodingKind::MultiResHashGrid => "multi resolution hashgrid",
            EncodingKind::MultiResDenseGrid => "multi resolution densegrid",
            EncodingKind::LowResDenseGrid => "low resolution densegrid",
        }
    }
}

impl std::fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How raw MLP outputs map to physical quantities.
///
/// All MLPs in this crate produce raw (identity-activated) outputs; the
/// application applies the decode. Keeping the nonlinearity out of the MLP
/// lets the trainer chain gradients explicitly and keeps the hardware MLP
/// engine a pure GEMM pipeline, as in the NFP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputDecode {
    /// Identity (signed distances).
    Raw,
    /// Sigmoid on every channel (colors).
    Color,
    /// Sigmoid on channels 0..3, exponential on channel 3 (NVR's RGB-sigma).
    ColorDensity,
    /// Exponential on channel 0, identity elsewhere (NeRF density +
    /// latent geometry features).
    DensityLatent,
}

impl OutputDecode {
    /// Decode raw outputs in place.
    pub fn apply(self, raw: &mut [f32]) {
        match self {
            OutputDecode::Raw => {}
            OutputDecode::Color => Activation::Sigmoid.apply_slice(raw),
            OutputDecode::ColorDensity => {
                for v in raw[..3].iter_mut() {
                    *v = Activation::Sigmoid.apply(*v);
                }
                raw[3] = Activation::Exp.apply(raw[3]);
            }
            OutputDecode::DensityLatent => {
                raw[0] = Activation::Exp.apply(raw[0]);
            }
        }
    }

    /// Chain `d loss / d decoded` back to `d loss / d raw`, given the raw
    /// and decoded values.
    pub fn gradient(self, raw: &[f32], decoded: &[f32], d_decoded: &[f32], d_raw: &mut [f32]) {
        match self {
            OutputDecode::Raw => d_raw.copy_from_slice(d_decoded),
            OutputDecode::Color => {
                for i in 0..raw.len() {
                    d_raw[i] = d_decoded[i] * Activation::Sigmoid.derivative(raw[i], decoded[i]);
                }
            }
            OutputDecode::ColorDensity => {
                for i in 0..3 {
                    d_raw[i] = d_decoded[i] * Activation::Sigmoid.derivative(raw[i], decoded[i]);
                }
                d_raw[3] = d_decoded[3] * Activation::Exp.derivative(raw[3], decoded[3]);
            }
            OutputDecode::DensityLatent => {
                d_raw.copy_from_slice(d_decoded);
                d_raw[0] = d_decoded[0] * Activation::Exp.derivative(raw[0], decoded[0]);
            }
        }
    }
}

/// Gradient buffers for a [`FieldModel`], laid out to match its parameter
/// chunks.
#[derive(Debug, Clone)]
pub struct FieldGrads {
    /// Gradients of the grid-encoding table.
    pub encoding: Vec<f32>,
    /// Gradients of the MLP weights.
    pub mlp: Vec<f32>,
}

impl FieldGrads {
    /// Zeroed gradients matching `model`.
    pub fn zeros_like(model: &FieldModel) -> Self {
        FieldGrads {
            encoding: vec![0.0; model.encoding.param_count()],
            mlp: vec![0.0; model.mlp.param_count()],
        }
    }

    /// Reset all gradients to zero.
    pub fn clear(&mut self) {
        self.encoding.iter_mut().for_each(|g| *g = 0.0);
        self.mlp.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Scale all gradients (e.g. by `1/batch`).
    pub fn scale(&mut self, s: f32) {
        self.encoding.iter_mut().for_each(|g| *g *= s);
        self.mlp.iter_mut().for_each(|g| *g *= s);
    }
}

/// The shared "parametric encoding feeding a tiny MLP" pipeline.
#[derive(Debug, Clone)]
pub struct FieldModel {
    /// Trainable grid encoding (the input stage).
    pub encoding: MultiResGrid,
    /// Trainable MLP (the inference stage), raw outputs.
    pub mlp: Mlp,
}

impl FieldModel {
    /// Construct from parts, checking that the widths line up.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NgError::DimensionMismatch`] if the encoding output
    /// width differs from the MLP input width.
    pub fn new(encoding: MultiResGrid, mlp: Mlp) -> Result<Self> {
        crate::encoding::check_dim(
            "field model encoding->mlp width",
            mlp.config().input_dim,
            encoding.output_dim(),
        )?;
        Ok(FieldModel { encoding, mlp })
    }

    /// Raw forward inference for one spatial point.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the encoding or MLP.
    pub fn forward(&self, x: &[f32]) -> Result<Vec<f32>> {
        let features = self.encoding.encode(x)?;
        self.mlp.forward(&features)
    }

    /// Forward pass retaining the features and MLP trace for training.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the encoding or MLP.
    pub fn forward_traced(&self, x: &[f32]) -> Result<(Vec<f32>, MlpTrace)> {
        let features = self.encoding.encode(x)?;
        let trace = self.mlp.forward_traced(&features)?;
        Ok((features, trace))
    }

    /// Accumulate gradients for one sample given `d loss / d raw output`.
    ///
    /// Returns `d loss / d features` in case the caller chains further
    /// (NeRF routes the color model's latent gradient here).
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn backward(
        &self,
        x: &[f32],
        features: &[f32],
        trace: &MlpTrace,
        d_raw: &[f32],
        grads: &mut FieldGrads,
    ) -> Result<Vec<f32>> {
        let d_features = self.mlp.backward(features, trace, d_raw, &mut grads.mlp)?;
        self.encoding.backward(x, &d_features, &mut grads.encoding)?;
        Ok(d_features)
    }

    /// Total trainable parameters (encoding tables + MLP weights).
    pub fn param_count(&self) -> usize {
        self.encoding.param_count() + self.mlp.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::GridConfig;
    use crate::mlp::MlpConfig;

    fn model() -> FieldModel {
        let grid = MultiResGrid::new(GridConfig::hashgrid(3, 10, 1.5), 3).unwrap();
        let mlp = Mlp::new(MlpConfig::neural_graphics(32, 2, 3, Activation::None), 4).unwrap();
        FieldModel::new(grid, mlp).unwrap()
    }

    #[test]
    fn width_mismatch_rejected() {
        let grid = MultiResGrid::new(GridConfig::hashgrid(3, 10, 1.5), 3).unwrap();
        let mlp = Mlp::new(MlpConfig::neural_graphics(16, 2, 3, Activation::None), 4).unwrap();
        assert!(FieldModel::new(grid, mlp).is_err());
    }

    #[test]
    fn forward_shape() {
        let m = model();
        assert_eq!(m.forward(&[0.2, 0.4, 0.6]).unwrap().len(), 3);
    }

    #[test]
    fn backward_fills_both_chunks() {
        let m = model();
        let x = [0.3, 0.5, 0.7];
        let (features, trace) = m.forward_traced(&x).unwrap();
        let mut grads = FieldGrads::zeros_like(&m);
        m.backward(&x, &features, &trace, &[1.0, 1.0, 1.0], &mut grads).unwrap();
        assert!(grads.mlp.iter().any(|g| *g != 0.0));
        assert!(grads.encoding.iter().any(|g| *g != 0.0));
    }

    #[test]
    fn decode_color_bounds() {
        let mut raw = [2.0f32, -2.0, 0.0];
        OutputDecode::Color.apply(&mut raw);
        assert!(raw.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn decode_color_density_channels() {
        let mut raw = [0.0f32, 0.0, 0.0, 1.0];
        OutputDecode::ColorDensity.apply(&mut raw);
        assert!((raw[0] - 0.5).abs() < 1e-6);
        assert!((raw[3] - 1.0f32.exp()).abs() < 1e-5);
    }

    #[test]
    fn decode_gradients_match_finite_difference() {
        let raws = [0.4f32, -0.3, 0.9, 0.2];
        for decode in [
            OutputDecode::Raw,
            OutputDecode::Color,
            OutputDecode::ColorDensity,
            OutputDecode::DensityLatent,
        ] {
            let n = if decode == OutputDecode::Color { 3 } else { 4 };
            let raw = &raws[..n];
            let mut decoded = raw.to_vec();
            decode.apply(&mut decoded);
            // loss = sum(decoded); d_decoded = 1.
            let d_decoded = vec![1.0f32; n];
            let mut d_raw = vec![0.0f32; n];
            decode.gradient(raw, &decoded, &d_decoded, &mut d_raw);
            let h = 1e-3f32;
            for i in 0..n {
                let mut rp = raw.to_vec();
                rp[i] += h;
                decode.apply(&mut rp);
                let mut rm = raw.to_vec();
                rm[i] -= h;
                decode.apply(&mut rm);
                let numeric: f32 = (rp.iter().sum::<f32>() - rm.iter().sum::<f32>()) / (2.0 * h);
                assert!(
                    (d_raw[i] - numeric).abs() < 1e-2,
                    "{decode:?} ch {i}: {} vs {numeric}",
                    d_raw[i]
                );
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AppKind::Nerf.name(), "NeRF");
        assert_eq!(EncodingKind::MultiResHashGrid.abbrev(), "MRHG");
        assert_eq!(AppKind::ALL.len(), 4);
        assert_eq!(EncodingKind::ALL.len(), 3);
    }
}
