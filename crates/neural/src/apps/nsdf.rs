//! Neural signed distance functions (NSDF): a network learns the mapping
//! from 3D position to the signed distance of the nearest surface.

use super::{table1, AppKind, EncodingKind, FieldModel, OutputDecode};
use crate::encoding::MultiResGrid;
use crate::error::Result;
use crate::math::Vec3;
use crate::mlp::Mlp;

/// An NSDF model: 3D grid encoding -> 4-layer MLP -> signed distance.
#[derive(Debug, Clone)]
pub struct NsdfModel {
    field: FieldModel,
    encoding_kind: EncodingKind,
}

impl NsdfModel {
    /// Build the Table I NSDF configuration for the chosen encoding.
    pub fn new(encoding: EncodingKind, seed: u64) -> Self {
        let p = table1(AppKind::Nsdf, encoding);
        let grid = MultiResGrid::new(p.grid, seed).expect("table1 grid config is valid");
        let mlp = Mlp::new(p.mlp, seed ^ 0x5DF).expect("table1 mlp config is valid");
        NsdfModel {
            field: FieldModel::new(grid, mlp).expect("table1 widths are consistent"),
            encoding_kind: encoding,
        }
    }

    /// The encoding scheme in use.
    pub fn encoding_kind(&self) -> EncodingKind {
        self.encoding_kind
    }

    /// The underlying encoding + MLP pair.
    pub fn field(&self) -> &FieldModel {
        &self.field
    }

    /// Mutable access for training.
    pub fn field_mut(&mut self) -> &mut FieldModel {
        &mut self.field
    }

    /// The decode applied to raw MLP outputs (identity for distances).
    pub fn decode(&self) -> OutputDecode {
        OutputDecode::Raw
    }

    /// Predicted signed distance at a point in `[0,1]^3`.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the underlying model.
    pub fn distance(&self, p: Vec3) -> Result<f32> {
        Ok(self.field.forward(&p.to_array())?[0])
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.field.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_finite_everywhere() {
        let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 2);
        for i in 0..10 {
            let t = i as f32 / 9.0;
            let d = model.distance(Vec3::new(t, 1.0 - t, 0.5)).unwrap();
            assert!(d.is_finite());
        }
    }

    #[test]
    fn single_output_channel() {
        let model = NsdfModel::new(EncodingKind::MultiResHashGrid, 8);
        assert_eq!(model.field().mlp.config().output_dim, 1);
    }
}
