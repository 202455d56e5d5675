//! Table I of the NGPC paper: the exact hyper-parameters of every
//! application x encoding configuration.

use super::{AppKind, EncodingKind};
use crate::encoding::GridConfig;
use crate::math::Activation;
use crate::mlp::MlpConfig;

/// A complete Table I row: grid encoding plus MLP topology (two MLPs for
/// NeRF's density/color split).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppParams {
    /// Which application this parameterises.
    pub app: AppKind,
    /// Which input encoding scheme.
    pub encoding: EncodingKind,
    /// Grid-encoding hyper-parameters (`N_min`, `b`, `F`, `T`, `L`).
    pub grid: GridConfig,
    /// The primary MLP (density MLP for NeRF/NVR-style models, the single
    /// MLP otherwise).
    pub mlp: MlpConfig,
    /// NeRF's color MLP (fed by the 16 latent features + 16 SH features).
    pub color_mlp: Option<MlpConfig>,
}

/// Number of latent geometry features NeRF's density MLP hands to the
/// color MLP (the "16" of Table I's "16+16" composite).
///
/// Table I prints the density output as `->1` (the sigma channel); as in
/// instant-NGP the same network also carries the latent features, so the
/// concrete output width here is 16 with channel 0 holding sigma.
pub const NERF_LATENT_DIM: usize = 16;

/// Spherical-harmonics features encoding the view direction.
pub const NERF_SH_DIM: usize = 16;

fn grid_for(app: AppKind, encoding: EncodingKind) -> GridConfig {
    let dim = app.spatial_dim();
    let log2_t = match app {
        AppKind::Gia => 24,
        _ => 19,
    };
    match encoding {
        // Per-application growth factors from Table I.
        EncodingKind::MultiResHashGrid => GridConfig::hashgrid(
            dim,
            log2_t,
            match app {
                AppKind::Nerf => 1.51572,
                AppKind::Nsdf => 1.38191,
                AppKind::Nvr => 1.275,
                AppKind::Gia => 1.25992,
            },
        ),
        EncodingKind::MultiResDenseGrid => GridConfig::densegrid(dim, log2_t),
        EncodingKind::LowResDenseGrid => GridConfig::low_res_densegrid(dim, log2_t),
    }
}

/// Look up the Table I configuration for an application/encoding pair.
///
/// ```
/// use ng_neural::apps::{table1, AppKind, EncodingKind};
/// let p = table1(AppKind::Nerf, EncodingKind::MultiResHashGrid);
/// assert_eq!(p.grid.n_levels, 16);
/// assert_eq!(p.mlp.hidden_layers, 3); // density MLP
/// assert!(p.color_mlp.is_some());
/// ```
pub fn table1(app: AppKind, encoding: EncodingKind) -> AppParams {
    let grid = grid_for(app, encoding);
    let enc_out = grid.output_dim();
    let (mlp, color_mlp) = match app {
        AppKind::Nerf => {
            // Density: enc -> 64x3 -> 16 latent (sigma in channel 0);
            // Color: (16 latent + 16 SH) -> 64x4 -> 3.
            let density = MlpConfig::neural_graphics(enc_out, 3, NERF_LATENT_DIM, Activation::None);
            let color =
                MlpConfig::neural_graphics(NERF_LATENT_DIM + NERF_SH_DIM, 4, 3, Activation::None);
            (density, Some(color))
        }
        AppKind::Nsdf => (MlpConfig::neural_graphics(enc_out, 4, 1, Activation::None), None),
        AppKind::Nvr => (MlpConfig::neural_graphics(enc_out, 4, 4, Activation::None), None),
        AppKind::Gia => (MlpConfig::neural_graphics(enc_out, 4, 3, Activation::None), None),
    };
    AppParams { app, encoding, grid, mlp, color_mlp }
}

/// Every Table I row (4 applications x 3 encodings).
pub fn all_table1() -> Vec<AppParams> {
    let mut rows = Vec::with_capacity(12);
    for app in AppKind::ALL {
        for enc in EncodingKind::ALL {
            rows.push(table1(app, enc));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashgrid_growth_factors_match_table1() {
        assert_eq!(
            table1(AppKind::Nerf, EncodingKind::MultiResHashGrid).grid.growth_factor,
            1.51572
        );
        assert_eq!(
            table1(AppKind::Nsdf, EncodingKind::MultiResHashGrid).grid.growth_factor,
            1.38191
        );
        assert_eq!(table1(AppKind::Nvr, EncodingKind::MultiResHashGrid).grid.growth_factor, 1.275);
        assert_eq!(
            table1(AppKind::Gia, EncodingKind::MultiResHashGrid).grid.growth_factor,
            1.25992
        );
    }

    #[test]
    fn gia_uses_bigger_tables_and_2d() {
        let p = table1(AppKind::Gia, EncodingKind::MultiResHashGrid);
        assert_eq!(p.grid.log2_table_size, 24);
        assert_eq!(p.grid.dim, 2);
        let n = table1(AppKind::Nerf, EncodingKind::MultiResHashGrid);
        assert_eq!(n.grid.log2_table_size, 19);
        assert_eq!(n.grid.dim, 3);
    }

    #[test]
    fn encoding_output_widths_match_table1() {
        for app in AppKind::ALL {
            assert_eq!(table1(app, EncodingKind::MultiResHashGrid).grid.output_dim(), 32);
            assert_eq!(table1(app, EncodingKind::MultiResDenseGrid).grid.output_dim(), 16);
            assert_eq!(table1(app, EncodingKind::LowResDenseGrid).grid.output_dim(), 16);
        }
    }

    #[test]
    fn mlp_depths_match_table1() {
        // NeRF: density layers=3, color layers=4. Others: layers=4.
        let nerf = table1(AppKind::Nerf, EncodingKind::MultiResHashGrid);
        assert_eq!(nerf.mlp.hidden_layers, 3);
        assert_eq!(nerf.color_mlp.unwrap().hidden_layers, 4);
        for app in [AppKind::Nsdf, AppKind::Gia, AppKind::Nvr] {
            let p = table1(app, EncodingKind::MultiResHashGrid);
            assert_eq!(p.mlp.hidden_layers, 4);
            assert!(p.color_mlp.is_none());
        }
    }

    #[test]
    fn output_dims_match_applications() {
        assert_eq!(table1(AppKind::Nsdf, EncodingKind::MultiResHashGrid).mlp.output_dim, 1);
        assert_eq!(table1(AppKind::Gia, EncodingKind::MultiResHashGrid).mlp.output_dim, 3);
        assert_eq!(table1(AppKind::Nvr, EncodingKind::MultiResHashGrid).mlp.output_dim, 4);
        let nerf = table1(AppKind::Nerf, EncodingKind::MultiResHashGrid);
        assert_eq!(nerf.color_mlp.unwrap().output_dim, 3);
    }

    #[test]
    fn low_res_uses_128_base_and_two_levels() {
        for app in AppKind::ALL {
            let p = table1(app, EncodingKind::LowResDenseGrid);
            assert_eq!(p.grid.base_resolution, 128);
            assert_eq!(p.grid.n_levels, 2);
            assert_eq!(p.grid.features_per_level, 8);
        }
    }

    #[test]
    fn all_rows_validate() {
        for p in all_table1() {
            p.grid.validate().unwrap();
            p.mlp.validate().unwrap();
            if let Some(c) = p.color_mlp {
                c.validate().unwrap();
            }
        }
        assert_eq!(all_table1().len(), 12);
    }
}
