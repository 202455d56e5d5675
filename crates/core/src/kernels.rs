//! Kernel-level speedups of the NGPC engines over the GPU baseline
//! (paper Fig. 13) and the rest-kernel fusion factor.

use ng_neural::apps::EncodingKind;

/// Speedup of the fused "rest of the kernels" single-kernel
/// implementation over the prior optimised GPU implementation (paper
/// Sections I/VII: ~9.94x, "sufficient to remove this performance
/// bottleneck").
pub const REST_FUSION_SPEEDUP: f64 = 9.94;

/// Which accelerated kernel a speedup refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratedKernel {
    /// The input-encoding kernel on the encoding engines.
    InputEncoding,
    /// The MLP kernel on the MAC-array engine.
    Mlp,
}

/// Per-NFP standalone kernel speedup over the GPU kernel, by encoding
/// type. Multiplying by the NFP count gives the cluster speedup; at
/// NGPC-64 these reproduce the paper's Fig. 13 numbers exactly
/// (hashgrid 246x / 1232x, densegrid 379x / 1070x, low-res densegrid
/// 2353x / 1451x, averaged across the four applications).
///
/// The constants are the paper's published NGPC-64 values divided by 64;
/// the engine cycle models in [`crate::engine`] reproduce their *shape*
/// (MLP > encoding for hash/dense; low-res encoding far ahead thanks to
/// its 8-wide input parallelism) and are cross-validated against
/// `ng-timeloop` for the MLP engine.
pub fn per_nfp_kernel_speedup(encoding: EncodingKind, kernel: AcceleratedKernel) -> f64 {
    let (enc64, mlp64) = match encoding {
        EncodingKind::MultiResHashGrid => (246.0, 1232.0),
        EncodingKind::MultiResDenseGrid => (379.0, 1070.0),
        EncodingKind::LowResDenseGrid => (2353.0, 1451.0),
    };
    match kernel {
        AcceleratedKernel::InputEncoding => enc64 / 64.0,
        AcceleratedKernel::Mlp => mlp64 / 64.0,
    }
}

/// Cluster-level kernel speedup at a given scaling factor (Fig. 13 bars).
pub fn kernel_speedup(encoding: EncodingKind, kernel: AcceleratedKernel, nfp_units: u32) -> f64 {
    per_nfp_kernel_speedup(encoding, kernel) * nfp_units as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngpc64_matches_paper_fig13() {
        let e = |enc| kernel_speedup(enc, AcceleratedKernel::InputEncoding, 64);
        let m = |enc| kernel_speedup(enc, AcceleratedKernel::Mlp, 64);
        assert_eq!(e(EncodingKind::MultiResHashGrid), 246.0);
        assert_eq!(m(EncodingKind::MultiResHashGrid), 1232.0);
        assert_eq!(e(EncodingKind::MultiResDenseGrid), 379.0);
        assert_eq!(m(EncodingKind::MultiResDenseGrid), 1070.0);
        assert_eq!(e(EncodingKind::LowResDenseGrid), 2353.0);
        assert_eq!(m(EncodingKind::LowResDenseGrid), 1451.0);
    }

    #[test]
    fn speedup_scales_linearly_with_units() {
        let s8 = kernel_speedup(EncodingKind::MultiResHashGrid, AcceleratedKernel::Mlp, 8);
        let s16 = kernel_speedup(EncodingKind::MultiResHashGrid, AcceleratedKernel::Mlp, 16);
        assert!((s16 / s8 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mlp_beats_encoding_for_hash_and_dense() {
        for enc in [EncodingKind::MultiResHashGrid, EncodingKind::MultiResDenseGrid] {
            assert!(
                kernel_speedup(enc, AcceleratedKernel::Mlp, 64)
                    > kernel_speedup(enc, AcceleratedKernel::InputEncoding, 64)
            );
        }
    }

    #[test]
    fn low_res_encoding_speedup_is_largest() {
        // 8 parallel inputs (2 levels on 16 engines) makes the low-res
        // encoding engine the standout.
        let lr =
            kernel_speedup(EncodingKind::LowResDenseGrid, AcceleratedKernel::InputEncoding, 64);
        for enc in [EncodingKind::MultiResHashGrid, EncodingKind::MultiResDenseGrid] {
            assert!(lr > kernel_speedup(enc, AcceleratedKernel::InputEncoding, 64));
            assert!(lr > kernel_speedup(enc, AcceleratedKernel::Mlp, 64));
        }
    }

    #[test]
    fn fusion_factor_is_papers() {
        assert_eq!(REST_FUSION_SPEEDUP, 9.94);
    }
}
