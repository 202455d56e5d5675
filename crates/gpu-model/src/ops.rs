//! Operation-level breakdown inside the input-encoding kernel (paper
//! Fig. 8).
//!
//! The paper labels the five most expensive operations: grid lookups,
//! the hash function, the (integer) modulo, interpolation, and the
//! position-to-fraction conversion. Cycle weights are derived from the
//! workload counts and per-operation latency estimates, with memory
//! stalls ("long scoreboard" waits in the paper's analysis) attributed to
//! the operation that issues the load — exactly how Nsight attributes
//! them.

use ng_neural::apps::{table1, AppKind, EncodingKind};
use ng_neural::encoding::GridLayout;

use crate::cache::CacheModel;
use crate::calibrate::FHD_PIXELS;
use crate::spec::GpuSpec;
use crate::workload::{FrameWorkload, BYTES_PER_PARAM};

/// The operations the paper's Fig. 8 labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingOp {
    /// Feature-table reads (including the memory stalls they cause).
    GridLookup,
    /// The spatial hash of Eq. 1 (zero for dense/tiled grids).
    HashFunction,
    /// The integer modulo reducing indices into the table.
    Modulo,
    /// d-linear interpolation of corner features.
    Interpolation,
    /// Converting normalized positions to cell base + fraction.
    PosFract,
    /// Everything else (loop bookkeeping, output writes).
    Other,
}

impl EncodingOp {
    /// All tracked operations.
    pub const ALL: [EncodingOp; 6] = [
        EncodingOp::GridLookup,
        EncodingOp::HashFunction,
        EncodingOp::Modulo,
        EncodingOp::Interpolation,
        EncodingOp::PosFract,
        EncodingOp::Other,
    ];

    /// Display name as in Fig. 8.
    pub fn name(self) -> &'static str {
        match self {
            EncodingOp::GridLookup => "grid lookups",
            EncodingOp::HashFunction => "hash function",
            EncodingOp::Modulo => "modulo",
            EncodingOp::Interpolation => "interpolation",
            EncodingOp::PosFract => "pos_fract",
            EncodingOp::Other => "other",
        }
    }
}

/// Cycle share of each operation within the encoding kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct OpBreakdown {
    /// Encoding type this breakdown describes.
    pub encoding: EncodingKind,
    /// `(operation, percent of encoding-kernel cycles)`, descending.
    pub shares: Vec<(EncodingOp, f64)>,
}

impl OpBreakdown {
    /// Percentage share of a given op (0 if absent).
    pub fn share(&self, op: EncodingOp) -> f64 {
        self.shares.iter().find(|(o, _)| *o == op).map(|(_, s)| *s).unwrap_or(0.0)
    }

    /// The top-5 operations, as plotted in Fig. 8.
    pub fn top5(&self) -> Vec<(EncodingOp, f64)> {
        self.shares.iter().take(5).copied().collect()
    }
}

/// Relative per-occurrence cycle weights (issue + exposed latency).
const LOOKUP_HIT_CYCLES: f64 = 30.0; // L2 round trip amortised over warp
const LOOKUP_MISS_CYCLES: f64 = 220.0; // DRAM long-scoreboard stall
const HASH_CYCLES: f64 = 9.0; // d multiplies + xors
const HASH_STALL_CYCLES: f64 = 14.0; // issue stalls waiting on loads (paper Sec. IV)
const MODULO_CYCLES: f64 = 22.0; // general integer modulo path
const INTERP_MAC_CYCLES: f64 = 1.0;
const POS_FRACT_CYCLES: f64 = 6.0; // scale, floor, subtract per dim
const OTHER_CYCLES_PER_QUERY: f64 = 24.0;

/// Derive the Fig. 8 breakdown for one app/encoding pair averaged over a
/// frame.
pub fn op_breakdown(gpu: &GpuSpec, app: AppKind, encoding: EncodingKind) -> OpBreakdown {
    let w = FrameWorkload::derive(app, encoding, FHD_PIXELS);
    let grid = GridLayout::new(table1(app, encoding).grid).expect("valid");
    let cache = CacheModel::estimate(&grid, gpu.l2_bytes, BYTES_PER_PARAM);

    let q = w.queries as f64;
    let lookups = q * w.lookups_per_query as f64;
    let lookup_cycles = lookups
        * (cache.aggregate_hit_rate() * LOOKUP_HIT_CYCLES + cache.miss_rate() * LOOKUP_MISS_CYCLES);
    let hash_cycles = q * w.hashes_per_query as f64 * (HASH_CYCLES + HASH_STALL_CYCLES);
    // Every lookup's index is reduced modulo the table size (the paper
    // notes the compiler emits the general integer modulo even though the
    // size is a power of two) — on hashed *and* wrapped tiled levels; for
    // purely dense levels there is still a bounds reduction, modelled at
    // half cost.
    let d = table1(app, encoding).grid.dim as f64;
    let modulo_cycles = lookups * MODULO_CYCLES * 0.75;
    let interp_cycles = q * w.interp_macs_per_query as f64 * INTERP_MAC_CYCLES;
    let pos_fract_cycles = q * w.levels as f64 * d * POS_FRACT_CYCLES;
    let other_cycles = q * OTHER_CYCLES_PER_QUERY;

    let total = lookup_cycles
        + hash_cycles
        + modulo_cycles
        + interp_cycles
        + pos_fract_cycles
        + other_cycles;
    let mut shares = vec![
        (EncodingOp::GridLookup, 100.0 * lookup_cycles / total),
        (EncodingOp::HashFunction, 100.0 * hash_cycles / total),
        (EncodingOp::Modulo, 100.0 * modulo_cycles / total),
        (EncodingOp::Interpolation, 100.0 * interp_cycles / total),
        (EncodingOp::PosFract, 100.0 * pos_fract_cycles / total),
        (EncodingOp::Other, 100.0 * other_cycles / total),
    ];
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    OpBreakdown { encoding, shares }
}

/// The Fig. 8 panel: breakdown averaged across the four applications.
pub fn op_breakdown_average(gpu: &GpuSpec, encoding: EncodingKind) -> OpBreakdown {
    let mut acc: Vec<(EncodingOp, f64)> = EncodingOp::ALL.iter().map(|&op| (op, 0.0)).collect();
    for app in AppKind::ALL {
        let b = op_breakdown(gpu, app, encoding);
        for (op, share) in &mut acc {
            *share += b.share(*op) / 4.0;
        }
    }
    acc.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    OpBreakdown { encoding, shares: acc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::rtx3090;

    #[test]
    fn shares_sum_to_hundred() {
        let gpu = rtx3090();
        for enc in EncodingKind::ALL {
            let b = op_breakdown_average(&gpu, enc);
            let sum: f64 = b.shares.iter().map(|(_, s)| s).sum();
            assert!((sum - 100.0).abs() < 1e-6, "{enc}: {sum}");
        }
    }

    #[test]
    fn grid_lookups_dominate_every_encoding() {
        // Paper: "grid lookups take significant amount of cycles across
        // all three input encoding types" — they are the top op.
        let gpu = rtx3090();
        for enc in EncodingKind::ALL {
            let b = op_breakdown_average(&gpu, enc);
            assert_eq!(b.shares[0].0, EncodingOp::GridLookup, "{enc}");
            assert!(b.shares[0].1 > 25.0);
        }
    }

    #[test]
    fn hash_is_zero_for_dense_grids() {
        // Paper: "the breakdown shows zero cycles for the hash function"
        // for both densegrid types.
        let gpu = rtx3090();
        for enc in [EncodingKind::MultiResDenseGrid, EncodingKind::LowResDenseGrid] {
            let b = op_breakdown_average(&gpu, enc);
            assert_eq!(b.share(EncodingOp::HashFunction), 0.0, "{enc}");
        }
    }

    #[test]
    fn hash_is_significant_for_hashgrid() {
        let gpu = rtx3090();
        let b = op_breakdown_average(&gpu, EncodingKind::MultiResHashGrid);
        assert!(b.share(EncodingOp::HashFunction) > 3.0);
    }

    #[test]
    fn modulo_is_expensive_for_all_encodings() {
        // Paper Section IV: "the integer mapped modulo operation is one of
        // the most expensive operations for all three input encoding
        // types".
        let gpu = rtx3090();
        for enc in EncodingKind::ALL {
            let b = op_breakdown_average(&gpu, enc);
            let rank = b.shares.iter().position(|(o, _)| *o == EncodingOp::Modulo).unwrap();
            assert!(rank <= 2, "{enc}: modulo ranked {rank}");
            assert!(b.share(EncodingOp::Modulo) > 8.0);
        }
    }

    #[test]
    fn top5_has_five_entries() {
        let gpu = rtx3090();
        let b = op_breakdown_average(&gpu, EncodingKind::MultiResHashGrid);
        assert_eq!(b.top5().len(), 5);
    }
}
