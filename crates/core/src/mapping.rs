//! Per-layer MLP tilings as first-class, pluggable mappings.
//!
//! Until ISSUE 10 the MLP engine's tiling was a constant baked into
//! [`crate::emulator::per_sample_cycles`]: every layer matrix costs
//! `rows.div_ceil(mac_rows) * cols.div_ceil(mac_cols)` cycles — the
//! paper's fixed weight-stationary dataflow, one full-array tile per
//! cycle. That is still the default ([`FixedTiling`], reproduced
//! bit-exactly), but the timing stack now takes the tiling as a
//! [`LayerMapping`] value, so an external mapping search (`ng-timeloop`
//! via `dse --map-search`) can feed a better per-layer schedule back
//! into the end-to-end model without forking the emulator.
//!
//! The contract a mapping must honour: [`LayerMapping::layer_cycles`]
//! returns the *per-query* MAC-array occupancy (cycles one query of a
//! `rows x cols` weight matrix holds the array), the same unit
//! [`FixedTiling`] charges. Everything downstream — stage fusion, the
//! MAC/engine factor ratio, the end-to-end slope — is unit-agnostic.

use ng_neural::mlp::MlpConfig;

use crate::config::NfpConfig;

/// A per-layer tiling policy: cycles one query of a `rows x cols`
/// weight matrix occupies the `mac_rows x mac_cols` MAC array.
pub trait LayerMapping {
    /// Per-query cycles for one layer matrix of shape `(rows, cols)`
    /// on `nfp`'s MLP engine.
    fn layer_cycles(&self, rows: usize, cols: usize, nfp: &NfpConfig) -> f64;
}

/// The paper's fixed dataflow: the array computes one full
/// `mac_rows x mac_cols` tile per cycle, so a layer matrix costs
/// `rows.div_ceil(mac_rows) * cols.div_ceil(mac_cols)` cycles —
/// bit-exactly the constant the emulator charged before mappings were
/// pluggable (the property test in `tests/mapping_props.rs` pins this
/// for every valid [`NfpConfig`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedTiling;

impl LayerMapping for FixedTiling {
    fn layer_cycles(&self, rows: usize, cols: usize, nfp: &NfpConfig) -> f64 {
        let (mac_rows, mac_cols) = (nfp.mac_rows.max(1) as usize, nfp.mac_cols.max(1) as usize);
        (rows.div_ceil(mac_rows) * cols.div_ceil(mac_cols)) as f64
    }
}

/// A table of searched per-layer cycle counts keyed by layer shape,
/// with [`FixedTiling`] as the fallback for shapes the table does not
/// cover. This is the bridge an external mapper uses: `dse
/// --map-search` fills one table per NFP configuration from
/// `ng_timeloop::best_mapping` results and evaluates the point through
/// [`crate::emulator::emulate_with_mapping`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingTable {
    entries: Vec<((usize, usize), f64)>,
}

impl MappingTable {
    /// An empty table (pure [`FixedTiling`] behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-query cycles of layer shape `(rows, cols)`
    /// (replacing any previous entry for that shape).
    pub fn set(&mut self, rows: usize, cols: usize, cycles: f64) {
        match self.entries.iter_mut().find(|(shape, _)| *shape == (rows, cols)) {
            Some((_, c)) => *c = cycles,
            None => self.entries.push(((rows, cols), cycles)),
        }
    }

    /// The table's entry for a shape, if any.
    pub fn get(&self, rows: usize, cols: usize) -> Option<f64> {
        self.entries.iter().find(|(shape, _)| *shape == (rows, cols)).map(|(_, c)| *c)
    }

    /// Number of shapes covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table covers no shapes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl LayerMapping for MappingTable {
    fn layer_cycles(&self, rows: usize, cols: usize, nfp: &NfpConfig) -> f64 {
        self.get(rows, cols).unwrap_or_else(|| FixedTiling.layer_cycles(rows, cols, nfp))
    }
}

/// Total per-query MAC-array cycles of one MLP under a mapping: the sum
/// of [`LayerMapping::layer_cycles`] over the network's weight
/// matrices. The mapping-aware generalisation of the emulator's legacy
/// `mlp_tile_cycles`.
pub fn mlp_cycles(mlp: &MlpConfig, nfp: &NfpConfig, mapping: &dyn LayerMapping) -> f64 {
    (0..mlp.n_matrices())
        .map(|m| {
            let (rows, cols) = mlp.matrix_shape(m);
            mapping.layer_cycles(rows, cols, nfp)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_tiling_is_the_legacy_formula() {
        let nfp = NfpConfig::default();
        assert_eq!(FixedTiling.layer_cycles(64, 64, &nfp), 1.0);
        assert_eq!(FixedTiling.layer_cycles(65, 64, &nfp), 2.0);
        assert_eq!(FixedTiling.layer_cycles(128, 128, &nfp), 4.0);
        let narrow = NfpConfig { mac_rows: 16, mac_cols: 16, ..NfpConfig::default() };
        assert_eq!(FixedTiling.layer_cycles(64, 64, &narrow), 16.0);
    }

    #[test]
    fn table_overrides_only_its_shapes() {
        let nfp = NfpConfig::default();
        let mut table = MappingTable::new();
        assert!(table.is_empty());
        table.set(64, 64, 0.5);
        table.set(64, 64, 0.25); // replace, not duplicate
        assert_eq!(table.len(), 1);
        assert_eq!(table.layer_cycles(64, 64, &nfp), 0.25);
        // Uncovered shapes fall back to the fixed tiling.
        assert_eq!(table.layer_cycles(128, 64, &nfp), FixedTiling.layer_cycles(128, 64, &nfp));
    }

    #[test]
    fn mlp_cycles_sums_layer_matrices() {
        // Table I NSDF MLP: 32 -> 64 x4 -> 1 on the paper's 64x64 array:
        // every matrix is one tile.
        let mlp = MlpConfig::neural_graphics(32, 4, 1, ng_neural::math::Activation::None);
        let nfp = NfpConfig::default();
        assert_eq!(mlp_cycles(&mlp, &nfp, &FixedTiling), 5.0);
    }
}
