//! The GPU reference point for Fig. 15 normalisation.

/// Die-level reference data of the host GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReference {
    /// Die area in mm^2.
    pub die_area_mm2: f64,
    /// Board power in watts.
    pub tdp_watts: f64,
}

/// Nvidia RTX 3090 (GA102): 628.4 mm^2, 350 W — the paper's baseline.
pub const RTX3090: GpuReference = GpuReference { die_area_mm2: 628.4, tdp_watts: 350.0 };

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_datasheet() {
        assert_eq!(RTX3090.die_area_mm2, 628.4);
        assert_eq!(RTX3090.tdp_watts, 350.0);
    }
}
