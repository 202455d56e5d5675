//! Technology scaling from 45 nm to 7 nm, after Stillmaker & Baas,
//! "Scaling equations for the accurate prediction of CMOS device
//! performance from 180 nm to 7 nm", Integration 58 (2017) — the same
//! source the paper cites for its iso-technode comparison.

/// Cumulative scaling factors between two nodes (multiply a 45 nm
/// quantity by the factor to get its value at the target node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingFactors {
    /// Area multiplier (< 1 when shrinking).
    pub area: f64,
    /// Power multiplier at constant frequency and activity.
    pub power: f64,
    /// Gate-delay multiplier (< 1 means faster).
    pub delay: f64,
}

/// Stillmaker–Baas-derived cumulative factors from 45 nm to 7 nm.
///
/// Their fitted data gives ~17-21x area reduction and ~7-8x
/// energy-per-operation reduction over this span (dynamic power at fixed
/// frequency tracks energy); we use mid-range values.
pub const FACTORS_45_TO_7: ScalingFactors =
    ScalingFactors { area: 1.0 / 20.0, power: 0.138, delay: 0.42 };

/// Scale a 45 nm area (mm^2) to 7 nm.
pub fn area_45_to_7(area_mm2: f64) -> f64 {
    area_mm2 * FACTORS_45_TO_7.area
}

/// Scale 45 nm power (W, constant frequency) to 7 nm.
pub fn power_45_to_7(watts: f64) -> f64 {
    watts * FACTORS_45_TO_7.power
}

/// Scale a 45 nm delay (ns) to 7 nm.
pub fn delay_45_to_7(ns: f64) -> f64 {
    ns * FACTORS_45_TO_7.delay
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn area_shrinks_by_over_an_order_of_magnitude() {
        assert!(area_45_to_7(20.0) <= 1.0 + 1e-9);
        assert!(FACTORS_45_TO_7.area < 0.1 && FACTORS_45_TO_7.area > 0.02);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn power_reduction_in_published_range() {
        // S&B: roughly 6-9x energy/op reduction 45 -> 7 nm.
        let reduction = 1.0 / FACTORS_45_TO_7.power;
        assert!((6.0..=9.0).contains(&reduction), "{reduction}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn delay_improves_but_sublinearly() {
        assert!(FACTORS_45_TO_7.delay < 1.0);
        assert!(FACTORS_45_TO_7.delay > 0.2);
    }

    #[test]
    fn scaling_is_linear() {
        assert!((area_45_to_7(2.0) - 2.0 * area_45_to_7(1.0)).abs() < 1e-12);
        assert!((power_45_to_7(2.0) - 2.0 * power_45_to_7(1.0)).abs() < 1e-12);
    }
}
