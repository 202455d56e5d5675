//! CACTI-lite: analytic SRAM area, access energy and leakage at 45 nm.
//!
//! The coefficients are fitted to published CACTI 6.5 outputs for 45 nm
//! ITRS-HP single-bank SRAMs in the 32 KiB – 4 MiB range: area grows
//! slightly super-linearly with capacity (peripheral overhead), access
//! energy grows roughly with the square root of capacity (bitline/wordline
//! length), and leakage is proportional to capacity.

/// An SRAM macro description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Read/write port word width in bits.
    pub word_bits: u32,
    /// Number of banks (parallel access ports).
    pub banks: u32,
}

/// CACTI-style estimate for one SRAM macro at 45 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramEstimate {
    /// Area in mm^2.
    pub area_mm2: f64,
    /// Energy per access in picojoules.
    pub access_energy_pj: f64,
    /// Leakage power in watts.
    pub leakage_watts: f64,
    /// Random access time in nanoseconds.
    pub access_time_ns: f64,
}

/// Effective area per bit at 45 nm including peripheral circuitry, for a
/// 1 MiB macro (mm^2 per megabyte).
const AREA_MM2_PER_MB: f64 = 2.8;
/// Capacity exponent for area (peripheral amortisation).
const AREA_EXPONENT: f64 = 0.96;
/// Access energy of a 32-bit read from a 1 MiB macro (pJ).
const ENERGY_PJ_1MB_32B: f64 = 40.0;
/// Capacity exponent for access energy.
const ENERGY_EXPONENT: f64 = 0.45;
/// Leakage per megabyte at 45 nm (watts).
const LEAKAGE_W_PER_MB: f64 = 0.28;
/// Access time of a 1 MiB macro at 45 nm (ns).
const ACCESS_NS_1MB: f64 = 1.8;

/// Estimate an SRAM macro. Banking divides the effective capacity per
/// bank for energy/latency purposes but adds a 3 % area overhead per
/// extra bank.
pub fn estimate(sram: SramMacro) -> SramEstimate {
    let mb = sram.capacity_bytes as f64 / (1024.0 * 1024.0);
    let banks = sram.banks.max(1) as f64;
    let bank_mb = mb / banks;
    let area = AREA_MM2_PER_MB * mb.powf(AREA_EXPONENT) * (1.0 + 0.03 * (banks - 1.0));
    let energy = ENERGY_PJ_1MB_32B
        * bank_mb.max(1.0 / 1024.0).powf(ENERGY_EXPONENT)
        * (sram.word_bits as f64 / 32.0);
    let leakage = LEAKAGE_W_PER_MB * mb;
    let access = ACCESS_NS_1MB * bank_mb.max(1.0 / 1024.0).powf(0.4);
    SramEstimate {
        area_mm2: area,
        access_energy_pj: energy,
        leakage_watts: leakage,
        access_time_ns: access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macro_of(kb: u64) -> SramMacro {
        SramMacro { capacity_bytes: kb * 1024, word_bits: 32, banks: 1 }
    }

    #[test]
    fn one_mb_is_a_few_mm2_at_45nm() {
        let e = estimate(macro_of(1024));
        assert!(e.area_mm2 > 2.0 && e.area_mm2 < 5.0, "{}", e.area_mm2);
    }

    #[test]
    fn area_scales_superlinearly_downward() {
        // Half the capacity should cost a bit more than half the area.
        let full = estimate(macro_of(1024)).area_mm2;
        let half = estimate(macro_of(512)).area_mm2;
        assert!(half > full * 0.5 * 0.98);
        assert!(half < full * 0.62);
    }

    #[test]
    fn energy_grows_with_capacity() {
        assert!(
            estimate(macro_of(2048)).access_energy_pj > estimate(macro_of(256)).access_energy_pj
        );
    }

    #[test]
    fn wider_words_cost_more_energy() {
        let narrow = estimate(SramMacro { capacity_bytes: 1 << 20, word_bits: 32, banks: 1 });
        let wide = estimate(SramMacro { capacity_bytes: 1 << 20, word_bits: 128, banks: 1 });
        assert!((wide.access_energy_pj / narrow.access_energy_pj - 4.0).abs() < 1e-6);
    }

    #[test]
    fn banking_reduces_latency_but_adds_area() {
        let flat = estimate(SramMacro { capacity_bytes: 1 << 20, word_bits: 32, banks: 1 });
        let banked = estimate(SramMacro { capacity_bytes: 1 << 20, word_bits: 32, banks: 8 });
        assert!(banked.access_time_ns < flat.access_time_ns);
        assert!(banked.area_mm2 > flat.area_mm2);
    }

    #[test]
    fn leakage_proportional_to_capacity() {
        let a = estimate(macro_of(1024)).leakage_watts;
        let b = estimate(macro_of(2048)).leakage_watts;
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sub_2ns_access_for_small_arrays() {
        // The NFP grid SRAM must serve a lookup per cycle at ~1 GHz; small
        // banks make that possible.
        let banked = estimate(SramMacro { capacity_bytes: 1 << 20, word_bits: 32, banks: 8 });
        assert!(banked.access_time_ns < 1.5, "{}", banked.access_time_ns);
    }
}
