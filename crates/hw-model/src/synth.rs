//! Gate-level area/power estimation at 45 nm — the Design Compiler
//! substitute.
//!
//! Each NFP module is assigned a NAND2-equivalent gate count based on
//! standard datapath composition (array multipliers, carry-lookahead
//! adders, flop-based FIFOs). Areas use the Nangate 45 nm open cell
//! library's NAND2X1 footprint; dynamic energy uses a per-gate switching
//! energy at nominal 1.1 V with a typical activity factor.

/// NAND2X1 cell area in the Nangate 45 nm open cell library (um^2).
pub const NAND2_AREA_UM2: f64 = 0.798;

/// Average switching energy per gate-toggle at 45 nm, 1.1 V (femtojoule).
pub const GATE_SWITCH_FJ: f64 = 3.0;

/// Typical datapath activity factor.
pub const ACTIVITY_FACTOR: f64 = 0.15;

/// Leakage power per kilo-gate at 45 nm (microwatt).
pub const LEAKAGE_UW_PER_KGATE: f64 = 9.0;

/// Datapath building blocks of the neural fields processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    /// fp16 multiply–accumulate unit (the MLP engine's PE).
    MacFp16,
    /// fp32 accumulator / adder.
    AdderFp32,
    /// 32-bit integer multiplier (hash primes).
    MulInt32,
    /// The `grid_index` hash unit: d integer multiplies + XOR tree + mask.
    HashUnit,
    /// The `grid_scale` stage: per-level scale computation.
    GridScale,
    /// The `pos_fract` stage: scale-multiply, floor, subtract per dim.
    PosFract,
    /// The `interpol_weights` stage: 2^d weight products + F MACs.
    InterpolWeights,
    /// Input FIFO (per entry of 96 bits, flop-based).
    FifoEntry96b,
    /// Control FSM + configuration registers of one engine.
    EngineControl,
}

impl Module {
    /// NAND2-equivalent gate count.
    pub fn gate_count(self) -> u64 {
        match self {
            // 11x11 mantissa array multiplier + alignment + 22b add.
            Module::MacFp16 => 1_100,
            Module::AdderFp32 => 320,
            Module::MulInt32 => 3_200,
            // 3 integer multiplies + xor tree + mask register.
            Module::HashUnit => 3 * 3_200 + 160 + 80,
            Module::GridScale => 1_400,
            // 3 x (multiply + floor + subtract).
            Module::PosFract => 3 * (3_200 + 150 + 320),
            // 8 weight products (3 muls each deep) + 2 feature MACs wide.
            Module::InterpolWeights => 8 * 2_200 + 16 * 1_100,
            Module::FifoEntry96b => 96 * 8,
            Module::EngineControl => 6_000,
        }
    }

    /// Area in mm^2 at 45 nm.
    pub fn area_mm2(self) -> f64 {
        self.gate_count() as f64 * NAND2_AREA_UM2 * 1e-6
    }

    /// Dynamic power in watts at `clock_ghz`, assuming the module is busy
    /// every cycle with the typical activity factor.
    pub fn dynamic_watts(self, clock_ghz: f64) -> f64 {
        self.gate_count() as f64 * GATE_SWITCH_FJ * 1e-15 * ACTIVITY_FACTOR * clock_ghz * 1e9
    }

    /// Leakage power in watts at 45 nm.
    pub fn leakage_watts(self) -> f64 {
        self.gate_count() as f64 / 1_000.0 * LEAKAGE_UW_PER_KGATE * 1e-6
    }
}

/// Aggregate area/power of a set of module instances.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynthEstimate {
    /// Total area in mm^2 (45 nm).
    pub area_mm2: f64,
    /// Total dynamic power in watts (45 nm, at the given clock).
    pub dynamic_watts: f64,
    /// Total leakage power in watts (45 nm).
    pub leakage_watts: f64,
}

impl SynthEstimate {
    /// Accumulate `count` instances of `module` at `clock_ghz`.
    pub fn add(&mut self, module: Module, count: u64, clock_ghz: f64) {
        self.area_mm2 += module.area_mm2() * count as f64;
        self.dynamic_watts += module.dynamic_watts(clock_ghz) * count as f64;
        self.leakage_watts += module.leakage_watts() * count as f64;
    }

    /// Total power (dynamic + leakage) in watts.
    pub fn total_watts(&self) -> f64 {
        self.dynamic_watts + self.leakage_watts
    }

    /// Apply an integration overhead factor (clock tree, NoC, glue).
    pub fn with_overhead(self, factor: f64) -> SynthEstimate {
        SynthEstimate {
            area_mm2: self.area_mm2 * factor,
            dynamic_watts: self.dynamic_watts * factor,
            leakage_watts: self.leakage_watts * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_area_is_sub_milli_mm2() {
        // ~1k gates x 0.8 um^2 ~ 0.0009 mm^2.
        let a = Module::MacFp16.area_mm2();
        assert!(a > 5e-4 && a < 2e-3, "{a}");
    }

    #[test]
    fn mac_array_64x64_is_a_few_mm2() {
        let mut est = SynthEstimate::default();
        est.add(Module::MacFp16, 64 * 64, 1.0);
        assert!(est.area_mm2 > 2.0 && est.area_mm2 < 6.0, "{}", est.area_mm2);
    }

    #[test]
    fn hash_unit_dominated_by_multipliers() {
        assert!(Module::HashUnit.gate_count() > 3 * Module::MulInt32.gate_count() * 9 / 10);
    }

    #[test]
    fn dynamic_power_scales_with_clock() {
        let p1 = Module::MacFp16.dynamic_watts(1.0);
        let p2 = Module::MacFp16.dynamic_watts(2.0);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_accumulates() {
        let mut est = SynthEstimate::default();
        est.add(Module::AdderFp32, 10, 1.0);
        let single = Module::AdderFp32.area_mm2();
        assert!((est.area_mm2 - 10.0 * single).abs() < 1e-12);
        assert!(est.total_watts() > 0.0);
    }

    #[test]
    fn overhead_scales_everything() {
        let mut est = SynthEstimate::default();
        est.add(Module::EngineControl, 1, 1.0);
        let with = est.with_overhead(1.2);
        assert!((with.area_mm2 / est.area_mm2 - 1.2).abs() < 1e-9);
        assert!((with.total_watts() / est.total_watts() - 1.2).abs() < 1e-9);
    }
}
