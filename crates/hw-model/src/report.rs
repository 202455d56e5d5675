//! The Fig. 15 rollup: NGPC area and power relative to the RTX 3090.

use crate::cacti::{estimate as sram_estimate, SramMacro};
use crate::gpu_ref::{GpuReference, RTX3090};
use crate::scaling::{area_45_to_7, power_45_to_7};
use crate::synth::{Module, SynthEstimate};

/// Physical composition of one neural fields processor (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfpFloorplan {
    /// Input-encoding engines per NFP (16, matching the maximum level
    /// count).
    pub encoding_engines: u32,
    /// Query lanes per encoding engine: parallel corner-fetch pipelines
    /// sharing the engine's grid SRAM (1 in the paper).
    pub lanes_per_engine: u32,
    /// Grid SRAM per encoding engine in bytes (1 MB in the paper).
    pub grid_sram_bytes: u64,
    /// Banks per grid SRAM (supports one lookup per corner per cycle).
    pub grid_sram_banks: u32,
    /// MAC array rows (64).
    pub mac_rows: u32,
    /// MAC array columns (64).
    pub mac_cols: u32,
    /// MLP weight SRAM in bytes.
    pub weight_sram_bytes: u64,
    /// MLP intermediate-activation SRAM in bytes.
    pub activation_sram_bytes: u64,
    /// Input FIFO depth (entries of 96 bits: one 3D position).
    pub input_fifo_depth: u32,
    /// Operating clock in GHz.
    pub clock_ghz: f64,
}

impl Default for NfpFloorplan {
    /// The paper's NFP: 16 engines x 1 MB grid SRAM, 64x64 MACs, 1 GHz.
    fn default() -> Self {
        NfpFloorplan {
            encoding_engines: 16,
            lanes_per_engine: 1,
            grid_sram_bytes: 1 << 20,
            grid_sram_banks: 8,
            mac_rows: 64,
            mac_cols: 64,
            weight_sram_bytes: 128 * 1024,
            activation_sram_bytes: 32 * 1024,
            input_fifo_depth: 64,
            clock_ghz: 1.0,
        }
    }
}

/// Area/power of one component group, at 45 nm and scaled to 7 nm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentBudget {
    /// Area at 45 nm (mm^2).
    pub area_mm2_45: f64,
    /// Power at 45 nm (W).
    pub watts_45: f64,
}

/// Full area/power report for an NGPC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerReport {
    /// NFP units in the cluster.
    pub nfp_units: u32,
    /// Grid SRAM budget (per NFP, 45 nm).
    pub grid_srams: ComponentBudget,
    /// MLP engine budget (per NFP, 45 nm).
    pub mlp_engine: ComponentBudget,
    /// Encoding-engine datapath budget (per NFP, 45 nm).
    pub encoding_logic: ComponentBudget,
    /// One NFP total at 45 nm (mm^2, W), including integration overhead.
    pub nfp_area_mm2_45: f64,
    /// One NFP total power at 45 nm (W).
    pub nfp_watts_45: f64,
    /// One NFP at 7 nm.
    pub nfp_area_mm2_7: f64,
    /// One NFP power at 7 nm.
    pub nfp_watts_7: f64,
    /// Whole-cluster area at 7 nm.
    pub cluster_area_mm2_7: f64,
    /// Whole-cluster power at 7 nm.
    pub cluster_watts_7: f64,
    /// Cluster area as a percentage of the GPU die.
    pub area_pct_of_gpu: f64,
    /// Cluster power as a percentage of GPU TDP.
    pub power_pct_of_gpu: f64,
}

/// Clock-tree / NoC / integration overhead applied to synthesised logic
/// and memories.
const INTEGRATION_OVERHEAD: f64 = 1.15;

/// Fraction of cycles the MAC array toggles (pipeline bubbles between
/// layers and batches).
const MAC_UTILISATION: f64 = 0.9;

/// Grid-SRAM read accesses per engine per cycle (corner fetch rate).
const SRAM_READS_PER_CYCLE: f64 = 2.0;

/// Estimate the Fig. 15 area/power of an NGPC with `nfp_units` NFPs
/// against a GPU reference.
pub fn ngpc_area_power_vs(
    floorplan: &NfpFloorplan,
    nfp_units: u32,
    gpu: GpuReference,
) -> AreaPowerReport {
    let clk = floorplan.clock_ghz;

    // --- Grid SRAMs (CACTI-lite) ---
    let grid = sram_estimate(SramMacro {
        capacity_bytes: floorplan.grid_sram_bytes,
        word_bits: 32,
        banks: floorplan.grid_sram_banks,
    });
    let n_eng = floorplan.encoding_engines as f64;
    // Every extra query lane adds a concurrent corner-fetch stream into
    // the (shared) grid SRAM.
    let lanes = floorplan.lanes_per_engine.max(1) as f64;
    let grid_dynamic =
        n_eng * lanes * SRAM_READS_PER_CYCLE * clk * 1e9 * grid.access_energy_pj * 1e-12;
    let grid_srams = ComponentBudget {
        area_mm2_45: n_eng * grid.area_mm2,
        watts_45: grid_dynamic + n_eng * grid.leakage_watts,
    };

    // --- MLP engine: MAC array + weight/activation SRAMs ---
    let mut mlp_synth = SynthEstimate::default();
    let macs = (floorplan.mac_rows * floorplan.mac_cols) as u64;
    mlp_synth.add(Module::MacFp16, macs, clk);
    mlp_synth.add(Module::AdderFp32, floorplan.mac_rows as u64, clk);
    let wsram = sram_estimate(SramMacro {
        capacity_bytes: floorplan.weight_sram_bytes,
        word_bits: 128,
        banks: 4,
    });
    let asram = sram_estimate(SramMacro {
        capacity_bytes: floorplan.activation_sram_bytes,
        word_bits: 128,
        banks: 2,
    });
    let sram_access_w = (wsram.access_energy_pj + asram.access_energy_pj) * 1e-12 * clk * 1e9;
    let mlp_engine = ComponentBudget {
        area_mm2_45: mlp_synth.area_mm2 + wsram.area_mm2 + asram.area_mm2,
        watts_45: mlp_synth.dynamic_watts * MAC_UTILISATION
            + mlp_synth.leakage_watts
            + sram_access_w
            + wsram.leakage_watts
            + asram.leakage_watts,
    };

    // --- Encoding-engine datapaths ---
    let mut enc_synth = SynthEstimate::default();
    let n = floorplan.encoding_engines as u64;
    // The corner-fetch pipeline is replicated per query lane; control
    // and the input FIFO are shared by an engine's lanes.
    let n_lanes = n * floorplan.lanes_per_engine.max(1) as u64;
    enc_synth.add(Module::HashUnit, n_lanes, clk);
    enc_synth.add(Module::GridScale, n_lanes, clk);
    enc_synth.add(Module::PosFract, n_lanes, clk);
    enc_synth.add(Module::InterpolWeights, n_lanes, clk);
    enc_synth.add(Module::EngineControl, n, clk);
    enc_synth.add(Module::FifoEntry96b, n * floorplan.input_fifo_depth as u64, clk);
    let encoding_logic =
        ComponentBudget { area_mm2_45: enc_synth.area_mm2, watts_45: enc_synth.total_watts() };

    let nfp_area_mm2_45 =
        (grid_srams.area_mm2_45 + mlp_engine.area_mm2_45 + encoding_logic.area_mm2_45)
            * INTEGRATION_OVERHEAD;
    let nfp_watts_45 = (grid_srams.watts_45 + mlp_engine.watts_45 + encoding_logic.watts_45)
        * INTEGRATION_OVERHEAD;

    let nfp_area_mm2_7 = area_45_to_7(nfp_area_mm2_45);
    let nfp_watts_7 = power_45_to_7(nfp_watts_45);
    let cluster_area_mm2_7 = nfp_area_mm2_7 * nfp_units as f64;
    let cluster_watts_7 = nfp_watts_7 * nfp_units as f64;

    AreaPowerReport {
        nfp_units,
        grid_srams,
        mlp_engine,
        encoding_logic,
        nfp_area_mm2_45,
        nfp_watts_45,
        nfp_area_mm2_7,
        nfp_watts_7,
        cluster_area_mm2_7,
        cluster_watts_7,
        area_pct_of_gpu: 100.0 * cluster_area_mm2_7 / gpu.die_area_mm2,
        power_pct_of_gpu: 100.0 * cluster_watts_7 / gpu.tdp_watts,
    }
}

/// [`ngpc_area_power_vs`] against the RTX 3090 with the default NFP.
pub fn ngpc_area_power(nfp_units: u32) -> AreaPowerReport {
    ngpc_area_power_vs(&NfpFloorplan::default(), nfp_units, RTX3090)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_area_percentages_track_paper() {
        // Paper: NGPC-8/16/32/64 add ~4.52 / 9.04 / 18.01 / 36.18 % area.
        let targets = [(8u32, 4.52f64), (16, 9.04), (32, 18.01), (64, 36.18)];
        for (n, pct) in targets {
            let r = ngpc_area_power(n);
            assert!(
                (r.area_pct_of_gpu - pct).abs() < pct * 0.06,
                "NGPC-{n}: model {:.2}% vs paper {pct}%",
                r.area_pct_of_gpu
            );
        }
    }

    #[test]
    fn fig15_power_percentages_track_paper() {
        // Paper: ~2.75 / 5.51 / 11.03 / 22.06 % power.
        let targets = [(8u32, 2.75f64), (16, 5.51), (32, 11.03), (64, 22.06)];
        for (n, pct) in targets {
            let r = ngpc_area_power(n);
            assert!(
                (r.power_pct_of_gpu - pct).abs() < pct * 0.06,
                "NGPC-{n}: model {:.2}% vs paper {pct}%",
                r.power_pct_of_gpu
            );
        }
    }

    #[test]
    fn area_and_power_scale_linearly_in_nfp_count() {
        let a = ngpc_area_power(8);
        let b = ngpc_area_power(16);
        assert!((b.area_pct_of_gpu / a.area_pct_of_gpu - 2.0).abs() < 1e-9);
        assert!((b.power_pct_of_gpu / a.power_pct_of_gpu - 2.0).abs() < 1e-9);
    }

    #[test]
    fn grid_srams_dominate_nfp_area() {
        // 16 MB of SRAM dwarfs the datapaths — the architectural reason
        // the paper sizes the SRAM to exactly one level's table.
        let r = ngpc_area_power(8);
        assert!(r.grid_srams.area_mm2_45 > r.mlp_engine.area_mm2_45);
        assert!(r.grid_srams.area_mm2_45 > r.encoding_logic.area_mm2_45);
        assert!(r.grid_srams.area_mm2_45 / (r.nfp_area_mm2_45 / INTEGRATION_OVERHEAD) > 0.6);
    }

    #[test]
    fn seven_nm_nfp_is_a_few_mm2() {
        let r = ngpc_area_power(8);
        assert!(r.nfp_area_mm2_7 > 1.0 && r.nfp_area_mm2_7 < 8.0, "{}", r.nfp_area_mm2_7);
    }

    #[test]
    fn extra_lanes_cost_area_and_power_but_single_lane_is_free() {
        // lanes = 1 is the paper's NFP: the lane axis must not perturb
        // the published Fig. 15 numbers at its default...
        let r_default = ngpc_area_power(8);
        let r_one = ngpc_area_power_vs(
            &NfpFloorplan { lanes_per_engine: 1, ..NfpFloorplan::default() },
            8,
            RTX3090,
        );
        assert_eq!(r_default, r_one);
        // ... while every extra lane replicates the corner-fetch
        // datapath and adds SRAM read pressure.
        let r_four = ngpc_area_power_vs(
            &NfpFloorplan { lanes_per_engine: 4, ..NfpFloorplan::default() },
            8,
            RTX3090,
        );
        assert!(r_four.area_pct_of_gpu > r_one.area_pct_of_gpu);
        assert!(r_four.power_pct_of_gpu > r_one.power_pct_of_gpu);
        // Lanes replicate datapath only, not the dominant grid SRAMs:
        // the area premium is real but small.
        assert!(r_four.area_pct_of_gpu < r_one.area_pct_of_gpu * 1.25);
    }

    #[test]
    fn custom_floorplan_reduces_area() {
        let small = NfpFloorplan { grid_sram_bytes: 512 * 1024, ..NfpFloorplan::default() };
        let r_small = ngpc_area_power_vs(&small, 8, RTX3090);
        let r_full = ngpc_area_power(8);
        assert!(r_small.area_pct_of_gpu < r_full.area_pct_of_gpu);
    }
}
