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

impl NfpFloorplan {
    /// The paper's NFP (Fig. 9): 16 engines x 1 MB, 8-bank grid SRAM, one
    /// query lane each, a 64x64 MAC array with 128 KiB of weight and
    /// 32 KiB of activation SRAM, a 64-entry input FIFO, 1 GHz. The one
    /// declaration of the organisation: `ngpc::NfpConfig::PAPER` and the
    /// sweep's paper values derive from it.
    pub const PAPER: NfpFloorplan = NfpFloorplan {
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
    };
}

impl Default for NfpFloorplan {
    /// [`NfpFloorplan::PAPER`].
    fn default() -> Self {
        Self::PAPER
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

/// Area/power of one NFP: the part of the Fig. 15 rollup that depends
/// only on the floorplan. [`cluster_area_power`] scales it to a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfpBudget {
    /// Grid SRAM budget (45 nm).
    pub grid_srams: ComponentBudget,
    /// MLP engine budget (45 nm).
    pub mlp_engine: ComponentBudget,
    /// Encoding-engine datapath budget (45 nm).
    pub encoding_logic: ComponentBudget,
    /// NFP area at 45 nm (mm^2), including integration overhead.
    pub area_mm2_45: f64,
    /// NFP power at 45 nm (W), including integration overhead.
    pub watts_45: f64,
    /// NFP area at 7 nm (mm^2).
    pub area_mm2_7: f64,
    /// NFP power at 7 nm (W).
    pub watts_7: f64,
}

/// Full area/power report for an NGPC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerReport {
    /// NFP units in the cluster.
    pub nfp_units: u32,
    /// One NFP's budget.
    pub nfp: NfpBudget,
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

/// Synthesise one NFP's area/power budget from its floorplan: the
/// [`NfpBudget::combine`] of its three components.
pub fn nfp_budget(floorplan: &NfpFloorplan) -> NfpBudget {
    NfpBudget::combine(
        grid_srams_budget(floorplan),
        mlp_engine_budget(floorplan),
        encoding_logic_budget(floorplan),
    )
}

/// The grid SRAMs (CACTI-lite) of one NFP. Reads the clock, the grid
/// SRAM size and banks, the encoding engines and their lanes.
pub fn grid_srams_budget(floorplan: &NfpFloorplan) -> ComponentBudget {
    let clk = floorplan.clock_ghz;
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
    ComponentBudget {
        area_mm2_45: n_eng * grid.area_mm2,
        watts_45: grid_dynamic + n_eng * grid.leakage_watts,
    }
}

/// The MLP engine of one NFP: its MAC array and its weight and
/// activation SRAMs. Reads the clock, the MAC rows and columns and the
/// two SRAM sizes.
pub fn mlp_engine_budget(floorplan: &NfpFloorplan) -> ComponentBudget {
    let clk = floorplan.clock_ghz;
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
    ComponentBudget {
        area_mm2_45: mlp_synth.area_mm2 + wsram.area_mm2 + asram.area_mm2,
        watts_45: mlp_synth.dynamic_watts * MAC_UTILISATION
            + mlp_synth.leakage_watts
            + sram_access_w
            + wsram.leakage_watts
            + asram.leakage_watts,
    }
}

/// The encoding-engine datapaths of one NFP. Reads the clock, the
/// encoding engines, their lanes and the input FIFO depth.
pub fn encoding_logic_budget(floorplan: &NfpFloorplan) -> ComponentBudget {
    let clk = floorplan.clock_ghz;
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
    ComponentBudget { area_mm2_45: enc_synth.area_mm2, watts_45: enc_synth.total_watts() }
}

impl NfpBudget {
    /// One NFP's budget from its components: their sum with the
    /// integration overhead, and that scaled from 45 nm to 7 nm.
    pub fn combine(
        grid_srams: ComponentBudget,
        mlp_engine: ComponentBudget,
        encoding_logic: ComponentBudget,
    ) -> NfpBudget {
        let area_mm2_45 =
            (grid_srams.area_mm2_45 + mlp_engine.area_mm2_45 + encoding_logic.area_mm2_45)
                * INTEGRATION_OVERHEAD;
        let watts_45 = (grid_srams.watts_45 + mlp_engine.watts_45 + encoding_logic.watts_45)
            * INTEGRATION_OVERHEAD;
        NfpBudget {
            grid_srams,
            mlp_engine,
            encoding_logic,
            area_mm2_45,
            watts_45,
            area_mm2_7: area_45_to_7(area_mm2_45),
            watts_7: power_45_to_7(watts_45),
        }
    }
}

/// Scale one NFP's budget to a cluster of `nfp_units` and normalise it
/// against a GPU reference.
pub fn cluster_area_power(nfp: &NfpBudget, nfp_units: u32, gpu: GpuReference) -> AreaPowerReport {
    let (area_pct_of_gpu, power_pct_of_gpu) =
        cluster_pct_of_gpu(nfp.area_mm2_7, nfp.watts_7, nfp_units, gpu);
    AreaPowerReport {
        nfp_units,
        nfp: *nfp,
        cluster_area_mm2_7: cluster(nfp.area_mm2_7, nfp_units),
        cluster_watts_7: cluster(nfp.watts_7, nfp_units),
        area_pct_of_gpu,
        power_pct_of_gpu,
    }
}

/// The area and power of a cluster of `nfp_units` NFPs, each of
/// `area_mm2_7` and `watts_7` at 7 nm, as percentages of a GPU
/// reference's die area and TDP: the one implementation of the
/// percentages, which [`cluster_area_power`] and a sweep's scorer both
/// call.
pub fn cluster_pct_of_gpu(
    area_mm2_7: f64,
    watts_7: f64,
    nfp_units: u32,
    gpu: GpuReference,
) -> (f64, f64) {
    (
        100.0 * cluster(area_mm2_7, nfp_units) / gpu.die_area_mm2,
        100.0 * cluster(watts_7, nfp_units) / gpu.tdp_watts,
    )
}

/// One NFP's area or power scaled to a cluster of `nfp_units`.
fn cluster(per_nfp: f64, nfp_units: u32) -> f64 {
    per_nfp * nfp_units as f64
}

/// Estimate the Fig. 15 area/power of an NGPC with `nfp_units` NFPs
/// against a GPU reference: [`nfp_budget`] scaled by
/// [`cluster_area_power`].
pub fn ngpc_area_power_vs(
    floorplan: &NfpFloorplan,
    nfp_units: u32,
    gpu: GpuReference,
) -> AreaPowerReport {
    cluster_area_power(&nfp_budget(floorplan), nfp_units, gpu)
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
        assert!(r.nfp.grid_srams.area_mm2_45 > r.nfp.mlp_engine.area_mm2_45);
        assert!(r.nfp.grid_srams.area_mm2_45 > r.nfp.encoding_logic.area_mm2_45);
        assert!(r.nfp.grid_srams.area_mm2_45 / (r.nfp.area_mm2_45 / INTEGRATION_OVERHEAD) > 0.6);
    }

    #[test]
    fn seven_nm_nfp_is_a_few_mm2() {
        let r = ngpc_area_power(8);
        assert!(r.nfp.area_mm2_7 > 1.0 && r.nfp.area_mm2_7 < 8.0, "{}", r.nfp.area_mm2_7);
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

    /// Every field of a budget, as bits.
    fn bits(b: &NfpBudget) -> Vec<u64> {
        [b.grid_srams, b.mlp_engine, b.encoding_logic]
            .iter()
            .flat_map(|c| [c.area_mm2_45, c.watts_45])
            .chain([b.area_mm2_45, b.watts_45, b.area_mm2_7, b.watts_7])
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn nfp_budget_is_the_combine_of_its_components() {
        let base = NfpFloorplan::default();
        // Every combination of two or three values per field.
        for mut k in 0..3 * 2 * 2 * 2 * 2 * 3 * 2 {
            let mut pick = |n: usize| {
                let i = k % n;
                k /= n;
                i
            };
            let (mac_rows, mac_cols) = [(16, 64), (64, 64), (128, 32)][pick(3)];
            let macs = (mac_rows * mac_cols) as u64;
            let fp = NfpFloorplan {
                clock_ghz: [0.5, 1.0, 1.7][pick(3)],
                grid_sram_bytes: [256 << 10, 1 << 20][pick(2)],
                grid_sram_banks: [1, 8][pick(2)],
                encoding_engines: [8, 16][pick(2)],
                lanes_per_engine: [1, 3][pick(2)],
                mac_rows,
                mac_cols,
                weight_sram_bytes: 32 * macs,
                activation_sram_bytes: 8 * macs,
                input_fifo_depth: [16, 64][pick(2)],
            };
            let combined = NfpBudget::combine(
                grid_srams_budget(&fp),
                mlp_engine_budget(&fp),
                encoding_logic_budget(&fp),
            );
            assert_eq!(bits(&nfp_budget(&fp)), bits(&combined), "{fp:?}");
            // Each component reads only the fields its doc names:
            // resetting the others to the default floorplan's moves no
            // bit of it.
            let grid_only = NfpFloorplan {
                clock_ghz: fp.clock_ghz,
                grid_sram_bytes: fp.grid_sram_bytes,
                grid_sram_banks: fp.grid_sram_banks,
                encoding_engines: fp.encoding_engines,
                lanes_per_engine: fp.lanes_per_engine,
                ..base
            };
            let mlp_only = NfpFloorplan {
                clock_ghz: fp.clock_ghz,
                mac_rows,
                mac_cols,
                weight_sram_bytes: fp.weight_sram_bytes,
                activation_sram_bytes: fp.activation_sram_bytes,
                ..base
            };
            let encoding_only = NfpFloorplan {
                clock_ghz: fp.clock_ghz,
                encoding_engines: fp.encoding_engines,
                lanes_per_engine: fp.lanes_per_engine,
                input_fifo_depth: fp.input_fifo_depth,
                ..base
            };
            let component_bits = |c: ComponentBudget| [c.area_mm2_45, c.watts_45].map(f64::to_bits);
            assert_eq!(
                component_bits(grid_srams_budget(&grid_only)),
                component_bits(combined.grid_srams)
            );
            assert_eq!(
                component_bits(mlp_engine_budget(&mlp_only)),
                component_bits(combined.mlp_engine)
            );
            assert_eq!(
                component_bits(encoding_logic_budget(&encoding_only)),
                component_bits(combined.encoding_logic)
            );
        }
    }

    #[test]
    fn custom_floorplan_reduces_area() {
        let small = NfpFloorplan { grid_sram_bytes: 512 * 1024, ..NfpFloorplan::default() };
        let r_small = ngpc_area_power_vs(&small, 8, RTX3090);
        let r_full = ngpc_area_power(8);
        assert!(r_small.area_pct_of_gpu < r_full.area_pct_of_gpu);
    }
}
