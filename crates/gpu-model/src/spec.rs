//! GPU hardware specification (the paper's baseline is an Nvidia RTX 3090
//! running CUDA 11.7).

/// Parameters of the modelled GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// FP32 FMA lanes per SM (CUDA cores / SM).
    pub fp32_lanes_per_sm: u32,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// Die area in mm^2 (used for Fig. 15 normalisation).
    pub die_area_mm2: f64,
    /// Board power in watts (used for Fig. 15 normalisation).
    pub tdp_watts: f64,
    /// Process node in nm (Samsung 8N for GA102).
    pub process_nm: f64,
    /// Kernel launch overhead in microseconds (driver + dispatch).
    pub launch_overhead_us: f64,
}

impl GpuSpec {
    /// Peak FP32 throughput in TFLOP/s (2 FLOPs per FMA).
    pub fn fp32_tflops(&self) -> f64 {
        self.sm_count as f64 * self.fp32_lanes_per_sm as f64 * self.clock_ghz * 2.0 / 1e3
    }

    /// Peak FP16 throughput in TFLOP/s; tiny-cuda-nn's fully-fused MLP
    /// uses tensor-core HMMA which GA102 runs at ~4x FP32 FMA rate.
    pub fn fp16_tensor_tflops(&self) -> f64 {
        self.fp32_tflops() * 4.0
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }
}

/// The paper's baseline GPU: Nvidia GeForce RTX 3090.
///
/// Numbers from the paper's reference \[1\] (TechPowerUp): 82 SMs, 1.695 GHz
/// boost, 128 FP32 lanes/SM, 6 MB L2, 936.2 GB/s GDDR6X, 628.4 mm^2 die,
/// 350 W.
pub fn rtx3090() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA GeForce RTX 3090".to_string(),
        sm_count: 82,
        clock_ghz: 1.695,
        fp32_lanes_per_sm: 128,
        l2_bytes: 6 * 1024 * 1024,
        dram_bw_gbps: 936.2,
        die_area_mm2: 628.4,
        tdp_watts: 350.0,
        process_nm: 8.0,
        launch_overhead_us: 5.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_peak_flops_matches_datasheet() {
        // Datasheet: 35.58 TFLOPS FP32.
        let gpu = rtx3090();
        assert!((gpu.fp32_tflops() - 35.58).abs() < 0.2, "{}", gpu.fp32_tflops());
    }

    #[test]
    fn rtx3090_bandwidth_is_papers_number() {
        // The paper quotes 936.2 GB/s in Section VI.
        assert_eq!(rtx3090().dram_bw_gbps, 936.2);
    }

    #[test]
    fn cycle_time_sub_nanosecond() {
        let gpu = rtx3090();
        assert!(gpu.cycle_ns() < 1.0 && gpu.cycle_ns() > 0.5);
    }
}
