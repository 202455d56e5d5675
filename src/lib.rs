//! # neural-graphics-hw
//!
//! A full reproduction of *"Hardware Acceleration of Neural Graphics"*
//! (Mubarik, Kanungo, Zirr, Kumar — ISCA 2023) as a Rust workspace:
//!
//! * [`neural`] (`ng-neural`) — the neural-graphics software substrate:
//!   instant-NGP-style multiresolution grid encodings, fully-fused-style
//!   MLPs, the four applications (NeRF, NSDF, GIA, NVR), training, image
//!   metrics and synthetic targets.
//! * [`gpu`] (`ng-gpu`) — the analytical RTX 3090 performance model that
//!   substitutes for the paper's Nsight profiling.
//! * [`ngpc`] — the paper's contribution: the Neural Fields Processor
//!   (fused input-encoding + MLP engines), the NGPC cluster, the
//!   programming model and the evaluation emulator.
//! * [`hw`] (`ng-hw`) — area/power substrate (Design Compiler / CACTI /
//!   Stillmaker–Baas substitutes).
//! * [`timeloop`] (`ng-timeloop`) — Timeloop/Accelergy-lite used to
//!   cross-validate the MLP engine.
//! * [`dse`] (`ng-dse`) — parallel design-space exploration over NGPC
//!   configurations with Pareto frontier extraction (the `dse` binary).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured numbers of every table and
//! figure.
//!
//! ```
//! use neural_graphics_hw::prelude::*;
//!
//! // How much faster is NeRF with a 64-NFP cluster?
//! let r = emulate(&EmulatorInput {
//!     app: AppKind::Nerf,
//!     nfp_units: 64,
//!     ..EmulatorInput::default()
//! });
//! assert!(r.speedup > 35.0);
//! ```

pub use ng_dse as dse;
pub use ng_gpu as gpu;
pub use ng_hw as hw;
pub use ng_neural as neural;
pub use ng_timeloop as timeloop;
pub use ngpc;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use ng_dse::{Constraints, SweepEngine, SweepSpec};
    pub use ng_gpu::{frame_time_ms, kernel_breakdown, rtx3090};
    pub use ng_neural::apps::{AppKind, EncodingKind};
    pub use ng_neural::math::Vec3;
    pub use ng_neural::train::{TrainConfig, Trainer};
    pub use ngpc::emulator::{emulate, EmulationResult, EmulatorInput};
    pub use ngpc::{NfpConfig, NgpcConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let r = emulate(&EmulatorInput::default());
        assert!(r.speedup > 1.0);
        assert!(frame_time_ms(AppKind::Gia, EncodingKind::MultiResHashGrid, 1920 * 1080) > 0.0);
    }
}
