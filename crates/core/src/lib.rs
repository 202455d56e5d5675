//! # ngpc — the Neural Graphics Processing Cluster
//!
//! This crate implements the paper's contribution: the **Neural Fields
//! Processor (NFP)** — an input-encoding engine fused with an MLP engine
//! (paper Fig. 9) — the **NGPC** cluster of N NFPs attached to a GPU
//! (Fig. 10), and the **evaluation emulator** (Fig. 11) that estimates
//! end-to-end application performance, area and power.
//!
//! Hardware components are modelled at two levels simultaneously:
//!
//! * **Functional** — bit-exact behaviour validated against the
//!   `ng-neural` reference implementation (the shift/mask modulo of the
//!   `grid_index` module is exact because table sizes are powers of two).
//! * **Timing/energy** — cycle accounting per module, SRAM bank conflict
//!   modelling, and pipeline composition, feeding the emulator.
//!
//! ## Quickstart
//!
//! ```
//! use ngpc::emulator::{emulate, EmulatorInput};
//! use ng_neural::apps::{AppKind, EncodingKind};
//!
//! let result = emulate(&EmulatorInput {
//!     app: AppKind::Nerf,
//!     encoding: EncodingKind::MultiResHashGrid,
//!     pixels: 1920 * 1080,
//!     nfp_units: 64,
//!     ..EmulatorInput::default()
//! });
//! assert!(result.speedup > 30.0);
//! assert!(result.speedup <= result.amdahl_bound + 1e-9);
//! ```

pub mod bandwidth;
pub mod cluster;
pub mod config;
pub mod emulator;
pub mod engine;
pub mod error;
pub mod kernels;
pub mod pixels;
pub mod sched;

pub use config::{NfpConfig, NgpcConfig};
pub use emulator::{
    bank_conflict_factor, calibrated_residual, compose, cross_app_mean, emulate, emulate_batched,
    encoding_query_cycles, fused_query_cycles, mac_engine_factor, mlp_layer_shapes,
    mlp_query_cycles, paper_sample_cycles, per_sample_cycles, sram_capacity_factor,
    EmulationContext, EmulationResult, EmulatorInput, GpuBaseline, SlopeFactors, REFERENCE_GPU,
};
pub use error::{NgpcError, Result};
