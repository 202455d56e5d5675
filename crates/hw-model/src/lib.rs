//! # ng-hw — hardware area/power substrate
//!
//! The paper estimates NGPC area and power by synthesising NFP RTL with
//! Synopsys Design Compiler against the Nangate 45 nm open cell library,
//! modelling SRAMs with CACTI, and scaling the result to 7 nm with the
//! Stillmaker–Baas equations. This crate substitutes each tool:
//!
//! * [`synth`] — gate-count-based module area/power at 45 nm (the
//!   Design-Compiler substitute),
//! * [`cacti`] — an analytic SRAM area/energy/leakage model fitted to
//!   published CACTI 6.5 data points (the CACTI substitute),
//! * [`scaling`] — 45 nm → 7 nm technology scaling factors in the range
//!   published by Stillmaker & Baas (2017),
//! * [`gpu_ref`] — the RTX 3090 die area/power used for normalisation,
//! * [`report`] — the Fig. 15 rollup: NGPC area/power relative to the
//!   GPU for scaling factors 8/16/32/64, from one NFP's grid-SRAM,
//!   MLP-engine and encoding-logic budgets.

pub mod cacti;
pub mod gpu_ref;
pub mod report;
pub mod scaling;
pub mod synth;

pub use report::{
    cluster_area_power, encoding_logic_budget, grid_srams_budget, mlp_engine_budget, nfp_budget,
    ngpc_area_power, ngpc_area_power_vs, AreaPowerReport, ComponentBudget, NfpBudget, NfpFloorplan,
};
