//! # ng-timeloop — Timeloop/Accelergy-lite
//!
//! The paper cross-validates its MLP-engine performance model with
//! Timeloop (loop-nest mapping search) and Accelergy (per-component
//! energy), reporting agreement within ~7 % (the "mlp imp TA" lines of
//! Fig. 13). This crate is a from-scratch miniature of that flow:
//!
//! * [`problem`] — GEMM workload descriptions (the MLP layers),
//! * [`arch`] — the PE-array + buffer hierarchy being mapped onto,
//! * [`mapping`] — a loop-nest mapping (spatial/temporal tiling +
//!   dataflow),
//! * [`mapper`] — exhaustive search over valid mappings,
//! * [`energy`] — Accelergy-style per-access energy accounting,
//! * [`model`] — end-to-end evaluation of an MLP on the array, the
//!   numbers compared against the `ngpc` MLP engine.

pub mod arch;
pub mod energy;
pub mod mapper;
pub mod mapping;
pub mod model;
pub mod problem;

pub use arch::PeArray;
pub use energy::EnergyTable;
pub use mapper::{best_mapping, SearchResult};
pub use mapping::{Dataflow, Mapping, MappingCost};
pub use model::{evaluate_mlp, MlpEvaluation};
pub use problem::Gemm;

/// The mapping problem one MLP layer of shape `(rows, cols)` poses on
/// one NFP configuration: the layer's GEMM over `batch` queries plus
/// the PE array the NFP's MLP engine presents — the constructor the
/// root crate's Fig. 13 agreement test builds its per-layer searches
/// from.
///
/// # Panics
///
/// Panics if `batch`, `rows` or `cols` is zero.
pub fn layer_problem(
    nfp: &ngpc::NfpConfig,
    rows: usize,
    cols: usize,
    batch: u64,
) -> (Gemm, PeArray) {
    (Gemm::from_layer(batch, rows, cols), PeArray::from_nfp(nfp))
}
