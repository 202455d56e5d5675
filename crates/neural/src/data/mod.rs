//! Synthetic targets substituting for the paper's captured datasets.
//!
//! The paper evaluates on real scenes (NeRF captures, gigapixel
//! photographs, SDF meshes). Those are not redistributable, so this module
//! provides *analytic* ground truths with the same statistical character —
//! high-frequency content a plain MLP cannot fit but a grid-encoded model
//! can: procedural images ([`procedural`]) and exact signed-distance
//! fields ([`sdf`]). Because the targets are analytic, reconstruction
//! error can be measured exactly anywhere, which the test-suite uses
//! heavily.

pub mod procedural;
pub mod sdf;

pub use procedural::ProceduralImage;
pub use sdf::{Csg, SdfShape};
