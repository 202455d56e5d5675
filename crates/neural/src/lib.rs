//! # ng-neural — neural graphics algorithm substrate
//!
//! This crate implements, from scratch, every algorithm the NGPC paper
//! ("Hardware Acceleration of Neural Graphics", ISCA 2023) builds on:
//!
//! * **Input encodings** ([`encoding`]): multiresolution *hashgrid*,
//!   *densegrid* and *tiled (low-resolution dense) grid* parametric
//!   encodings exactly as in instant-NGP (Müller et al. 2022), plus the
//!   fixed-function *frequency* and *spherical-harmonics* encodings and a
//!   *composite* combinator used by the NeRF color model.
//! * **Fully-fused-style MLPs** ([`mlp`]): small bias-free multi-layer
//!   perceptrons (2–4 hidden layers, 64 neurons) with forward, backward,
//!   Adam optimisation and the losses used for neural-graphics training.
//! * **The four applications** ([`apps`]): NeRF, NSDF, GIA and NVR with the
//!   exact hyper-parameters of Table I of the paper.
//! * **Images** ([`render`]): image buffers with quality metrics (PSNR,
//!   PPM output) and the paper's display resolutions. Ray generation,
//!   ray marching, compositing and sphere tracing stay on the GPU in the
//!   paper; `ng-gpu` models their time analytically.
//! * **Synthetic data** ([`data`]): procedural high-frequency images and
//!   analytic signed-distance fields that substitute for the paper's
//!   captured datasets.
//! * **Training** ([`train`]): a deterministic, seedable training loop.
//!
//! ## Quickstart
//!
//! Train a tiny gigapixel-image-approximation (GIA) model on a procedural
//! target and evaluate its reconstruction error:
//!
//! ```
//! use ng_neural::apps::{AppKind, EncodingKind};
//! use ng_neural::apps::gia::GiaModel;
//! use ng_neural::data::procedural::ProceduralImage;
//! use ng_neural::train::{TrainConfig, Trainer};
//!
//! let image = ProceduralImage::new(7);
//! let mut model = GiaModel::new(EncodingKind::MultiResHashGrid, 42);
//! let cfg = TrainConfig { steps: 50, batch_size: 256, ..TrainConfig::default() };
//! let stats = Trainer::new(cfg).train_gia(&mut model, &image);
//! assert!(stats.final_loss < stats.initial_loss);
//! ```

pub mod apps;
pub mod data;
pub mod encoding;
pub mod error;
pub mod math;
pub mod mlp;
pub mod render;
pub mod train;

pub use error::{NgError, Result};
