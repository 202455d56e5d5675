//! # ng-gpu — GPU baseline performance model
//!
//! The NGPC paper profiles the four neural-graphics applications on an
//! RTX 3090 with Nsight Compute and feeds the resulting *kernel-level
//! breakdown* into its evaluation emulator (paper Fig. 11). This crate is
//! the substitute for that profiling step: it models the GPU and the
//! workloads analytically and reproduces the published breakdowns.
//!
//! Two layers:
//!
//! * a **first-principles layer** ([`workload`], [`cache`], [`cost`]):
//!   operation and byte counts derived from the exact Table I
//!   configurations, an L2 capacity model, and a roofline timing model.
//!   This layer predicts *which* kernels dominate and why (encoding is
//!   memory-bound, the tiny MLPs are traffic-bound), and is validated by
//!   tests against the paper's qualitative findings.
//! * a **calibrated layer** ([`calibrate`]): the per-application kernel
//!   time fractions and FHD frame times anchored to every number the
//!   paper publishes (231 ms / 27.87 ms / 2.12 ms / 6.32 ms frame times,
//!   the 72.37 / 60.0 / 59.96 % encoding+MLP averages, the 55.50x /
//!   6.68x / 1.51x 4k@60 gaps). The `ngpc` emulator consumes this layer,
//!   exactly as the paper's emulator consumes measured profiles.

pub mod cache;
pub mod calibrate;
pub mod cost;
pub mod gap;
pub mod ops;
pub mod profile;
pub mod spec;
pub mod workload;

pub use calibrate::{frame_time_ms, kernel_breakdown, KernelBreakdown};
pub use spec::{rtx3090, GpuSpec};
pub use workload::FrameWorkload;
