//! Image buffers with quality metrics, and the paper's display
//! resolutions.

pub mod image;

pub use image::ImageBuffer;
