//! Image buffers, quality metrics (MSE/PSNR) and PPM output.

use std::io::Write as _;
use std::path::Path;

use crate::error::{NgError, Result};
use crate::math::Vec3;

/// Frame resolutions referenced throughout the paper (Fig. 14's horizontal
/// lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// 1280 x 720.
    Hd,
    /// 1920 x 1080 ("FHD", the profiling resolution of Fig. 5).
    Fhd,
    /// 2560 x 1440.
    Qhd,
    /// 3840 x 2160 (the paper's "4k Ultra HD"; its Fig. 14 text prints 3820).
    Uhd4k,
    /// 5120 x 2880.
    FiveK,
    /// 7680 x 4320.
    Uhd8k,
}

impl Resolution {
    /// All resolutions, smallest to largest.
    pub const ALL: [Resolution; 6] = [
        Resolution::Hd,
        Resolution::Fhd,
        Resolution::Qhd,
        Resolution::Uhd4k,
        Resolution::FiveK,
        Resolution::Uhd8k,
    ];

    /// `(width, height)` in pixels.
    pub const fn dims(self) -> (usize, usize) {
        match self {
            Resolution::Hd => (1280, 720),
            Resolution::Fhd => (1920, 1080),
            Resolution::Qhd => (2560, 1440),
            Resolution::Uhd4k => (3840, 2160),
            Resolution::FiveK => (5120, 2880),
            Resolution::Uhd8k => (7680, 4320),
        }
    }

    /// Total pixel count.
    pub const fn pixels(self) -> u64 {
        let (w, h) = self.dims();
        (w * h) as u64
    }

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Hd => "HD",
            Resolution::Fhd => "FHD",
            Resolution::Qhd => "QHD/2k",
            Resolution::Uhd4k => "4k UHD",
            Resolution::FiveK => "5k",
            Resolution::Uhd8k => "8k UHD",
        }
    }
}

/// A row-major RGB float image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageBuffer {
    width: usize,
    height: usize,
    pixels: Vec<Vec3>,
}

impl ImageBuffer {
    /// A black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        ImageBuffer { width, height, pixels: vec![Vec3::ZERO; width * height] }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> Vec3 {
        assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Set a pixel.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set_pixel(&mut self, x: usize, y: usize, c: Vec3) {
        assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = c;
    }

    /// Fill each pixel from a closure over normalized coordinates
    /// (`u` right, `v` down, both in `[0,1)` at pixel centers).
    pub fn fill_from<F>(&mut self, mut f: F)
    where
        F: FnMut(f32, f32) -> Vec3,
    {
        for y in 0..self.height {
            let v = (y as f32 + 0.5) / self.height as f32;
            for x in 0..self.width {
                let u = (x as f32 + 0.5) / self.width as f32;
                self.pixels[y * self.width + x] = f(u, v);
            }
        }
    }

    /// Mean squared error against another image of the same size.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn mse(&self, other: &ImageBuffer) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let mut acc = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&other.pixels) {
            let d = *a - *b;
            acc += (d.x * d.x + d.y * d.y + d.z * d.z) as f64;
        }
        acc / (3.0 * self.pixels.len() as f64)
    }

    /// Peak signal-to-noise ratio in dB against a reference (peak 1.0).
    /// Returns `f64::INFINITY` for identical images.
    pub fn psnr(&self, reference: &ImageBuffer) -> f64 {
        let mse = self.mse(reference);
        if mse <= 0.0 {
            f64::INFINITY
        } else {
            10.0 * (1.0 / mse).log10()
        }
    }

    /// Write as a binary PPM (P6) file.
    ///
    /// # Errors
    ///
    /// Returns [`NgError::Io`] on filesystem errors.
    pub fn write_ppm(&self, path: &Path) -> Result<()> {
        let file = std::fs::File::create(path).map_err(NgError::from)?;
        let mut w = std::io::BufWriter::new(file);
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width * 3);
        for y in 0..self.height {
            row.clear();
            for x in 0..self.width {
                let c = self.pixels[y * self.width + x];
                for ch in [c.x, c.y, c.z] {
                    row.push((ch.clamp(0.0, 1.0) * 255.0).round() as u8);
                }
            }
            w.write_all(&row)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Render as coarse ASCII art (for terminal demos): one character per
    /// `cell` x `cell` pixel block, darker pixels map to denser glyphs.
    pub fn to_ascii(&self, cell: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let cell = cell.max(1);
        let mut out = String::new();
        let mut y = 0;
        while y < self.height {
            let mut x = 0;
            while x < self.width {
                let mut lum = 0.0f32;
                let mut n = 0;
                for yy in y..(y + cell).min(self.height) {
                    for xx in x..(x + cell).min(self.width) {
                        let c = self.pixels[yy * self.width + xx];
                        lum += 0.2126 * c.x + 0.7152 * c.y + 0.0722 * c.z;
                        n += 1;
                    }
                }
                lum /= n as f32;
                let idx = ((lum.clamp(0.0, 1.0)) * (RAMP.len() - 1) as f32).round() as usize;
                out.push(RAMP[idx] as char);
                x += cell;
            }
            out.push('\n');
            y += cell;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolutions_match_paper() {
        assert_eq!(Resolution::Fhd.pixels(), 1920 * 1080);
        assert_eq!(Resolution::Uhd4k.pixels(), 3840 * 2160);
        assert_eq!(Resolution::Uhd8k.pixels(), 7680 * 4320);
    }

    #[test]
    fn identical_images_have_infinite_psnr() {
        let mut a = ImageBuffer::new(8, 8);
        a.fill_from(|u, v| Vec3::new(u, v, 0.5));
        let b = a.clone();
        assert_eq!(a.psnr(&b), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let mut a = ImageBuffer::new(16, 16);
        a.fill_from(|u, v| Vec3::new(u, v, 0.5));
        let mut slightly = a.clone();
        let mut very = a.clone();
        for y in 0..16 {
            for x in 0..16 {
                let p = a.pixel(x, y);
                slightly.set_pixel(x, y, p + Vec3::splat(0.01));
                very.set_pixel(x, y, p + Vec3::splat(0.2));
            }
        }
        assert!(a.psnr(&slightly) > a.psnr(&very));
        assert!((a.psnr(&slightly) - 40.0).abs() < 0.5); // 20*log10(1/0.01)
    }

    #[test]
    fn fill_from_uses_pixel_centers() {
        let mut img = ImageBuffer::new(2, 2);
        img.fill_from(|u, v| Vec3::new(u, v, 0.0));
        assert!((img.pixel(0, 0).x - 0.25).abs() < 1e-6);
        assert!((img.pixel(1, 1).x - 0.75).abs() < 1e-6);
    }

    #[test]
    fn ppm_round_trip_header() {
        let dir = std::env::temp_dir().join("ng_neural_test_ppm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.ppm");
        let mut img = ImageBuffer::new(4, 3);
        img.fill_from(|u, v| Vec3::new(u, v, 1.0));
        img.write_ppm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(bytes.len(), "P6\n4 3\n255\n".len() + 4 * 3 * 3);
    }

    #[test]
    fn ascii_has_rows() {
        let mut img = ImageBuffer::new(8, 8);
        img.fill_from(|u, _| Vec3::splat(u));
        let art = img.to_ascii(2);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.len() == 4));
    }
}
