//! W-stacking: bounding the W-kernel support with multiple grid copies.
//!
//! W-projection alone needs kernels whose support grows with the w-range
//! (up to 500×500 pixels for LOFAR, Sec. VI-E). W-stacking trades that
//! for memory: visibilities are partitioned over `P` w-planes, each
//! plane is gridded with kernels covering only the *residual* w around
//! its plane center (so `N_W` stays small), and after the per-plane
//! inverse FFT each image is multiplied by the plane's phase screen
//! `e^{+2πi w_p n(l,m)}` before summation.

use crate::gridder::{wpg_grid, WKernelCache, WpgSample};
use idg_types::{Cf32, Grid};

/// A W-stacking gridder: per-plane grids plus residual-w kernels.
pub struct WStack {
    /// Plane spacing in wavelengths.
    pub plane_step: f64,
    /// Per-plane grids, index `p` covering `w ≈ (p − P/2)·plane_step`.
    planes: Vec<Grid<f32>>,
    /// Center w of each plane, wavelengths.
    centers: Vec<f64>,
    /// Residual-w kernels (small support).
    kernels: WKernelCache,
    image_size: f64,
    skipped: usize,
}

impl WStack {
    /// Create a stack of `nr_planes` grids of `grid_size` pixels
    /// covering `w ∈ [−w_max, w_max]`, with residual kernels of
    /// `support` pixels.
    pub fn new(
        nr_planes: usize,
        grid_size: usize,
        w_max: f64,
        support: usize,
        oversampling: usize,
        image_size: f64,
    ) -> Self {
        assert!(nr_planes >= 1);
        let plane_step = if nr_planes > 1 {
            2.0 * w_max / (nr_planes as f64 - 1.0)
        } else {
            2.0 * w_max
        };
        let centers: Vec<f64> = (0..nr_planes)
            .map(|p| -w_max + p as f64 * plane_step)
            .collect();
        // residual |w| ≤ plane_step/2 ⇒ small kernels suffice
        let kernels = WKernelCache::build(
            support,
            oversampling,
            (plane_step / 4.0).max(1.0),
            plane_step / 2.0 + 1.0,
            image_size,
        );
        Self {
            plane_step,
            planes: (0..nr_planes).map(|_| Grid::new(grid_size)).collect(),
            centers,
            kernels,
            image_size,
            skipped: 0,
        }
    }

    /// Number of w-planes.
    pub fn nr_planes(&self) -> usize {
        self.planes.len()
    }

    /// The plane index for a w value.
    pub fn plane_of(&self, w: f64) -> usize {
        if self.planes.len() == 1 {
            return 0;
        }
        let p = ((w - self.centers[0]) / self.plane_step).round();
        (p.max(0.0) as usize).min(self.planes.len() - 1)
    }

    /// Memory held by the plane grids, bytes — the cost W-stacking pays
    /// ("which can be prohibitively memory consuming for high-resolution
    /// images", Sec. VI-E).
    pub fn plane_storage_bytes(&self) -> usize {
        self.planes
            .iter()
            .map(|g| 4 * g.size() * g.size() * std::mem::size_of::<Cf32>())
            .sum()
    }

    /// Grid a batch of samples: each goes to its plane with the residual
    /// w left to the small convolution kernel.
    pub fn grid(&mut self, samples: &[WpgSample]) {
        // bucket per plane (scatter); per-plane gridding is parallel
        let mut buckets: Vec<Vec<WpgSample>> = vec![Vec::new(); self.planes.len()];
        for s in samples {
            let p = self.plane_of(s.w);
            let mut residual = *s;
            residual.w = s.w - self.centers[p];
            buckets[p].push(residual);
        }
        for (p, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                self.skipped +=
                    wpg_grid(&mut self.planes[p], &bucket, &self.kernels, self.image_size);
            }
        }
    }

    /// Samples dropped as out of range so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Produce the combined *image-domain* result: per-plane inverse
    /// FFT, per-plane w screen, sum. Returns the polarization-0 image
    /// (row-major `grid_size²`).
    pub fn image(&self) -> Vec<Cf32> {
        use idg_fft::{fftshift2d, ifftshift2d, Direction, Fft2d};
        let gsize = self.planes[0].size();
        let fft = Fft2d::<f32>::new(gsize);
        let mut out = vec![Cf32::zero(); gsize * gsize];
        for (p, grid) in self.planes.iter().enumerate() {
            let mut plane: Vec<Cf32> = grid.plane(0).to_vec();
            ifftshift2d(&mut plane, gsize);
            fft.process_grid(&mut plane, Direction::Inverse);
            fftshift2d(&mut plane, gsize);
            let w_p = self.centers[p];
            for y in 0..gsize {
                let m = (y as f64 + 0.5 - gsize as f64 / 2.0) * self.image_size / gsize as f64;
                for x in 0..gsize {
                    let l = (x as f64 + 0.5 - gsize as f64 / 2.0) * self.image_size / gsize as f64;
                    let r2 = l * l + m * m;
                    let n = r2 / (1.0 + (1.0 - r2).sqrt());
                    let phase = 2.0 * std::f64::consts::PI * w_p * n;
                    let screen = Cf32::new(phase.cos() as f32, phase.sin() as f32);
                    out[y * gsize + x] += plane[y * gsize + x] * screen;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_types::Visibility;

    fn unit_sample(u: f64, v: f64, w: f64) -> WpgSample {
        let one = Cf32::new(1.0, 0.0);
        WpgSample {
            u,
            v,
            w,
            vis: Visibility {
                pols: [one, Cf32::zero(), Cf32::zero(), one],
            },
        }
    }

    #[test]
    fn plane_assignment_covers_range() {
        let stack = WStack::new(5, 64, 1000.0, 4, 4, 0.05);
        assert_eq!(stack.nr_planes(), 5);
        assert_eq!(stack.plane_of(-1000.0), 0);
        assert_eq!(stack.plane_of(0.0), 2);
        assert_eq!(stack.plane_of(1000.0), 4);
        assert_eq!(stack.plane_of(1e9), 4, "clamps above");
        assert_eq!(stack.plane_of(-1e9), 0, "clamps below");
    }

    #[test]
    fn storage_scales_with_planes() {
        let a = WStack::new(2, 64, 500.0, 4, 4, 0.05);
        let b = WStack::new(8, 64, 500.0, 4, 4, 0.05);
        assert_eq!(b.plane_storage_bytes(), 4 * a.plane_storage_bytes());
    }

    #[test]
    fn center_source_with_large_w_range_images_correctly() {
        // Visibilities of a center source are 1 for any w; a 3-plane
        // stack with small kernels must still peak at the center.
        let mut stack = WStack::new(3, 128, 600.0, 8, 8, 0.05);
        let samples: Vec<WpgSample> = (0..240)
            .map(|i| {
                let ang = i as f64 * 0.26;
                let r = 200.0 + 3.0 * i as f64; // max ~917λ → pixel 110
                unit_sample(r * ang.cos(), r * ang.sin(), -600.0 + 5.0 * i as f64)
            })
            .collect();
        stack.grid(&samples);
        assert_eq!(stack.skipped(), 0);

        let image = stack.image();
        let gsize = 128;
        let mut best = (0usize, 0usize, 0.0f32);
        for y in 0..gsize {
            for x in 0..gsize {
                let a = image[y * gsize + x].abs();
                if a > best.2 {
                    best = (x, y, a);
                }
            }
        }
        assert_eq!((best.0, best.1), (64, 64), "peak at {best:?}");
    }
}
