//! Convolutional (W-projection) gridding and degridding.
//!
//! The classic scatter/gather pair IDG replaces: every visibility is
//! convolved onto the grid with its W-kernel (gridding) or predicted as
//! the kernel-weighted sum of grid cells (degridding). The parallel
//! gridder follows the standard CPU strategy of per-thread partial grids
//! merged afterwards (scatter conflicts otherwise need atomics — the
//! problem Romein's GPU work-distribution strategy \[19\] addresses).

use crate::wkernel::WKernel;
use idg_types::{Cf32, Grid, Visibility, NR_POLARIZATIONS};
use rayon::prelude::*;

/// One input sample for the W-projection kernels: uv in *wavelengths*
/// plus the 4-polarization visibility.
#[derive(Copy, Clone, Debug)]
pub struct WpgSample {
    /// u in wavelengths.
    pub u: f64,
    /// v in wavelengths.
    pub v: f64,
    /// w in wavelengths.
    pub w: f64,
    /// The visibility.
    pub vis: Visibility<f32>,
}

/// A set of W-kernels indexed by |w| plane.
#[derive(Clone, Debug)]
pub struct WKernelCache {
    kernels: Vec<WKernel>,
    /// w distance between adjacent kernels, wavelengths.
    pub w_step: f64,
}

impl WKernelCache {
    /// Precompute kernels for w-planes `0, ±w_step, …` up to `w_max`.
    /// Negative w uses the conjugate of the |w| kernel.
    pub fn build(
        support: usize,
        oversampling: usize,
        w_step: f64,
        w_max: f64,
        image_size: f64,
    ) -> Self {
        assert!(w_step > 0.0);
        let nr_planes = (w_max / w_step).ceil() as usize + 1;
        let kernels = (0..nr_planes)
            .into_par_iter()
            .map(|i| WKernel::compute(support, oversampling, i as f64 * w_step, image_size))
            .collect();
        Self { kernels, w_step }
    }

    /// The kernel for a given w; `(kernel, conjugate?)`.
    fn lookup(&self, w: f64) -> (&WKernel, bool) {
        let idx = ((w.abs() / self.w_step).round() as usize).min(self.kernels.len() - 1);
        (&self.kernels[idx], w < 0.0)
    }

    /// Number of stored planes.
    pub fn nr_planes(&self) -> usize {
        self.kernels.len()
    }

    /// Total storage of all kernels, bytes.
    pub fn storage_bytes(&self) -> usize {
        self.kernels.iter().map(|k| k.storage_bytes()).sum()
    }
}

/// Map a uv coordinate (wavelengths) to `(base_cell, sub_pixel)` for a
/// kernel of the given support/oversampling; `None` when the stamp falls
/// off the grid.
#[inline]
fn locate(
    uv: f64,
    image_size: f64,
    grid_size: usize,
    support: usize,
    oversampling: usize,
) -> Option<(usize, usize)> {
    let pos = uv * image_size + grid_size as f64 / 2.0;
    let nearest = pos.round();
    let frac = pos - nearest; // [−0.5, 0.5)
    let r = (frac * oversampling as f64).round() as i64;
    let o2 = oversampling as i64 / 2;
    let sub = (r + o2).clamp(0, oversampling as i64 - 1) as usize;
    let base = nearest as i64 - support as i64 / 2;
    if base < 0 || base + support as i64 > grid_size as i64 {
        return None;
    }
    Some((base as usize, sub))
}

/// Grid all samples onto `grid` (parallel, per-thread partial grids).
/// Returns the number of samples skipped as out of range.
pub fn wpg_grid(
    grid: &mut Grid<f32>,
    samples: &[WpgSample],
    kernels: &WKernelCache,
    image_size: f64,
) -> usize {
    let gsize = grid.size();
    let support = kernels.kernels[0].support;
    let oversampling = kernels.kernels[0].oversampling;

    let nr_threads = rayon::current_num_threads().max(1);
    let chunk = samples.len().div_ceil(nr_threads).max(1);

    let partials: Vec<(Grid<f32>, usize)> = samples
        .par_chunks(chunk)
        .map(|chunk_samples| {
            let mut partial = Grid::<f32>::new(gsize);
            let mut skipped = 0usize;
            for s in chunk_samples {
                let Some((bx, sub_x)) = locate(s.u, image_size, gsize, support, oversampling)
                else {
                    skipped += 1;
                    continue;
                };
                let Some((by, sub_y)) = locate(s.v, image_size, gsize, support, oversampling)
                else {
                    skipped += 1;
                    continue;
                };
                let (kernel, conj) = kernels.lookup(s.w);
                let table = kernel.tap_table(sub_y, sub_x);
                for dy in 0..support {
                    for dx in 0..support {
                        let t64 = table[dy * support + dx];
                        let t64 = if conj { t64.conj() } else { t64 };
                        let tap = Cf32::new(t64.re as f32, t64.im as f32);
                        for pol in 0..NR_POLARIZATIONS {
                            *partial.at_mut(pol, by + dy, bx + dx) += tap * s.vis.pols[pol];
                        }
                    }
                }
            }
            (partial, skipped)
        })
        .collect();

    let mut skipped = 0usize;
    for (partial, sk) in partials {
        grid.accumulate(&partial);
        skipped += sk;
    }
    skipped
}

/// Degrid (predict) all samples from `grid` (parallel, read-only).
/// Out-of-range samples predict zero.
pub fn wpg_degrid(
    grid: &Grid<f32>,
    samples: &mut [WpgSample],
    kernels: &WKernelCache,
    image_size: f64,
) {
    let gsize = grid.size();
    let support = kernels.kernels[0].support;
    let oversampling = kernels.kernels[0].oversampling;

    samples.par_iter_mut().for_each(|s| {
        let located = locate(s.u, image_size, gsize, support, oversampling).zip(locate(
            s.v,
            image_size,
            gsize,
            support,
            oversampling,
        ));
        let Some(((bx, sub_x), (by, sub_y))) = located else {
            s.vis = Visibility::zero();
            return;
        };
        // degridding uses the conjugate kernel (the adjoint of gridding)
        let (kernel, conj) = kernels.lookup(s.w);
        let table = kernel.tap_table(sub_y, sub_x);
        let mut acc = [Cf32::zero(); 4];
        for dy in 0..support {
            for dx in 0..support {
                let t64 = table[dy * support + dx];
                let t64 = if conj { t64 } else { t64.conj() };
                let tap = Cf32::new(t64.re as f32, t64.im as f32);
                for pol in 0..NR_POLARIZATIONS {
                    acc[pol].mul_acc(tap, grid.at(pol, by + dy, bx + dx));
                }
            }
        }
        s.vis = Visibility { pols: acc };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_fft::{fftshift2d, Direction, Fft2d};

    fn cache(support: usize) -> WKernelCache {
        WKernelCache::build(support, 8, 100.0, 400.0, 0.05)
    }

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

    /// pixel ↔ uv helper matching `locate`'s convention.
    fn pixel_to_uv(pix: f64, image_size: f64, grid_size: usize) -> f64 {
        (pix - grid_size as f64 / 2.0) / image_size
    }

    #[test]
    fn on_pixel_sample_sums_to_unit_flux() {
        let kernels = cache(8);
        let image_size = 0.05;
        let mut grid = Grid::<f32>::new(128);
        let u = pixel_to_uv(70.0, image_size, 128);
        let v = pixel_to_uv(45.0, image_size, 128);
        let skipped = wpg_grid(&mut grid, &[unit_sample(u, v, 0.0)], &kernels, image_size);
        assert_eq!(skipped, 0);
        // flux conservation: taps sum to 1
        let total: Cf32 = grid.plane(0).iter().copied().sum();
        assert!((total.re - 1.0).abs() < 1e-3, "total {total}");
        assert!(total.im.abs() < 1e-3);
        // energy concentrated at the stamp center (the 2-D spheroidal
        // gridding kernel spreads over ~3 px; its central tap carries
        // ≈15 % of the unit flux)
        let peak = grid.at(0, 45, 70);
        assert!(peak.abs() > 0.1, "peak {peak}");
        for y in 40..50 {
            for x in 65..75 {
                assert!(grid.at(0, y, x).abs() <= peak.abs() + 1e-6);
            }
        }
        // nothing outside the stamp
        assert_eq!(grid.at(0, 45, 90), Cf32::zero());
    }

    #[test]
    fn out_of_range_sample_is_skipped() {
        let kernels = cache(8);
        let mut grid = Grid::<f32>::new(64);
        let far = unit_sample(1e6, 0.0, 0.0);
        let skipped = wpg_grid(&mut grid, &[far], &kernels, 0.05);
        assert_eq!(skipped, 1);
        assert_eq!(grid.power(), 0.0);
    }

    #[test]
    fn grid_degrid_round_trip_on_pixel() {
        // grid one on-pixel visibility, degrid at the same position:
        // recovers Σ|tap|² ≈ the kernel's autocorrelation peak; with a
        // *smooth* grid (single vis → its own stamp) we instead verify
        // via a constant grid below. Here: degridding a unit-impulse
        // grid cell returns the central tap.
        let kernels = cache(8);
        let image_size = 0.05;
        let mut grid = Grid::<f32>::new(128);
        *grid.at_mut(0, 45, 70) = Cf32::new(1.0, 0.0);
        let u = pixel_to_uv(70.0, image_size, 128);
        let v = pixel_to_uv(45.0, image_size, 128);
        let mut samples = [unit_sample(u, v, 0.0)];
        wpg_degrid(&grid, &mut samples, &kernels, image_size);
        let got = samples[0].vis.pols[0];
        let center = kernels.lookup(0.0).0.tap(4, 4, 4, 4);
        assert!(
            (got.re as f64 - center.re).abs() < 1e-3 && (got.im as f64).abs() < 1e-3,
            "got {got}, center tap {center}"
        );
    }

    #[test]
    fn degridding_constant_grid_returns_tap_sum() {
        // A locally constant grid degrids to ≈ grid value × Σ conj(taps)
        // ≈ grid value (taps normalized to unit sum).
        let kernels = cache(8);
        let image_size = 0.05;
        let mut grid = Grid::<f32>::new(128);
        for y in 0..128 {
            for x in 0..128 {
                *grid.at_mut(0, y, x) = Cf32::new(0.7, -0.2);
            }
        }
        let u = pixel_to_uv(64.3, image_size, 128);
        let v = pixel_to_uv(60.8, image_size, 128);
        let mut samples = [unit_sample(u, v, 0.0)];
        wpg_degrid(&grid, &mut samples, &kernels, image_size);
        let got = samples[0].vis.pols[0];
        assert!((got.re - 0.7).abs() < 0.05, "{got}");
        assert!((got.im + 0.2).abs() < 0.05, "{got}");
    }

    #[test]
    fn dirty_image_of_center_source_peaks_at_center() {
        // Visibilities of a unit source at the phase center are all 1;
        // gridding them and inverse-FFT'ing must peak at the image
        // center regardless of per-sample w (w-correction works).
        let kernels = cache(8);
        let image_size = 0.05;
        let gsize = 128usize;
        let mut grid = Grid::<f32>::new(gsize);
        let mut samples = Vec::new();
        for i in 0..200 {
            let ang = i as f64 * 0.21;
            let r = 150.0 + 2.5 * i as f64; // stays within the 128² grid
            samples.push(unit_sample(
                r * ang.cos(),
                r * ang.sin(),
                (i % 5) as f64 * 80.0,
            ));
        }
        let skipped = wpg_grid(&mut grid, &samples, &kernels, image_size);
        assert_eq!(skipped, 0);

        // image = shifted inverse FFT of the grid plane
        let mut plane: Vec<Cf32> = grid.plane(0).to_vec();
        idg_fft::ifftshift2d(&mut plane, gsize);
        let fft = Fft2d::<f32>::new(gsize);
        fft.process(&mut plane, Direction::Inverse);
        fftshift2d(&mut plane, gsize);

        let mut best = (0usize, 0usize, 0.0f32);
        for y in 0..gsize {
            for x in 0..gsize {
                let a = plane[y * gsize + x].abs();
                if a > best.2 {
                    best = (x, y, a);
                }
            }
        }
        assert_eq!(
            (best.0, best.1),
            (gsize / 2, gsize / 2),
            "dirty image peak at {best:?}"
        );
    }

    #[test]
    fn parallel_grid_matches_well_against_two_chunk_split() {
        // determinism across thread counts is not guaranteed bit-exact
        // (f32 merge order), but the result must be very close.
        let kernels = cache(4);
        let image_size = 0.05;
        let samples: Vec<WpgSample> = (0..500)
            .map(|i| {
                let ang = i as f64 * 0.37;
                unit_sample(600.0 * ang.cos(), 600.0 * ang.sin(), 0.0)
            })
            .collect();
        let mut g1 = Grid::<f32>::new(128);
        wpg_grid(&mut g1, &samples, &kernels, image_size);
        let mut g2 = Grid::<f32>::new(128);
        for chunk in samples.chunks(100) {
            wpg_grid(&mut g2, chunk, &kernels, image_size);
        }
        let scale = g1
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((*a - *b).abs() / scale < 1e-4);
        }
    }

    #[test]
    fn cache_lookup_and_storage() {
        let kernels = cache(8);
        assert_eq!(kernels.nr_planes(), 5);
        let (k0, c0) = kernels.lookup(0.0);
        assert_eq!(k0.w_lambda, 0.0);
        assert!(!c0);
        let (k2, c2) = kernels.lookup(-210.0);
        assert_eq!(k2.w_lambda, 200.0);
        assert!(c2);
        // beyond range clamps to the last plane
        let (kmax, _) = kernels.lookup(10_000.0);
        assert_eq!(kmax.w_lambda, 400.0);
        assert!(kernels.storage_bytes() > 0);
    }
}
