//! Oversampled W-kernel computation.
//!
//! The W-projection kernel for a given w (in wavelengths) is the Fourier
//! transform of the *gridding function*: the image-domain anti-aliasing
//! taper multiplied by the w phase screen,
//!
//! `K_w(Δu, Δv) = FT[ ψ(l)·ψ(m) · e^{2πi w n(l,m)} ](Δu, Δv)`
//!
//! (FT in the inverse/`e^{+2πi}` convention, matching the workspace's
//! image convention). It is evaluated numerically: sample the screen
//! across the field of view on a padded grid (padding = oversampling in
//! uv), FFT, shift, and slice one `N_W × N_W` tap table per sub-pixel
//! offset — the "oversampling factor of 8" of Sec. VI-E. Storage grows
//! as `(N_W·O)²` per w value, which is exactly the memory overhead the
//! paper's Fig. 16 discussion is about.

use idg_fft::{fftshift2d, Direction, Fft2d};
use idg_math::spheroidal_gridding_eta;
use idg_types::Cf64;

/// An oversampled W-kernel: per-sub-pixel tap tables.
#[derive(Clone, Debug)]
pub struct WKernel {
    /// Support in grid pixels (`N_W`).
    pub support: usize,
    /// Oversampling factor (`O`).
    pub oversampling: usize,
    /// w of this kernel, wavelengths.
    pub w_lambda: f64,
    /// Tap tables, layout `[sub_y][sub_x][dy][dx]`.
    taps: Vec<Cf64>,
}

impl WKernel {
    /// Compute the kernel for `w_lambda` with the given support and
    /// oversampling, for a field of view of `image_size` radians.
    pub fn compute(support: usize, oversampling: usize, w_lambda: f64, image_size: f64) -> Self {
        assert!(support >= 1 && oversampling >= 1);
        let pad = (2 * support).next_power_of_two().max(16);
        let size = pad * oversampling;

        // Sample the gridding function over the FoV on the *central*
        // pad×pad region; the rest is zero padding (=> uv oversampling).
        // Symmetric sampling (no half-pixel offset): the screen is an
        // even function, so the kernel comes out even and peak-centered;
        // the unpaired edge sample sits at η = −1 where the gridding
        // function vanishes.
        let mut screen = vec![Cf64::zero(); size * size];
        let start = (size - pad) / 2;
        for py in 0..pad {
            let eta_m = 2.0 * (py as f64 - pad as f64 / 2.0) / pad as f64;
            let m = eta_m * image_size / 2.0;
            for px in 0..pad {
                let eta_l = 2.0 * (px as f64 - pad as f64 / 2.0) / pad as f64;
                let l = eta_l * image_size / 2.0;
                let taper = spheroidal_gridding_eta(eta_l) * spheroidal_gridding_eta(eta_m);
                let r2 = l * l + m * m;
                let n = r2 / (1.0 + (1.0 - r2).sqrt());
                let phase = 2.0 * std::f64::consts::PI * w_lambda * n;
                let v = Cf64::from_phase(phase).scale(taper);
                screen[(start + py) * size + (start + px)] = v;
            }
        }

        // image → uv with the workspace's e^{+2πi} image convention
        idg_fft::ifftshift2d(&mut screen, size);
        let fft = Fft2d::<f64>::new(size);
        fft.process(&mut screen, Direction::Inverse);
        fftshift2d(&mut screen, size);

        // Slice per-sub-pixel tap tables. A visibility at fractional
        // offset f' ∈ [−½, ½) from its nearest pixel uses taps
        //   K((dy − S/2)·O − r),  r = round(f'·O) ∈ [−O/2, O/2),
        // all of which live well inside the padded evaluation grid.
        let o2 = oversampling as i64 / 2;
        let center = (size / 2) as i64;
        let mut taps = Vec::with_capacity(oversampling * oversampling * support * support);
        for sub_y in 0..oversampling as i64 {
            let ry = sub_y - o2;
            for sub_x in 0..oversampling as i64 {
                let rx = sub_x - o2;
                for dy in 0..support as i64 {
                    let iy = center + (dy - support as i64 / 2) * oversampling as i64 - ry;
                    for dx in 0..support as i64 {
                        let ix = center + (dx - support as i64 / 2) * oversampling as i64 - rx;
                        taps.push(screen[(iy as usize) * size + ix as usize]);
                    }
                }
            }
        }

        let mut kernel = Self {
            support,
            oversampling,
            w_lambda,
            taps,
        };

        // Normalize so the on-pixel tap table sums to exactly 1 (unit
        // flux transfer), removing the FFT scaling and any global phase.
        let norm = kernel.tap_sum(oversampling / 2, oversampling / 2);
        let inv = 1.0 / norm.abs().max(1e-300);
        let phase_fix = norm.conj().scale(inv);
        for v in &mut kernel.taps {
            *v = (*v * phase_fix).scale(inv);
        }
        kernel
    }

    /// Bytes of kernel storage (`(N_W·O)²` complex values).
    pub fn storage_bytes(&self) -> usize {
        self.taps.len() * std::mem::size_of::<Cf64>()
    }

    /// The tap multiplying grid cell `round(pos) − S/2 + (dy, dx)` for a
    /// visibility whose sub-pixel index is `(sub_y, sub_x)`
    /// (`sub = round(f'·O) + O/2`, `f' = pos − round(pos)`).
    #[inline]
    pub fn tap(&self, dy: usize, dx: usize, sub_y: usize, sub_x: usize) -> Cf64 {
        debug_assert!(dy < self.support && dx < self.support);
        debug_assert!(sub_y < self.oversampling && sub_x < self.oversampling);
        let s = self.support;
        self.taps[((sub_y * self.oversampling + sub_x) * s + dy) * s + dx]
    }

    /// Full `S × S` tap table of one sub-pixel offset.
    #[inline]
    pub fn tap_table(&self, sub_y: usize, sub_x: usize) -> &[Cf64] {
        let s2 = self.support * self.support;
        let base = (sub_y * self.oversampling + sub_x) * s2;
        &self.taps[base..base + s2]
    }

    /// Sum of taps for a given sub-pixel offset (≈1 for all offsets).
    fn tap_sum(&self, sub_y: usize, sub_x: usize) -> Cf64 {
        self.tap_table(sub_y, sub_x).iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_w_kernel_is_real_and_centered() {
        let k = WKernel::compute(8, 8, 0.0, 0.05);
        // the on-pixel comb's central tap dominates
        let center = k.tap(4, 4, 4, 4);
        for dy in 0..8 {
            for dx in 0..8 {
                let tap = k.tap(dy, dx, 4, 4);
                assert!(tap.abs() <= center.abs() + 1e-12);
            }
        }
        assert!(center.re > 0.0);
        assert!(center.im.abs() < 0.05 * center.re);
    }

    #[test]
    fn taps_sum_to_unity_at_all_subpixels() {
        let k = WKernel::compute(8, 4, 0.0, 0.05);
        for sy in 0..4 {
            for sx in 0..4 {
                let s = k.tap_sum(sy, sx);
                assert!((s.abs() - 1.0).abs() < 0.05, "tap sum at ({sy},{sx}) = {s}");
            }
        }
    }

    #[test]
    fn on_pixel_table_is_normalized_exactly() {
        let k = WKernel::compute(8, 8, 300.0, 0.05);
        let s = k.tap_sum(4, 4);
        assert!((s.re - 1.0).abs() < 1e-9 && s.im.abs() < 1e-9, "{s}");
    }

    #[test]
    fn nonzero_w_broadens_the_kernel() {
        let image_size = 0.1;
        let k0 = WKernel::compute(16, 4, 0.0, image_size);
        let kw = WKernel::compute(16, 4, 2000.0, image_size);
        let spread = |k: &WKernel| {
            let mut num = 0.0;
            let mut den = 0.0;
            for dy in 0..16 {
                for dx in 0..16 {
                    let t = k.tap(dy, dx, 2, 2).norm_sqr();
                    let r2 = (dy as f64 - 8.0).powi(2) + (dx as f64 - 8.0).powi(2);
                    num += t * r2;
                    den += t;
                }
            }
            num / den
        };
        assert!(
            spread(&kw) > 2.0 * spread(&k0),
            "w-kernel spread {} vs {}",
            spread(&kw),
            spread(&k0)
        );
    }

    #[test]
    fn storage_scales_quadratically_with_support_and_oversampling() {
        let a = WKernel::compute(4, 4, 0.0, 0.05);
        let b = WKernel::compute(8, 4, 0.0, 0.05);
        let c = WKernel::compute(4, 8, 0.0, 0.05);
        assert_eq!(b.storage_bytes(), 4 * a.storage_bytes());
        assert_eq!(c.storage_bytes(), 4 * a.storage_bytes());
    }

    #[test]
    fn w_symmetry_magnitudes() {
        // |K_{-w}| = |K_w|.
        let kp = WKernel::compute(8, 4, 500.0, 0.05);
        let km = WKernel::compute(8, 4, -500.0, 0.05);
        for dy in 0..8 {
            for dx in 0..8 {
                let a = kp.tap(dy, dx, 2, 2);
                let b = km.tap(dy, dx, 2, 2);
                assert!((a.abs() - b.abs()).abs() < 1e-6, "magnitude symmetry");
            }
        }
    }

    #[test]
    fn subpixel_tables_interpolate_smoothly() {
        // neighbouring sub-pixel tables must be similar (the comb moves
        // by 1/O pixel) — a sanity check on the slicing arithmetic.
        let k = WKernel::compute(8, 8, 0.0, 0.05);
        let mut max_jump = 0.0f64;
        for sub in 0..7 {
            let a = k.tap(4, 4, 4, sub);
            let b = k.tap(4, 4, 4, sub + 1);
            max_jump = max_jump.max((a - b).abs());
        }
        assert!(max_jump < 0.2, "tap discontinuity {max_jump}");
    }
}
