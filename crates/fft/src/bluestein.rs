//! Bluestein's chirp-z algorithm for arbitrary transform lengths.
//!
//! Sizes with prime factors larger than 5 (not used by the paper's
//! benchmark configuration, but allowed by the public API — e.g. a user
//! choosing a 1022-pixel grid) are handled by re-expressing the DFT as a
//! convolution of chirp sequences, evaluated with a power-of-two FFT:
//!
//! `X[k] = w*[k] · IFFT( FFT(w·x) ⊙ B )[k]`, `w[j] = e^{−iπ j²/N}`,
//! where `B` is the precomputed FFT of the conjugate chirp.

use crate::plan::{Direction, FftPlan};
use idg_types::{Complex, Float};

/// Precomputed Bluestein plan for one length.
pub struct BluesteinPlan<T> {
    n: usize,
    /// Power-of-two convolution length ≥ 2n − 1.
    m: usize,
    /// Chirp `w[j] = e^{−iπ j²/n}`, j ∈ [0, n).
    chirp: Vec<Complex<T>>,
    /// FFT of the zero-padded conjugate chirp, pre-scaled by `1/m` so the
    /// inverse convolution FFT can skip its scaling pass.
    b_fft: Vec<Complex<T>>,
    /// Inner power-of-two plan of length `m`.
    inner: FftPlan<T>,
}

fn next_pow2(mut v: usize) -> usize {
    let mut p = 1;
    while p < v {
        p <<= 1;
    }
    let _ = &mut v;
    p
}

impl<T: Float> BluesteinPlan<T> {
    /// Build a Bluestein plan for length `n ≥ 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        let m = next_pow2(2 * n - 1);
        // w[j] = e^{−iπ j²/n}; compute j² mod 2n to keep angles small.
        let chirp: Vec<Complex<T>> = (0..n)
            .map(|j| {
                let idx = (j * j) % (2 * n);
                let theta = -std::f64::consts::PI * idx as f64 / n as f64;
                Complex::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()))
            })
            .collect();

        let inner = FftPlan::<T>::new(m);
        debug_assert!(!inner.is_bluestein(), "inner plan must be power-of-two");

        // b[j] = conj(w[j]) for j in 0..n, mirrored at m−j; zero elsewhere.
        let mut b = vec![Complex::<T>::zero(); m];
        for (j, w) in chirp.iter().enumerate() {
            b[j] = w.conj();
            if j != 0 {
                b[m - j] = w.conj();
            }
        }
        inner.forward(&mut b);
        let inv_m = T::ONE / T::from_usize(m);
        for v in &mut b {
            *v = v.scale(inv_m);
        }

        Self {
            n,
            m,
            chirp,
            b_fft: b,
            inner,
        }
    }

    /// Scratch length required by [`Self::forward`], per lane.
    pub fn scratch_len(&self) -> usize {
        // one m-length work buffer + the inner plan's scratch
        self.m + self.inner.scratch_len()
    }

    /// Forward transform, unscaled, of `lanes` interleaved sequences of
    /// length `n` (`data[j·lanes + x]`, as [`FftPlan::process_lanes`]):
    /// the chirp and the point-wise products act on each lane alone and
    /// the two convolution FFTs are lane-interleaved Stockham transforms.
    pub fn forward(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>], lanes: usize) {
        assert_eq!(data.len(), self.n * lanes);
        let (work, inner_scratch) = scratch.split_at_mut(self.m * lanes);
        let (head, tail) = work.split_at_mut(data.len());

        // a[j] = w[j]·x[j], zero-padded to m
        for ((a, x), w) in head
            .chunks_exact_mut(lanes)
            .zip(data.chunks_exact(lanes))
            .zip(&self.chirp)
        {
            for (a, x) in a.iter_mut().zip(x) {
                *a = *x * *w;
            }
        }
        tail.fill(Complex::zero());

        self.inner
            .process_lanes(work, inner_scratch, lanes, Direction::Forward);
        // pointwise multiply by the precomputed (1/m)·FFT(b), then
        // inverse FFT without scaling: conj→forward→conj (the 1/m is
        // already folded into b_fft)
        for (a, b) in work.chunks_exact_mut(lanes).zip(&self.b_fft) {
            for a in a {
                *a = (*a * *b).conj();
            }
        }
        self.inner
            .process_lanes(work, inner_scratch, lanes, Direction::Forward);
        for ((x, a), w) in data
            .chunks_exact_mut(lanes)
            .zip(work.chunks_exact(lanes))
            .zip(&self.chirp)
        {
            for (x, a) in x.iter_mut().zip(a) {
                *x = a.conj() * *w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use idg_types::Cf64;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(13), 16);
        assert_eq!(next_pow2(16), 16);
        assert_eq!(next_pow2(17), 32);
    }

    #[test]
    fn prime_sizes_match_dft() {
        for n in [2usize, 3, 7, 13, 29, 53] {
            let plan = BluesteinPlan::<f64>::new(n);
            let x: Vec<Cf64> = (0..n)
                .map(|i| Cf64::new((i as f64).sin() + 1.0, (i as f64 * 0.5).cos()))
                .collect();
            let mut got = x.clone();
            let mut scratch = vec![Cf64::zero(); plan.scratch_len()];
            plan.forward(&mut got, &mut scratch, 1);
            let expect = dft(&x, Direction::Forward);
            for (a, b) in got.iter().zip(&expect) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn large_prime() {
        let n = 251;
        let plan = BluesteinPlan::<f64>::new(n);
        let x: Vec<Cf64> = (0..n)
            .map(|i| Cf64::new((i % 17) as f64, (i % 5) as f64))
            .collect();
        let mut got = x.clone();
        let mut scratch = vec![Cf64::zero(); plan.scratch_len()];
        plan.forward(&mut got, &mut scratch, 1);
        let expect = dft(&x, Direction::Forward);
        let scale = expect.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (a, b) in got.iter().zip(&expect) {
            assert!((*a - *b).abs() / scale < 1e-11);
        }
    }

    #[test]
    fn chirp_is_unit_magnitude() {
        let plan = BluesteinPlan::<f64>::new(23);
        for w in &plan.chirp {
            assert!((w.abs() - 1.0).abs() < 1e-14);
        }
    }
}
