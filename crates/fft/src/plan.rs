//! 1-D FFT plans: Stockham autosort mixed-radix with Bluestein fallback.
//!
//! The Stockham autosort formulation is used instead of the textbook
//! bit-reversal Cooley-Tukey because it (a) handles mixed radices
//! uniformly — the subgrid size 24 = 4·2·3 of the paper's benchmark is
//! not a power of two — and (b) its inner loop runs over `q ∈ [0, s)`,
//! a pure batch index: `s` sub-transforms, each seeing the same
//! butterfly and twiddle, with unit stride in both buffers. That loop
//! is what LLVM vectorizes — but `s` is the product of the radices
//! already done, so the first stage of a lone 1-D transform has `s = 1`
//! and runs scalar. [`FftPlan::process_lanes`] therefore starts `s` at
//! the number of interleaved transforms: every stage of every lane then
//! has an inner loop at least `lanes` long, with no shuffles, and a lone
//! transform is simply `lanes = 1`.
//!
//! A plan is immutable after construction (`Send + Sync`), so one plan is
//! shared by all worker threads of the batched subgrid FFTs.

use crate::bluestein::BluesteinPlan;
use idg_types::{Complex, Float};

/// Transform direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `X[k] = Σ x[n]·e^{−2πi nk/N}` (unscaled).
    Forward,
    /// Conjugate transform scaled by `1/N`; exact inverse of `Forward`.
    Inverse,
}

/// One Stockham stage: butterfly radix plus its twiddle table.
struct Stage<T> {
    radix: usize,
    /// `n_cur / radix` for the stage's current length.
    m: usize,
    /// Twiddles `ω_{n_cur}^{p·j}` stored as `tw[p·radix + j]`,
    /// `p ∈ [0, m)`, `j ∈ [0, radix)`.
    twiddles: Vec<Complex<T>>,
    /// DFT matrix ω_r^{jk} for the generic butterfly; empty for the
    /// hardcoded radix-2/4 stages.
    table: Vec<Complex<T>>,
}

enum Backend<T> {
    /// Sizes whose factors are all in {2, 3, 5} (with 4 = 2·2 grouped).
    Stockham(Vec<Stage<T>>),
    /// Everything else (sizes with prime factors > 5).
    Bluestein(Box<BluesteinPlan<T>>),
    /// N = 1.
    Identity,
}

/// An immutable FFT plan for one transform length.
pub struct FftPlan<T> {
    n: usize,
    backend: Backend<T>,
}

/// Factor `n` into the radix sequence used by the Stockham pipeline:
/// radix-4 first (fewest stages), then 2, 3, 5. Returns `None` when a
/// factor > 5 remains.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    while n.is_multiple_of(4) {
        out.push(4);
        n /= 4;
    }
    for r in [2usize, 3, 5] {
        while n.is_multiple_of(r) {
            out.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(out)
}

fn twiddle<T: Float>(num: i64, den: i64) -> Complex<T> {
    // ω = e^{−2πi·num/den}, computed in f64 for accuracy.
    let theta = -2.0 * std::f64::consts::PI * (num as f64) / (den as f64);
    Complex::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()))
}

impl<T: Float> FftPlan<T> {
    /// Build a plan for length `n` (any `n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be at least 1");
        if n == 1 {
            return Self {
                n,
                backend: Backend::Identity,
            };
        }
        match factorize(n) {
            Some(factors) => {
                let mut stages = Vec::with_capacity(factors.len());
                let mut n_cur = n;
                for &radix in &factors {
                    let m = n_cur / radix;
                    let mut tw = Vec::with_capacity(m * radix);
                    for p in 0..m {
                        for j in 0..radix {
                            tw.push(twiddle((p * j) as i64, n_cur as i64));
                        }
                    }
                    // Generic stages carry their own ω_r^{jk} DFT matrix;
                    // radix 2 and 4 use hardcoded butterflies instead.
                    let mut table = Vec::new();
                    if radix != 2 && radix != 4 {
                        table.reserve(radix * radix);
                        for j in 0..radix {
                            for k in 0..radix {
                                table.push(twiddle((j * k) as i64, radix as i64));
                            }
                        }
                    }
                    stages.push(Stage {
                        radix,
                        m,
                        twiddles: tw,
                        table,
                    });
                    n_cur = m;
                }
                Self {
                    n,
                    backend: Backend::Stockham(stages),
                }
            }
            None => Self {
                n,
                backend: Backend::Bluestein(Box::new(BluesteinPlan::new(n))),
            },
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when `n == 1` (the identity transform).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// True when this plan uses the Bluestein fallback.
    pub fn is_bluestein(&self) -> bool {
        matches!(self.backend, Backend::Bluestein(_))
    }

    /// Scratch length required by [`Self::process_with_scratch`], and
    /// per lane by [`Self::process_lanes`].
    pub fn scratch_len(&self) -> usize {
        match &self.backend {
            Backend::Identity => 0,
            Backend::Stockham(_) => self.n,
            Backend::Bluestein(b) => b.scratch_len(),
        }
    }

    /// In-place transform using caller-provided scratch (hot path:
    /// lets the batched row FFTs reuse one scratch per worker).
    pub fn process_with_scratch(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: Direction,
    ) {
        self.process_lanes(data, scratch, 1, dir);
    }

    /// `lanes` independent transforms at once, in place: transform `x`
    /// is the strided sequence `data[k·lanes + x]`, `k ∈ [0, n)`. Every
    /// lane sees the butterflies and twiddles of the 1-D transform in
    /// the same order (`lanes = 1` *is* the 1-D transform), so each
    /// lane's output equals its own [`Self::process_with_scratch`] bit
    /// for bit. `scratch` holds at least `lanes · scratch_len()` values.
    pub fn process_lanes(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        lanes: usize,
        dir: Direction,
    ) {
        assert!(lanes >= 1, "at least one lane");
        assert_eq!(
            data.len(),
            self.n * lanes,
            "data length must equal plan length times lanes"
        );
        assert!(
            scratch.len() >= self.scratch_len() * lanes,
            "scratch too short"
        );
        match dir {
            Direction::Forward => self.forward_inner(data, scratch, lanes),
            Direction::Inverse => {
                // inverse(x) = conj(forward(conj(x))) / n
                for v in data.iter_mut() {
                    *v = v.conj();
                }
                self.forward_inner(data, scratch, lanes);
                let scale = T::ONE / T::from_usize(self.n);
                for v in data.iter_mut() {
                    *v = v.conj().scale(scale);
                }
            }
        }
    }

    /// In-place transform, allocating scratch internally.
    pub fn process(&self, data: &mut [Complex<T>], dir: Direction) {
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.process_with_scratch(data, &mut scratch, dir);
    }

    /// Convenience forward transform.
    pub fn forward(&self, data: &mut [Complex<T>]) {
        self.process(data, Direction::Forward);
    }

    /// Convenience inverse transform.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        self.process(data, Direction::Inverse);
    }

    fn forward_inner(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>], lanes: usize) {
        match &self.backend {
            Backend::Identity => {}
            Backend::Bluestein(b) => b.forward(data, scratch, lanes),
            Backend::Stockham(stages) => {
                let scratch = &mut scratch[..data.len()];
                // The stride counts completed sub-transforms; it is a pure
                // batch index of every stage, so starting it at `lanes`
                // instead of 1 runs `lanes` interleaved transforms.
                let mut s = lanes;
                let mut in_data = true; // current source buffer is `data`
                for stage in stages {
                    let (src, dst): (&[Complex<T>], &mut [Complex<T>]) = if in_data {
                        (&*data, &mut *scratch)
                    } else {
                        (&*scratch, &mut *data)
                    };
                    // `factorize` yields radices 4, 2, 3 and 5 only
                    match stage.radix {
                        2 => stage_radix2(src, dst, stage, s),
                        4 => stage_radix4(src, dst, stage, s),
                        3 => stage_generic::<T, 3>(src, dst, stage, s),
                        _ => stage_generic::<T, 5>(src, dst, stage, s),
                    }
                    s *= stage.radix;
                    in_data = !in_data;
                }
                if !in_data {
                    data.copy_from_slice(scratch);
                }
            }
        }
    }
}

// The stages index through sub-slices of length `s` cut once per `p`:
// the `q` loops then carry no bounds checks and vectorise whenever
// `s > 1`, with unit stride in every source and destination.

/// Radix-2 Stockham stage: `dst[q + s(2p+j)] = (a ± b)·ω^{pj}`.
fn stage_radix2<T: Float>(src: &[Complex<T>], dst: &mut [Complex<T>], st: &Stage<T>, s: usize) {
    let m = st.m;
    for p in 0..m {
        let w = st.twiddles[p * 2 + 1]; // ω^{p·1}; j=0 twiddle is 1
        let src_a = &src[s * p..][..s];
        let src_b = &src[s * (p + m)..][..s];
        let (d0, d1) = dst[s * 2 * p..][..2 * s].split_at_mut(s);
        for q in 0..s {
            let a = src_a[q];
            let b = src_b[q];
            d0[q] = a + b;
            d1[q] = (a - b) * w;
        }
    }
}

/// Radix-4 Stockham stage with the hardcoded 4-point butterfly
/// (multiplications by ±i are free rotations).
fn stage_radix4<T: Float>(src: &[Complex<T>], dst: &mut [Complex<T>], st: &Stage<T>, s: usize) {
    let m = st.m;
    for p in 0..m {
        let w1 = st.twiddles[p * 4 + 1];
        let w2 = st.twiddles[p * 4 + 2];
        let w3 = st.twiddles[p * 4 + 3];
        let src_a = &src[s * p..][..s];
        let src_b = &src[s * (p + m)..][..s];
        let src_c = &src[s * (p + 2 * m)..][..s];
        let src_d = &src[s * (p + 3 * m)..][..s];
        let (d0, rest) = dst[s * 4 * p..][..4 * s].split_at_mut(s);
        let (d1, rest) = rest.split_at_mut(s);
        let (d2, d3) = rest.split_at_mut(s);
        for q in 0..s {
            let (a, b, c, d) = (src_a[q], src_b[q], src_c[q], src_d[q]);
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            let jbmd = (b - d).mul_i(); // i·(b−d)
                                        // forward DFT-4: X1 uses −i, X3 uses +i
            d0[q] = apc + bpd;
            d1[q] = (amc - jbmd) * w1;
            d2[q] = (apc - bpd) * w2;
            d3[q] = (amc + jbmd) * w3;
        }
    }
}

/// Table-driven stage for the odd radices `R` ∈ {3, 5}.
fn stage_generic<T: Float, const R: usize>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    st: &Stage<T>,
    s: usize,
) {
    let m = st.m;
    for p in 0..m {
        let srcs: [&[Complex<T>]; R] = std::array::from_fn(|k| &src[s * (p + k * m)..][..s]);
        for (j, out) in dst[s * R * p..][..R * s].chunks_exact_mut(s).enumerate() {
            let w = st.twiddles[p * R + j];
            let row = &st.table[j * R..][..R];
            for (q, o) in out.iter_mut().enumerate() {
                let mut acc = Complex::zero();
                for k in 0..R {
                    acc.mul_acc(srcs[k][q], row[k]);
                }
                *o = acc * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use idg_types::Cf64;

    fn test_signal(n: usize) -> Vec<Cf64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                Cf64::new((0.3 * x).sin() + 0.1 * x, (0.7 * x).cos() - 0.05 * x)
            })
            .collect()
    }

    fn max_err(a: &[Cf64], b: &[Cf64]) -> f64 {
        let scale = b.iter().map(|c| c.abs()).fold(1.0, f64::max);
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
            / scale
    }

    #[test]
    fn factorization() {
        assert_eq!(factorize(24), Some(vec![4, 2, 3]));
        assert_eq!(factorize(2048), Some(vec![4, 4, 4, 4, 4, 2]));
        assert_eq!(factorize(15), Some(vec![3, 5]));
        assert_eq!(factorize(7), None);
        assert_eq!(factorize(1), Some(vec![]));
    }

    #[test]
    fn matches_dft_all_smooth_sizes() {
        for n in [
            2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 25, 27, 30, 32, 48, 60, 64, 120,
        ] {
            let plan = FftPlan::<f64>::new(n);
            assert!(!plan.is_bluestein(), "size {n} should be smooth");
            let mut data = test_signal(n);
            let expect = dft(&data, Direction::Forward);
            plan.forward(&mut data);
            assert!(max_err(&data, &expect) < 1e-12, "forward mismatch at n={n}");
        }
    }

    #[test]
    fn matches_dft_bluestein_sizes() {
        for n in [7, 11, 13, 17, 23, 31, 97, 101] {
            let plan = FftPlan::<f64>::new(n);
            assert!(plan.is_bluestein(), "size {n} should use Bluestein");
            let mut data = test_signal(n);
            let expect = dft(&data, Direction::Forward);
            plan.forward(&mut data);
            assert!(
                max_err(&data, &expect) < 1e-10,
                "bluestein mismatch at n={n}"
            );
        }
    }

    #[test]
    fn round_trip_inverse() {
        for n in [1, 2, 5, 7, 24, 64, 100, 101, 2048] {
            let plan = FftPlan::<f64>::new(n);
            let orig = test_signal(n);
            let mut data = orig.clone();
            plan.forward(&mut data);
            plan.inverse(&mut data);
            assert!(max_err(&data, &orig) < 1e-11, "round trip failed at n={n}");
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 24;
        let plan = FftPlan::<f64>::new(n);
        let mut data = vec![Cf64::zero(); n];
        data[0] = Cf64::new(1.0, 0.0);
        plan.forward(&mut data);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-13 && v.im.abs() < 1e-13);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 20;
        let plan = FftPlan::<f64>::new(n);
        let mut data = vec![Cf64::new(1.0, 0.0); n];
        plan.forward(&mut data);
        assert!((data[0].re - n as f64).abs() < 1e-12);
        for v in &data[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_right_bin() {
        let n = 48;
        let k0 = 7;
        let plan = FftPlan::<f64>::new(n);
        let mut data: Vec<Cf64> = (0..n)
            .map(|i| Cf64::from_phase(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        plan.forward(&mut data);
        for (k, v) in data.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-10);
            } else {
                assert!(v.abs() < 1e-10, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 120;
        let plan = FftPlan::<f64>::new(n);
        let orig = test_signal(n);
        let mut data = orig.clone();
        plan.forward(&mut data);
        let e_time: f64 = orig.iter().map(|c| c.norm_sqr()).sum();
        let e_freq: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn linearity() {
        let n = 24;
        let plan = FftPlan::<f64>::new(n);
        let a = test_signal(n);
        let b: Vec<Cf64> = test_signal(n).iter().map(|c| c.mul_i()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Cf64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fab);
        let sum: Vec<Cf64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fab, &sum) < 1e-12);
    }

    #[test]
    fn f32_plan_matches_f64_reference() {
        let n = 24;
        let plan32 = FftPlan::<f32>::new(n);
        let plan64 = FftPlan::<f64>::new(n);
        let sig = test_signal(n);
        let mut d32: Vec<Complex<f32>> = sig.iter().map(|c| c.cast()).collect();
        let mut d64 = sig;
        plan32.forward(&mut d32);
        plan64.forward(&mut d64);
        let scale = d64.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (a, b) in d32.iter().zip(&d64) {
            assert!((a.cast::<f64>() - *b).abs() / scale < 1e-5);
        }
    }

    #[test]
    fn process_with_scratch_reuses_buffer() {
        let n = 24;
        let plan = FftPlan::<f64>::new(n);
        let mut scratch = vec![Cf64::zero(); plan.scratch_len()];
        let mut a = test_signal(n);
        let mut b = test_signal(n);
        plan.process_with_scratch(&mut a, &mut scratch, Direction::Forward);
        plan.process_with_scratch(&mut b, &mut scratch, Direction::Forward);
        assert_eq!(a, b);
    }

    /// The lane-interleaved transform against what it replaces: lane `x`
    /// gathered out, run through the 1-D call and scattered back — the
    /// reference every 2-D path is held to. Sizes cover the first-stage
    /// radices, Bluestein (28) and the grid edges; equality is exact.
    fn lanes_equal_separate_transforms<T: Float>() {
        for n in [16usize, 24, 28, 30, 32, 64, 250, 1024] {
            let plan = FftPlan::<T>::new(n);
            for lanes in [1usize, 3, 16, 24] {
                let x: Vec<Complex<T>> = (0..n * lanes)
                    .map(|i| {
                        let t = i as f64;
                        Complex::new(
                            T::from_f64((t * 0.13).sin()),
                            T::from_f64((t * 0.07).cos() * 0.5),
                        )
                    })
                    .collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut expect = x.clone();
                    let mut scratch = vec![Complex::zero(); plan.scratch_len()];
                    let mut lane = vec![Complex::zero(); n];
                    for l in 0..lanes {
                        for k in 0..n {
                            lane[k] = expect[k * lanes + l];
                        }
                        plan.process_with_scratch(&mut lane, &mut scratch, dir);
                        for k in 0..n {
                            expect[k * lanes + l] = lane[k];
                        }
                    }
                    let mut got = x.clone();
                    let mut scratch = vec![Complex::zero(); lanes * plan.scratch_len()];
                    plan.process_lanes(&mut got, &mut scratch, lanes, dir);
                    assert!(got == expect, "n = {n}, {lanes} lanes, {dir:?}");
                }
            }
        }
    }

    #[test]
    fn lanes_equal_separate_transforms_f32() {
        lanes_equal_separate_transforms::<f32>();
    }

    #[test]
    fn lanes_equal_separate_transforms_f64() {
        lanes_equal_separate_transforms::<f64>();
    }

    #[test]
    fn identity_plan() {
        let plan = FftPlan::<f64>::new(1);
        let mut data = vec![Cf64::new(3.0, 4.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Cf64::new(3.0, 4.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Cf64::new(3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "data length must equal plan length")]
    fn wrong_length_panics() {
        let plan = FftPlan::<f64>::new(8);
        let mut data = vec![Cf64::zero(); 4];
        plan.forward(&mut data);
    }
}
