//! Complex arithmetic tuned for the IDG accumulation loops.
//!
//! The inner loops of Algorithms 1 and 2 of the paper are complex
//! multiply-accumulates: `pixel += phasor * visibility`. On hardware with
//! FMA units one complex MAC is exactly 4 real fused multiply-adds, which
//! is how the paper counts operations. [`Complex::mul_acc`] expresses that
//! shape directly so the compiler can emit FMAs, and so the analytic
//! operation counters in `idg-perf` agree with the code.

use crate::float::Float;

/// A complex number over a real scalar `T` (layout: `[re, im]`).
///
/// `#[repr(C)]` guarantees the interleaved layout used by the FFT and the
/// grid containers, so a `&[Complex<f32>]` can be viewed as `&[f32]` of
/// twice the length when separating real/imaginary planes for
/// vectorization (see the CPU-optimized kernels).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex number — the production type of every kernel.
pub type Cf32 = Complex<f32>;
/// Double-precision complex number — used by reference/gold kernels.
pub type Cf64 = Complex<f64>;

impl<T: Float> Complex<T> {
    /// The complex zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self {
            re: T::ZERO,
            im: T::ZERO,
        }
    }

    /// Construct from parts.
    #[inline(always)]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// `len` complex zeros, allocated lazily where the allocator can.
    ///
    /// std allocates a vector of an all-zero-bits element type (a float
    /// array) as zeroed memory, which a large allocation gets from the
    /// kernel untouched; `Complex` is `#[repr(C)]` with the layout of
    /// `[T; 2]`, so the collect reuses that allocation in place. In a
    /// release build the identity loop folds away and no page is faulted
    /// in until it is first read or written; a debug build runs the loop
    /// and touches every page.
    ///
    /// Never inlined: the fold is the optimiser's, and inlined into a
    /// caller it can stop happening when unrelated code in that caller
    /// changes (`Proxy::grid` once wrote all 134 MB of a 2048² grid that
    /// way). As a function of its own, the loop folds the same wherever
    /// it is called from; `idg`'s `lazy_grid` test holds it there.
    #[inline(never)]
    pub fn zeroed_vec(len: usize) -> Vec<Self> {
        vec![[T::ZERO; 2]; len]
            .into_iter()
            .map(|[re, im]| Self::new(re, im))
            .collect()
    }

    /// The multiplicative identity `1 + 0i`.
    #[inline(always)]
    pub fn one() -> Self {
        Self {
            re: T::ONE,
            im: T::ZERO,
        }
    }

    /// A unit phasor `e^{iθ} = cos θ + i sin θ`.
    ///
    /// This is the `Φ` of Algorithm 1; the batched fast-math variant lives
    /// in `idg-math`.
    #[inline(always)]
    pub fn from_phase(theta: T) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re.mul_add(self.re, self.im * self.im)
    }

    /// Magnitude.
    #[inline(always)]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Fused multiply-accumulate: `self += a * b`.
    ///
    /// Expands to exactly 4 real FMAs — the operation the paper's roofline
    /// model counts 16 of per (visibility, pixel) pair (4 per polarization).
    #[inline(always)]
    pub fn mul_acc(&mut self, a: Self, b: Self) {
        self.re = a.re.mul_add(b.re, self.re);
        self.re = (-a.im).mul_add(b.im, self.re);
        self.im = a.re.mul_add(b.im, self.im);
        self.im = a.im.mul_add(b.re, self.im);
    }

    /// Multiplication by `i` (quarter-turn rotation), free of multiplies.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Self {
            re: -self.im,
            im: self.re,
        }
    }

    /// Complex division (reference-quality; not used in hot loops).
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }

    /// Lossy cast between precisions.
    #[inline(always)]
    pub fn cast<U: Float>(self) -> Complex<U> {
        Complex {
            re: U::from_f64(self.re.to_f64()),
            im: U::from_f64(self.im.to_f64()),
        }
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Float> std::ops::Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<T: Float> std::ops::Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<T: Float> std::ops::Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re.mul_add(rhs.re, -(self.im * rhs.im)),
            im: self.re.mul_add(rhs.im, self.im * rhs.re),
        }
    }
}

impl<T: Float> std::ops::Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<T: Float> std::ops::AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Float> std::ops::SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Float> std::ops::MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Float> std::ops::Mul<T> for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Float> From<T> for Complex<T> {
    #[inline(always)]
    fn from(re: T) -> Self {
        Self { re, im: T::ZERO }
    }
}

impl<T: Float> std::iter::Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::new(T::ZERO, T::ZERO), |a, b| a + b)
    }
}

impl<T: std::fmt::Display + Float> std::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, self.im.abs())
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Cf64, b: Cf64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_arithmetic() {
        let a = Cf64::new(1.0, 2.0);
        let b = Cf64::new(3.0, -1.0);
        assert_eq!(a + b, Cf64::new(4.0, 1.0));
        assert_eq!(a - b, Cf64::new(-2.0, 3.0));
        assert_eq!(a * b, Cf64::new(5.0, 5.0));
        assert_eq!(-a, Cf64::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Cf64::new(2.0, 4.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Cf64::new(3.0, 4.0);
        assert_eq!(a.conj(), Cf64::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close(a * a.conj(), Cf64::from(25.0), 1e-15));
    }

    #[test]
    fn phasor_is_unit_magnitude() {
        for i in 0..64 {
            let theta = i as f64 * 0.7 - 20.0;
            let p = Cf64::from_phase(theta);
            assert!((p.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_acc_matches_separate_ops() {
        let mut acc = Cf64::new(0.5, -0.25);
        let expect = acc + Cf64::new(1.5, 2.0) * Cf64::new(-0.5, 3.0);
        acc.mul_acc(Cf64::new(1.5, 2.0), Cf64::new(-0.5, 3.0));
        assert!(close(acc, expect, 1e-14));
    }

    #[test]
    fn mul_i_rotates_quarter_turn() {
        let a = Cf64::new(2.0, 1.0);
        assert_eq!(a.mul_i(), a * Cf64::new(0.0, 1.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Cf64::new(2.0, -3.0);
        let b = Cf64::new(0.5, 1.5);
        assert!(close((a * b).div(b), a, 1e-12));
    }

    #[test]
    fn cast_between_precisions() {
        let a = Cf64::new(1.25, -0.5); // representable in f32
        let b: Cf32 = a.cast();
        assert_eq!(b, Cf32::new(1.25, -0.5));
        assert_eq!(b.cast::<f64>(), a);
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Cf64::new(1.0, 1.0); 10];
        let s: Cf64 = v.into_iter().sum();
        assert_eq!(s, Cf64::new(10.0, 10.0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Cf64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Cf64::new(1.0, -2.0).to_string(), "1--2i".replace("--", "-"));
    }

    proptest! {
        #[test]
        fn prop_mul_commutative(ar in -100.0..100.0f64, ai in -100.0..100.0f64,
                                br in -100.0..100.0f64, bi in -100.0..100.0f64) {
            let a = Cf64::new(ar, ai);
            let b = Cf64::new(br, bi);
            prop_assert!(close(a * b, b * a, 1e-12));
        }

        #[test]
        fn prop_mul_associative(ar in -10.0..10.0f64, ai in -10.0..10.0f64,
                                br in -10.0..10.0f64, bi in -10.0..10.0f64,
                                cr in -10.0..10.0f64, ci in -10.0..10.0f64) {
            let a = Cf64::new(ar, ai);
            let b = Cf64::new(br, bi);
            let c = Cf64::new(cr, ci);
            prop_assert!(close((a * b) * c, a * (b * c), 1e-10));
        }

        #[test]
        fn prop_distributive(ar in -10.0..10.0f64, ai in -10.0..10.0f64,
                             br in -10.0..10.0f64, bi in -10.0..10.0f64,
                             cr in -10.0..10.0f64, ci in -10.0..10.0f64) {
            let a = Cf64::new(ar, ai);
            let b = Cf64::new(br, bi);
            let c = Cf64::new(cr, ci);
            prop_assert!(close(a * (b + c), a * b + a * c, 1e-10));
        }

        #[test]
        fn prop_norm_multiplicative(ar in -10.0..10.0f64, ai in -10.0..10.0f64,
                                    br in -10.0..10.0f64, bi in -10.0..10.0f64) {
            let a = Cf64::new(ar, ai);
            let b = Cf64::new(br, bi);
            let lhs = (a * b).abs();
            let rhs = a.abs() * b.abs();
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs));
        }

        #[test]
        fn prop_conj_antihomomorphism(ar in -10.0..10.0f64, ai in -10.0..10.0f64,
                                      br in -10.0..10.0f64, bi in -10.0..10.0f64) {
            let a = Cf64::new(ar, ai);
            let b = Cf64::new(br, bi);
            prop_assert!(close((a * b).conj(), a.conj() * b.conj(), 1e-11));
        }
    }
}
