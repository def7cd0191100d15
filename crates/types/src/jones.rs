//! 2×2 complex Jones matrices.
//!
//! Direction-dependent effects (the *A-terms* of the measurement equation,
//! Eq. (1) of the paper) are described per station, per direction, per
//! A-term interval by a 2×2 complex matrix acting on the two instrumental
//! polarizations. A visibility (which correlates two stations p, q) is
//! corrected as `A_p · V · A_qᴴ` — exactly what [`Jones::sandwich`]
//! computes and what the gridder applies to each subgrid pixel.

use crate::complex::Complex;
use crate::float::Float;

/// A 2×2 complex matrix in row-major order:
///
/// ```text
/// | xx  xy |
/// | yx  yy |
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Default)]
#[repr(C)]
pub struct Jones<T> {
    /// Row 1, column 1.
    pub xx: Complex<T>,
    /// Row 1, column 2.
    pub xy: Complex<T>,
    /// Row 2, column 1.
    pub yx: Complex<T>,
    /// Row 2, column 2.
    pub yy: Complex<T>,
}

impl<T: Float> Jones<T> {
    /// Construct from four complex entries (row-major).
    #[inline]
    pub fn new(xx: Complex<T>, xy: Complex<T>, yx: Complex<T>, yy: Complex<T>) -> Self {
        Self { xx, xy, yx, yy }
    }

    /// The identity matrix — the "A-terms all set to identity" configuration
    /// used by the paper's benchmark data set.
    #[inline]
    pub fn identity() -> Self {
        Self {
            xx: Complex::one(),
            xy: Complex::zero(),
            yx: Complex::zero(),
            yy: Complex::one(),
        }
    }

    /// The zero matrix.
    #[inline]
    pub fn zero() -> Self {
        Self {
            xx: Complex::zero(),
            xy: Complex::zero(),
            yx: Complex::zero(),
            yy: Complex::zero(),
        }
    }

    /// A diagonal matrix `diag(a, b)` — models per-polarization complex gain.
    #[inline]
    pub fn diagonal(a: Complex<T>, b: Complex<T>) -> Self {
        Self {
            xx: a,
            xy: Complex::zero(),
            yx: Complex::zero(),
            yy: b,
        }
    }

    /// A scalar matrix `g·I` — models a direction-dependent scalar beam.
    #[inline]
    pub fn scalar(g: Complex<T>) -> Self {
        Self::diagonal(g, g)
    }

    /// Conjugate (Hermitian) transpose.
    #[inline]
    pub fn hermitian(self) -> Self {
        Self {
            xx: self.xx.conj(),
            xy: self.yx.conj(),
            yx: self.xy.conj(),
            yy: self.yy.conj(),
        }
    }

    /// Matrix product `self · rhs`.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        Self {
            xx: self.xx * rhs.xx + self.xy * rhs.yx,
            xy: self.xx * rhs.xy + self.xy * rhs.yy,
            yx: self.yx * rhs.xx + self.yy * rhs.yx,
            yy: self.yx * rhs.xy + self.yy * rhs.yy,
        }
    }

    /// The A-term sandwich `A_p · M · A_qᴴ` applied to a coherency matrix.
    ///
    /// `self` plays the role of `A_p`, `aq` of `A_q`. This is Line 17 of
    /// Algorithm 1 (`apply_aterm`).
    #[inline]
    pub fn sandwich(self, m: Self, aq: Self) -> Self {
        self.mul(m).mul(aq.hermitian())
    }

    /// View the four entries as a 4-element polarization array
    /// `[xx, xy, yx, yy]` — the layout of visibilities and subgrid pixels.
    #[inline]
    pub fn to_pols(self) -> [Complex<T>; 4] {
        [self.xx, self.xy, self.yx, self.yy]
    }

    /// Build from a 4-element polarization array `[xx, xy, yx, yy]`.
    #[inline]
    pub fn from_pols(p: [Complex<T>; 4]) -> Self {
        Self {
            xx: p[0],
            xy: p[1],
            yx: p[2],
            yy: p[3],
        }
    }

    /// Determinant.
    #[inline]
    fn det(self) -> Complex<T> {
        self.xx * self.yy - self.xy * self.yx
    }

    /// Inverse; returns `None` when the determinant is (near) zero.
    pub fn inverse(self) -> Option<Self> {
        let d = self.det();
        if d.norm_sqr() <= T::from_f64(1e-30) {
            return None;
        }
        let inv_d = Complex::one().div(d);
        Some(Self {
            xx: self.yy * inv_d,
            xy: -self.xy * inv_d,
            yx: -self.yx * inv_d,
            yy: self.xx * inv_d,
        })
    }

    /// Element-wise sum.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        Self {
            xx: self.xx + rhs.xx,
            xy: self.xy + rhs.xy,
            yx: self.yx + rhs.yx,
            yy: self.yy + rhs.yy,
        }
    }

    /// Scale all entries by a real factor.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self {
            xx: self.xx.scale(s),
            xy: self.xy.scale(s),
            yx: self.yx.scale(s),
            yy: self.yy.scale(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cf64;
    use proptest::prelude::*;

    type J = Jones<f64>;

    fn c(re: f64, im: f64) -> Cf64 {
        Cf64::new(re, im)
    }

    fn rand_jones(seed: &[f64; 8]) -> J {
        J::new(
            c(seed[0], seed[1]),
            c(seed[2], seed[3]),
            c(seed[4], seed[5]),
            c(seed[6], seed[7]),
        )
    }

    fn frobenius(j: J) -> f64 {
        (j.xx.norm_sqr() + j.xy.norm_sqr() + j.yx.norm_sqr() + j.yy.norm_sqr()).sqrt()
    }

    fn close(a: J, b: J, tol: f64) -> bool {
        let d = J::new(a.xx - b.xx, a.xy - b.xy, a.yx - b.yx, a.yy - b.yy);
        frobenius(d) <= tol * (1.0 + frobenius(a).max(frobenius(b)))
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_jones(&[1.0, 2.0, -0.5, 0.25, 3.0, -1.0, 0.0, 1.5]);
        assert!(close(a.mul(J::identity()), a, 1e-15));
        assert!(close(J::identity().mul(a), a, 1e-15));
    }

    #[test]
    fn identity_sandwich_is_identity_operation() {
        let m = rand_jones(&[1.0, -1.0, 2.0, 0.5, -0.25, 0.75, 3.0, 0.0]);
        let out = J::identity().sandwich(m, J::identity());
        assert!(close(out, m, 1e-15));
    }

    #[test]
    fn hermitian_involution() {
        let a = rand_jones(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hermitian().hermitian(), a);
    }

    #[test]
    fn diagonal_sandwich_scales_pols() {
        // With diagonal A-terms the sandwich multiplies each polarization
        // by the corresponding gain product — a known analytic case.
        let ap = J::diagonal(c(2.0, 0.0), c(3.0, 0.0));
        let aq = J::diagonal(c(1.0, 1.0), c(0.0, 2.0));
        let m = rand_jones(&[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        let out = ap.sandwich(m, aq);
        assert!(close(
            out,
            J::new(
                m.xx * c(2.0, 0.0) * c(1.0, -1.0),
                m.xy * c(2.0, 0.0) * c(0.0, -2.0),
                m.yx * c(3.0, 0.0) * c(1.0, -1.0),
                m.yy * c(3.0, 0.0) * c(0.0, -2.0),
            ),
            1e-14
        ));
    }

    #[test]
    fn pols_round_trip() {
        let a = rand_jones(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(J::from_pols(a.to_pols()), a);
    }

    #[test]
    fn inverse_of_identity() {
        assert!(close(
            J::identity().inverse().unwrap(),
            J::identity(),
            1e-15
        ));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = J::new(c(1.0, 0.0), c(2.0, 0.0), c(2.0, 0.0), c(4.0, 0.0));
        assert!(a.inverse().is_none());
    }

    #[test]
    fn det_of_diagonal() {
        let a = J::diagonal(c(2.0, 0.0), c(0.0, 3.0));
        assert_eq!(a.det(), c(0.0, 6.0));
    }

    proptest! {
        #[test]
        fn prop_inverse_round_trip(v in proptest::array::uniform8(-5.0..5.0f64)) {
            let a = rand_jones(&v);
            prop_assume!(a.det().abs() > 1e-3);
            let inv = a.inverse().unwrap();
            prop_assert!(close(a.mul(inv), J::identity(), 1e-9));
            prop_assert!(close(inv.mul(a), J::identity(), 1e-9));
        }

        #[test]
        fn prop_hermitian_antihomomorphism(
            va in proptest::array::uniform8(-5.0..5.0f64),
            vb in proptest::array::uniform8(-5.0..5.0f64),
        ) {
            let a = rand_jones(&va);
            let b = rand_jones(&vb);
            prop_assert!(close(a.mul(b).hermitian(), b.hermitian().mul(a.hermitian()), 1e-10));
        }

        #[test]
        fn prop_mul_associative(
            va in proptest::array::uniform8(-3.0..3.0f64),
            vb in proptest::array::uniform8(-3.0..3.0f64),
            vc in proptest::array::uniform8(-3.0..3.0f64),
        ) {
            let a = rand_jones(&va);
            let b = rand_jones(&vb);
            let c3 = rand_jones(&vc);
            prop_assert!(close(a.mul(b).mul(c3), a.mul(b.mul(c3)), 1e-9));
        }

        #[test]
        fn prop_det_multiplicative(
            va in proptest::array::uniform8(-3.0..3.0f64),
            vb in proptest::array::uniform8(-3.0..3.0f64),
        ) {
            let a = rand_jones(&va);
            let b = rand_jones(&vb);
            let lhs = a.mul(b).det();
            let rhs = a.det() * b.det();
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        }
    }
}
