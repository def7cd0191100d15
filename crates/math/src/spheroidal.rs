//! Prolate-spheroidal tapering function.
//!
//! IDG multiplies each subgrid by a tapering window in the image domain to
//! suppress aliasing from sources outside the subgrid's footprint (Sec. IV:
//! "the tapering function that \[is\] used to reduce aliasing (such as a
//! spheroidal, which is used in our case)"). The de-facto standard in
//! radio astronomy is the zeroth-order prolate spheroidal wave function
//! with support m = 6, α = 1, evaluated with F. Schwab's rational
//! approximation (the `grdsf` routine that CASA/WSClean also use).

use idg_types::Float;

/// Schwab's rational approximation of the prolate spheroidal wave function
/// ψ(η) for m = 6, α = 1, on η ∈ [−1, 1]; returns 0 outside.
///
/// The approximation splits the domain at |η| = 0.75 and uses a degree-4 /
/// degree-2 rational in `η² − η₀²` on each part.
pub fn spheroidal_eta(eta: f64) -> f64 {
    let eta = eta.abs();
    if eta > 1.0 {
        return 0.0;
    }

    // Coefficients from F. Schwab, "Optimal gridding of visibility data in
    // radio interferometry", Indirect Imaging (1984).
    const P: [[f64; 5]; 2] = [
        [
            8.203_343e-2,
            -3.644_705e-1,
            6.278_660e-1,
            -5.335_581e-1,
            2.312_756e-1,
        ],
        [
            4.028_559e-3,
            -3.697_768e-2,
            1.021_332e-1,
            -1.201_436e-1,
            6.412_774e-2,
        ],
    ];
    const Q: [[f64; 3]; 2] = [
        [1.0, 8.212_018e-1, 2.078_043e-1],
        [1.0, 9.599_102e-1, 2.918_724e-1],
    ];

    let (part, eta0) = if eta <= 0.75 { (0, 0.75) } else { (1, 1.0) };
    let d = eta * eta - eta0 * eta0;

    let num = P[part][4]
        .mul_add(d, P[part][3])
        .mul_add(d, P[part][2])
        .mul_add(d, P[part][1])
        .mul_add(d, P[part][0]);
    let den = Q[part][2].mul_add(d, Q[part][1]).mul_add(d, Q[part][0]);
    num / den
}

/// Sample the spheroidal taper on `n` image-domain points.
///
/// Point `i` sits at `η = 2·(i + 0.5 − n/2)/n ∈ (−1, 1)`, i.e. pixel
/// centers of an `n`-pixel subgrid axis — the same convention as the
/// `compute_l` pixel mapping of the kernels.
fn spheroidal_1d(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let eta = 2.0 * (i as f64 + 0.5 - n as f64 / 2.0) / n as f64;
            f32::from_f64(spheroidal_eta(eta))
        })
        .collect()
}

/// Separable 2-D taper for an `n × n` subgrid (row-major).
pub fn spheroidal_2d(n: usize) -> Vec<f32> {
    let d1 = spheroidal_1d(n);
    let mut out = Vec::with_capacity(n * n);
    for y in 0..n {
        for x in 0..n {
            out.push(d1[y] * d1[x]);
        }
    }
    out
}

/// The gridding-domain correction function `(1 − η²)·ψ(η)`; dividing the
/// final image by (the FFT-domain image of) this removes the taper that
/// gridding imposed. Exposed for the imaging crate and the W-projection
/// baseline, which use the same family of functions as the convolution
/// kernel envelope.
pub fn spheroidal_gridding_eta(eta: f64) -> f64 {
    let e = eta.abs();
    if e > 1.0 {
        0.0
    } else {
        (1.0 - e * e) * spheroidal_eta(eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn peak_is_at_center() {
        assert!((spheroidal_eta(0.0) - 1.0).abs() < 0.2, "near-unit peak");
        for i in 1..=10 {
            let eta = i as f64 / 10.0;
            assert!(spheroidal_eta(eta) <= spheroidal_eta(0.0));
        }
    }

    #[test]
    fn monotonically_decreasing_from_center() {
        let mut prev = spheroidal_eta(0.0);
        for i in 1..=100 {
            let v = spheroidal_eta(i as f64 / 100.0);
            assert!(
                v <= prev + 1e-12,
                "not monotone at eta={}",
                i as f64 / 100.0
            );
            prev = v;
        }
    }

    #[test]
    fn zero_outside_support() {
        assert_eq!(spheroidal_eta(1.5), 0.0);
        assert_eq!(spheroidal_eta(-2.0), 0.0);
        assert_eq!(spheroidal_gridding_eta(1.01), 0.0);
    }

    #[test]
    fn known_boundary_values() {
        // At eta=1 the part-1 rational evaluates at d=0: P[1][0]/Q[1][0].
        assert!((spheroidal_eta(1.0) - 4.028_559e-3).abs() < 1e-9);
        // Continuity across the 0.75 split point.
        let lo = spheroidal_eta(0.749_999_9);
        let hi = spheroidal_eta(0.750_000_1);
        assert!(
            (lo - hi).abs() < 1e-4,
            "discontinuity at 0.75: {lo} vs {hi}"
        );
    }

    #[test]
    fn taper_1d_is_symmetric_and_positive() {
        for n in [8, 24, 25, 32] {
            let t = spheroidal_1d(n);
            assert_eq!(t.len(), n);
            for i in 0..n {
                assert!(t[i] > 0.0, "taper must be strictly positive on-grid");
                assert!((t[i] - t[n - 1 - i]).abs() < 1e-6, "symmetry at {i}");
            }
        }
    }

    #[test]
    fn taper_2d_is_separable() {
        let n = 24;
        let d1 = spheroidal_1d(n);
        let d2 = spheroidal_2d(n);
        assert_eq!(d2.len(), n * n);
        for y in 0..n {
            for x in 0..n {
                assert_eq!(d2[y * n + x], d1[y] * d1[x]);
            }
        }
    }

    #[test]
    fn gridding_function_vanishes_at_edge() {
        assert!(spheroidal_gridding_eta(1.0).abs() < 1e-12);
        assert!(spheroidal_gridding_eta(0.0) > 0.5);
    }

    proptest! {
        #[test]
        fn prop_even_function(eta in 0.0..1.0f64) {
            prop_assert_eq!(spheroidal_eta(eta), spheroidal_eta(-eta));
        }

        #[test]
        fn prop_bounded(eta in -1.2..1.2f64) {
            let v = spheroidal_eta(eta);
            prop_assert!((0.0..=1.2).contains(&v));
        }
    }
}
