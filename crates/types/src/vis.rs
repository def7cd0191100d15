//! Visibility, baseline and (u,v,w)-coordinate records.
//!
//! A *visibility* is the correlation of the signals of a station pair for
//! one integration time and one frequency channel: a 2×2 complex coherency
//! matrix stored as 4 polarizations `[xx, xy, yx, yy]`. Each visibility is
//! associated with a `uvw`-coordinate, the baseline vector between its two
//! stations expressed in meters (converted to wavelengths per channel by
//! the kernels).

use crate::complex::Complex;
use crate::float::Float;

/// A pair of stations, `station1 < station2`, identifying a baseline.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Baseline {
    /// Index of the first station.
    pub station1: usize,
    /// Index of the second station.
    pub station2: usize,
}

impl Baseline {
    /// Construct a baseline, normalizing the station order.
    pub fn new(a: usize, b: usize) -> Self {
        if a <= b {
            Self {
                station1: a,
                station2: b,
            }
        } else {
            Self {
                station1: b,
                station2: a,
            }
        }
    }

    /// Enumerate all `n·(n−1)/2` distinct baselines of an `n`-station array
    /// (auto-correlations excluded, as in the paper: 150 stations →
    /// 11,175 baselines).
    pub fn all(nr_stations: usize) -> Vec<Baseline> {
        let mut out = Vec::with_capacity(nr_stations * nr_stations.saturating_sub(1) / 2);
        for s1 in 0..nr_stations {
            for s2 in (s1 + 1)..nr_stations {
                out.push(Baseline {
                    station1: s1,
                    station2: s2,
                });
            }
        }
        out
    }
}

/// A baseline vector in meters at one integration time.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
#[repr(C)]
pub struct Uvw {
    /// East-west component (m).
    pub u: f32,
    /// North-south component (m).
    pub v: f32,
    /// Line-of-sight component (m).
    pub w: f32,
}

impl Uvw {
    /// Construct from components.
    #[inline]
    pub fn new(u: f32, v: f32, w: f32) -> Self {
        Self { u, v, w }
    }

    /// Euclidean length in meters.
    #[inline]
    pub fn length(self) -> f32 {
        (self.u * self.u + self.v * self.v + self.w * self.w).sqrt()
    }

    /// The reversed baseline (conjugate point in the uv-plane).
    #[inline]
    pub fn negate(self) -> Self {
        Self {
            u: -self.u,
            v: -self.v,
            w: -self.w,
        }
    }
}

/// One 4-polarization visibility sample `[xx, xy, yx, yy]`.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
#[repr(C)]
pub struct Visibility<T> {
    /// The four correlation products.
    pub pols: [Complex<T>; 4],
}

impl<T: Float> Visibility<T> {
    /// The zero visibility.
    #[inline]
    pub fn zero() -> Self {
        Self {
            pols: [Complex::zero(); 4],
        }
    }

    /// Construct from the four polarization products.
    #[inline]
    pub fn new(xx: Complex<T>, xy: Complex<T>, yx: Complex<T>, yy: Complex<T>) -> Self {
        Self {
            pols: [xx, xy, yx, yy],
        }
    }

    /// `len` zero visibilities, allocated lazily where the allocator can
    /// (as [`Complex::zeroed_vec`]: `Visibility` is `#[repr(C)]` over four
    /// `Complex`, the layout of `[[T; 2]; 4]`).
    pub fn zeroed_vec(len: usize) -> Vec<Self> {
        vec![[[T::ZERO; 2]; 4]; len]
            .into_iter()
            .map(|pols| Self {
                pols: pols.map(|[re, im]| Complex::new(re, im)),
            })
            .collect()
    }

    /// An unpolarized point-source visibility of given amplitude and phase:
    /// power split over xx and yy, cross-hands zero.
    #[inline]
    pub fn unpolarized(amplitude: T, phase: T) -> Self {
        let p = Complex::from_phase(phase).scale(amplitude);
        Self::new(p, Complex::zero(), Complex::zero(), p)
    }

    /// Element-wise sum.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        Self {
            pols: [
                self.pols[0] + rhs.pols[0],
                self.pols[1] + rhs.pols[1],
                self.pols[2] + rhs.pols[2],
                self.pols[3] + rhs.pols[3],
            ],
        }
    }

    /// Element-wise difference (used when subtracting predicted model
    /// visibilities in the imaging major cycle).
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        Self {
            pols: [
                self.pols[0] - rhs.pols[0],
                self.pols[1] - rhs.pols[1],
                self.pols[2] - rhs.pols[2],
                self.pols[3] - rhs.pols[3],
            ],
        }
    }

    /// Scale all polarizations by a real factor.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self {
            pols: [
                self.pols[0].scale(s),
                self.pols[1].scale(s),
                self.pols[2].scale(s),
                self.pols[3].scale(s),
            ],
        }
    }

    /// Root-mean-square magnitude over the four polarizations.
    pub fn rms(self) -> T {
        let s = self.pols.iter().fold(T::ZERO, |acc, p| acc + p.norm_sqr());
        (s / T::from_f64(4.0)).sqrt()
    }

    /// Lossy cast between precisions.
    pub fn cast<U: Float>(self) -> Visibility<U> {
        Visibility {
            pols: [
                self.pols[0].cast(),
                self.pols[1].cast(),
                self.pols[2].cast(),
                self.pols[3].cast(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cf64;

    #[test]
    fn baseline_normalizes_order() {
        assert_eq!(Baseline::new(5, 2), Baseline::new(2, 5));
        assert_eq!(Baseline::new(5, 2).station1, 2);
    }

    #[test]
    fn baseline_count_matches_paper() {
        // 150 stations -> 11,175 baselines, as stated in Sec. VI-A.
        assert_eq!(Baseline::all(150).len(), 11_175);
        assert_eq!(Baseline::all(2).len(), 1);
        assert_eq!(Baseline::all(1).len(), 0);
        assert_eq!(Baseline::all(0).len(), 0);
    }

    #[test]
    fn baselines_are_unique_and_ordered() {
        let bls = Baseline::all(20);
        let mut seen = std::collections::HashSet::new();
        for bl in &bls {
            assert!(bl.station1 < bl.station2);
            assert!(seen.insert(*bl));
        }
    }

    #[test]
    fn uvw_length_and_negate() {
        let uvw = Uvw::new(3.0, 4.0, 0.0);
        assert_eq!(uvw.length(), 5.0);
        assert_eq!(uvw.negate(), Uvw::new(-3.0, -4.0, 0.0));
    }

    #[test]
    fn visibility_arithmetic() {
        let a = Visibility::<f64>::unpolarized(2.0, 0.0);
        let b = Visibility::<f64>::unpolarized(1.0, 0.0);
        let s = a.add(b);
        assert_eq!(s.pols[0], Cf64::new(3.0, 0.0));
        assert_eq!(s.pols[1], Cf64::zero());
        let d = s.sub(b);
        assert_eq!(d.pols[0], a.pols[0]);
        assert_eq!(a.scale(0.5).pols[3], Cf64::new(1.0, 0.0));
    }

    #[test]
    fn unpolarized_has_zero_cross_hands() {
        let v = Visibility::<f32>::unpolarized(1.5, 0.7);
        assert_eq!(v.pols[1], Complex::zero());
        assert_eq!(v.pols[2], Complex::zero());
        assert!((v.pols[0].abs() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn rms_of_unit_visibility() {
        let v = Visibility::<f64>::new(
            Cf64::new(1.0, 0.0),
            Cf64::new(1.0, 0.0),
            Cf64::new(1.0, 0.0),
            Cf64::new(1.0, 0.0),
        );
        assert!((v.rms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cast_round_trips_representable_values() {
        let v = Visibility::<f64>::unpolarized(0.5, 0.0);
        assert_eq!(v.cast::<f32>().cast::<f64>(), v);
    }
}
