//! A-term (direction-dependent effect) models and their sampled form.
//!
//! IDG's key advantage is that A-term corrections are applied *in the
//! image domain*, per subgrid pixel (Lines 17 of Algorithm 1 / 2-3 of
//! Algorithm 2). A subgrid is a low-resolution image of the full field of
//! view, so the A-term of station `s` during A-term interval `i` is
//! sampled on the `Ñ × Ñ` subgrid pixel directions.
//!
//! [`ATermModel`] is the continuous description (evaluable at any
//! direction — used by the direct predictor to generate ground truth);
//! [`ATerms`] is its pixel-sampled form consumed by the kernels. Keeping
//! both views derived from one model is what makes the A-term round-trip
//! testable.

use idg_types::{Complex, Jones, Observation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A continuous direction-dependent effect model.
pub trait ATermModel: Send + Sync {
    /// Evaluate the Jones matrix of `station` during A-term interval
    /// `interval` toward direction cosines `(l, m)`.
    fn evaluate(&self, interval: usize, station: usize, l: f64, m: f64) -> Jones<f64>;
}

/// Identity A-terms — the paper's benchmark configuration ("the A-terms
/// (for simplicity, all set to identity)", Sec. VI-A). The *cost* of the
/// correction is still paid by the kernels; only the values are trivial.
#[derive(Clone, Debug, Default)]
pub struct IdentityATerm;

impl ATermModel for IdentityATerm {
    fn evaluate(&self, _interval: usize, _station: usize, _l: f64, _m: f64) -> Jones<f64> {
        Jones::identity()
    }
}

/// Per-station diagonal complex gains, direction-independent but varying
/// per A-term interval — models slow electronic gain drift.
#[derive(Clone, Debug)]
pub struct StationGains {
    gains: Vec<(Complex<f64>, Complex<f64>)>,
    nr_stations: usize,
}

impl StationGains {
    /// Random gains near unity for `nr_stations × nr_intervals`, seeded.
    pub fn random(nr_stations: usize, nr_intervals: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = (0..nr_stations * nr_intervals)
            .map(|_| {
                let amp_x = rng.random_range(0.8..1.2);
                let ph_x = rng.random_range(-0.3..0.3f64);
                let amp_y = rng.random_range(0.8..1.2);
                let ph_y = rng.random_range(-0.3..0.3f64);
                (
                    Complex::new(amp_x * ph_x.cos(), amp_x * ph_x.sin()),
                    Complex::new(amp_y * ph_y.cos(), amp_y * ph_y.sin()),
                )
            })
            .collect();
        Self { gains, nr_stations }
    }
}

impl ATermModel for StationGains {
    fn evaluate(&self, interval: usize, station: usize, _l: f64, _m: f64) -> Jones<f64> {
        let (gx, gy) = self.gains[interval * self.nr_stations + station];
        Jones::diagonal(gx, gy)
    }
}

/// A Gaussian primary-beam model with per-station pointing jitter that
/// drifts per interval — a genuinely direction-*dependent* effect
/// exercising the full image-domain correction path.
#[derive(Clone, Debug)]
pub struct GaussianBeam {
    /// Beam standard deviation in direction-cosine units.
    pub sigma: f64,
    /// Pointing offsets `[interval][station] → (dl, dm)`.
    offsets: Vec<(f64, f64)>,
    nr_stations: usize,
}

impl GaussianBeam {
    /// Build a beam whose σ is `fraction` of the half field of view, with
    /// random pointing offsets up to 10 % of σ.
    pub fn new(obs: &Observation, fraction: f64, seed: u64) -> Self {
        let sigma = obs.image_size / 2.0 * fraction;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = obs.nr_stations * obs.nr_aterm_intervals();
        let offsets = (0..n)
            .map(|_| {
                (
                    rng.random_range(-0.1..0.1) * sigma,
                    rng.random_range(-0.1..0.1) * sigma,
                )
            })
            .collect();
        Self {
            sigma,
            offsets,
            nr_stations: obs.nr_stations,
        }
    }
}

impl ATermModel for GaussianBeam {
    fn evaluate(&self, interval: usize, station: usize, l: f64, m: f64) -> Jones<f64> {
        let (dl, dm) = self.offsets[interval * self.nr_stations + station];
        let r2 = (l - dl).powi(2) + (m - dm).powi(2);
        let amp = (-r2 / (2.0 * self.sigma * self.sigma)).exp();
        Jones::scalar(Complex::new(amp, 0.0))
    }
}

/// Pixel-sampled A-terms: `[interval][station][y][x] → Jones<f32>`,
/// the layout the gridder/degridder kernels consume.
#[derive(Clone, Debug)]
pub struct ATerms {
    data: Vec<Jones<f32>>,
    nr_stations: usize,
    nr_intervals: usize,
    subgrid_size: usize,
    /// Every matrix in `data` is the identity. Decided once by
    /// [`ATerms::from_raw`], which every constructor goes through;
    /// `data` is private and never mutated, so it cannot go stale.
    identity: bool,
}

impl ATerms {
    /// Sample `model` on the subgrid pixel directions of `obs`.
    ///
    /// Pixel `(y, x)` of a subgrid sees direction
    /// `l = (x + 0.5 − Ñ/2)·image_size/Ñ` (and likewise `m` from `y`) —
    /// the same `compute_l` convention the kernels use.
    pub fn sample(model: &dyn ATermModel, obs: &Observation) -> Self {
        let n = obs.subgrid_size;
        let nr_intervals = obs.nr_aterm_intervals();
        let nr_stations = obs.nr_stations;
        let mut data = Vec::with_capacity(nr_intervals * nr_stations * n * n);
        for interval in 0..nr_intervals {
            for station in 0..nr_stations {
                for y in 0..n {
                    let m = (y as f64 + 0.5 - n as f64 / 2.0) * obs.image_size / n as f64;
                    for x in 0..n {
                        let l = (x as f64 + 0.5 - n as f64 / 2.0) * obs.image_size / n as f64;
                        let j = model.evaluate(interval, station, l, m);
                        data.push(Jones {
                            xx: j.xx.cast(),
                            xy: j.xy.cast(),
                            yx: j.yx.cast(),
                            yy: j.yy.cast(),
                        });
                    }
                }
            }
        }
        Self::from_raw(data, nr_stations, nr_intervals, n)
    }

    /// Rebuild from raw storage (deserialization); `data` must hold
    /// `nr_intervals × nr_stations × subgrid_size²` matrices in the
    /// canonical layout.
    pub fn from_raw(
        data: Vec<Jones<f32>>,
        nr_stations: usize,
        nr_intervals: usize,
        subgrid_size: usize,
    ) -> Self {
        assert_eq!(
            data.len(),
            nr_intervals * nr_stations * subgrid_size * subgrid_size,
            "raw A-term buffer has the wrong shape"
        );
        let id: Jones<f32> = Jones::identity();
        let identity = data.iter().all(|j| *j == id);
        Self {
            data,
            nr_stations,
            nr_intervals,
            subgrid_size,
            identity,
        }
    }

    /// Identity A-terms without sampling overhead.
    pub fn identity(obs: &Observation) -> Self {
        let n = obs.subgrid_size;
        let count = obs.nr_aterm_intervals() * obs.nr_stations * n * n;
        Self::from_raw(
            vec![Jones::identity(); count],
            obs.nr_stations,
            obs.nr_aterm_intervals(),
            n,
        )
    }

    /// The `Ñ × Ñ` Jones plane of `station` during `interval` (row-major).
    #[inline]
    pub fn plane(&self, interval: usize, station: usize) -> &[Jones<f32>] {
        debug_assert!(interval < self.nr_intervals && station < self.nr_stations);
        let n2 = self.subgrid_size * self.subgrid_size;
        let start = (interval * self.nr_stations + station) * n2;
        &self.data[start..start + n2]
    }

    /// One Jones matrix.
    #[inline]
    pub fn at(&self, interval: usize, station: usize, y: usize, x: usize) -> Jones<f32> {
        self.plane(interval, station)[y * self.subgrid_size + x]
    }

    /// Subgrid edge length the terms were sampled on.
    pub fn subgrid_size(&self) -> usize {
        self.subgrid_size
    }

    /// Number of A-term intervals.
    pub fn nr_intervals(&self) -> usize {
        self.nr_intervals
    }

    /// Number of stations.
    pub fn nr_stations(&self) -> usize {
        self.nr_stations
    }

    /// True when every sampled matrix is the identity (lets kernels take
    /// the cheap path the paper uses for its benchmark). O(1): the cube
    /// is scanned once, at construction.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_obs() -> Observation {
        Observation::builder()
            .stations(4)
            .timesteps(32)
            .aterm_interval(16)
            .subgrid_size(8)
            .kernel_size(3)
            .grid_size(128)
            .channels(2, 150e6, 1e6)
            .build()
            .unwrap()
    }

    #[test]
    fn identity_model_is_identity_everywhere() {
        let m = IdentityATerm;
        let j = m.evaluate(3, 2, 0.01, -0.02);
        assert_eq!(j, Jones::identity());
    }

    #[test]
    fn sampled_identity_matches_fast_path() {
        let obs = small_obs();
        let sampled = ATerms::sample(&IdentityATerm, &obs);
        let fast = ATerms::identity(&obs);
        assert!(sampled.is_identity());
        assert!(fast.is_identity());
        assert_eq!(sampled.nr_intervals(), obs.nr_aterm_intervals());
        assert_eq!(sampled.plane(0, 0).len(), 64);
        assert_eq!(fast.data.len(), sampled.data.len());
    }

    #[test]
    fn identity_flag_is_decided_at_construction() {
        let obs = small_obs();
        let n = obs.subgrid_size;
        let shape = (obs.nr_stations, obs.nr_aterm_intervals(), n);
        let cube = vec![Jones::<f32>::identity(); shape.0 * shape.1 * n * n];

        assert!(ATerms::identity(&obs).is_identity());
        assert!(ATerms::from_raw(cube.clone(), shape.0, shape.1, n).is_identity());

        // a single off pixel anywhere in the cube (first, middle, last)
        // clears the flag
        for at in [0, cube.len() / 2, cube.len() - 1] {
            let mut off = cube.clone();
            off[at].xy = Complex::new(1e-3, 0.0);
            assert!(
                !ATerms::from_raw(off, shape.0, shape.1, n).is_identity(),
                "off pixel at {at}"
            );
        }
        let reloaded = ATerms::from_raw(
            ATerms::sample(&GaussianBeam::new(&obs, 0.5, 1), &obs).data,
            shape.0,
            shape.1,
            n,
        );
        assert!(!reloaded.is_identity());
    }

    #[test]
    fn station_gains_are_directionless_and_seeded() {
        let g1 = StationGains::random(4, 2, 9);
        let g2 = StationGains::random(4, 2, 9);
        let a = g1.evaluate(1, 2, 0.0, 0.0);
        let b = g1.evaluate(1, 2, 0.01, -0.01);
        assert_eq!(a, b, "gains must not depend on direction");
        assert_eq!(a, g2.evaluate(1, 2, 0.5, 0.5));
        // off-diagonals are zero
        assert_eq!(a.xy, Complex::zero());
        assert_eq!(a.yx, Complex::zero());
    }

    #[test]
    fn gaussian_beam_peaks_near_center_and_decays() {
        let obs = small_obs();
        let beam = GaussianBeam::new(&obs, 0.8, 1);
        let center = beam.evaluate(0, 0, 0.0, 0.0).xx.abs();
        let edge = beam.evaluate(0, 0, obs.image_size / 2.0, 0.0).xx.abs();
        assert!(center > edge, "beam must decay toward the edge");
        assert!(center > 0.9, "near-unit at center (small pointing offset)");
        assert!(edge < center * 0.9);
    }

    #[test]
    fn beam_sampling_is_not_identity() {
        let obs = small_obs();
        let sampled = ATerms::sample(&GaussianBeam::new(&obs, 0.5, 1), &obs);
        assert!(!sampled.is_identity());
        // center pixel amplitude larger than corner
        let c = sampled.at(0, 0, 4, 4).xx.abs();
        let corner = sampled.at(0, 0, 0, 0).xx.abs();
        assert!(c > corner);
    }

    #[test]
    fn plane_indexing_is_disjoint() {
        let obs = small_obs();
        let gains = StationGains::random(obs.nr_stations, obs.nr_aterm_intervals(), 3);
        let sampled = ATerms::sample(&gains, &obs);
        let a = sampled.at(0, 0, 0, 0);
        let b = sampled.at(0, 1, 0, 0);
        let c = sampled.at(1, 0, 0, 0);
        assert_ne!(a, b, "different stations differ");
        assert_ne!(a, c, "different intervals differ");
    }
}
