//! Station position generators.
//!
//! Positions are expressed in a local East-North-Up (ENU) tangent plane in
//! meters. The SKA1-low-like generator follows the published morphology of
//! the SKA1-low configuration: roughly half the stations in a dense
//! quasi-random core, the rest distributed along three log-spiral arms.
//! All generators are seeded, so a given `(generator, n, seed)` triple
//! always produces the same array — benchmarks are reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A station position in the local ENU frame, meters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Station {
    /// East offset (m).
    pub east: f64,
    /// North offset (m).
    pub north: f64,
    /// Height above the tangent plane (m).
    pub up: f64,
}

/// A named collection of station positions.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Human-readable generator description.
    pub name: String,
    /// Station positions.
    pub stations: Vec<Station>,
}

impl Layout {
    /// SKA1-low-like layout: `n` stations, ~50 % in a dense core of radius
    /// `core_radius` m, the rest on three log-spiral arms extending to
    /// `max_radius` m.
    ///
    /// Defaults used by the workspace benchmark: 150 stations, 1 km core,
    /// 20 km arms — chosen so the longest baselines stay within the
    /// uv-extent representable by the paper's 2048²-pixel grid at the
    /// benchmark field of view.
    pub fn ska1_low(n: usize, core_radius: f64, max_radius: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stations = Vec::with_capacity(n);
        let n_core = n / 2;

        // Dense core: uniform over a disc (sqrt-radius sampling).
        for _ in 0..n_core {
            let r = core_radius * rng.random::<f64>().sqrt();
            let theta = rng.random::<f64>() * std::f64::consts::TAU;
            stations.push(Station {
                east: r * theta.cos(),
                north: r * theta.sin(),
                up: rng.random_range(-2.0..2.0),
            });
        }

        // Three log-spiral arms, stations log-spaced in radius with jitter.
        let n_arms = 3usize;
        let n_arm_stations = n - n_core;
        let b = 0.35; // spiral pitch parameter
        for i in 0..n_arm_stations {
            let arm = i % n_arms;
            // log-spaced radius from core edge to exactly max_radius at
            // the outermost station (frac ∈ (0, 1])
            let frac = (i as f64 + 1.0) / n_arm_stations as f64;
            let r = core_radius * (max_radius / core_radius).powf(frac);
            let theta0 = arm as f64 * std::f64::consts::TAU / n_arms as f64;
            let theta = theta0 + (r / core_radius).ln() / b + rng.random_range(-0.05..0.05);
            stations.push(Station {
                east: r * theta.cos() * (1.0 + rng.random_range(-0.02..0.02)),
                north: r * theta.sin() * (1.0 + rng.random_range(-0.02..0.02)),
                up: rng.random_range(-5.0..5.0),
            });
        }

        Self {
            name: format!("ska1-low-like(n={n}, seed={seed})"),
            stations,
        }
    }

    /// Uniform random scatter over a disc of radius `radius` m — the
    /// simplest layout for unit tests.
    pub fn uniform(n: usize, radius: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let stations = (0..n)
            .map(|_| {
                let r = radius * rng.random::<f64>().sqrt();
                let theta = rng.random::<f64>() * std::f64::consts::TAU;
                Station {
                    east: r * theta.cos(),
                    north: r * theta.sin(),
                    up: 0.0,
                }
            })
            .collect();
        Self {
            name: format!("uniform(n={n}, r={radius}m, seed={seed})"),
            stations,
        }
    }

    /// Build a layout from explicit positions.
    pub fn from_stations(name: &str, stations: Vec<Station>) -> Self {
        Self {
            name: name.to_string(),
            stations,
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// True when the layout has no stations.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Longest baseline length in meters.
    pub fn max_baseline(&self) -> f64 {
        let mut max = 0.0f64;
        for (i, a) in self.stations.iter().enumerate() {
            for b in &self.stations[i + 1..] {
                let de = a.east - b.east;
                let dn = a.north - b.north;
                let du = a.up - b.up;
                max = max.max((de * de + dn * dn + du * du).sqrt());
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ska1_low_is_deterministic() {
        let a = Layout::ska1_low(150, 1000.0, 20_000.0, 42);
        let b = Layout::ska1_low(150, 1000.0, 20_000.0, 42);
        assert_eq!(a.stations, b.stations);
        assert_eq!(a.len(), 150);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Layout::ska1_low(50, 1000.0, 20_000.0, 1);
        let b = Layout::ska1_low(50, 1000.0, 20_000.0, 2);
        assert_ne!(a.stations, b.stations);
    }

    #[test]
    fn ska1_low_has_core_and_arms() {
        let l = Layout::ska1_low(150, 1000.0, 20_000.0, 7);
        let r = |s: &Station| (s.east * s.east + s.north * s.north).sqrt();
        let n_core = l.stations.iter().filter(|s| r(s) <= 1_050.0).count();
        let n_far = l.stations.iter().filter(|s| r(s) > 5_000.0).count();
        assert!(n_core >= 70, "core population {n_core}");
        assert!(n_far >= 20, "arm population {n_far}");
        // everything within the arm extent (2% jitter allowance)
        assert!(l.stations.iter().all(|s| r(s) <= 20_500.0));
    }

    #[test]
    fn max_baseline_bounded_by_layout_extent() {
        let l = Layout::ska1_low(100, 1000.0, 15_000.0, 3);
        assert!(l.max_baseline() <= 2.0 * 15_300.0);
        assert!(l.max_baseline() > 15_000.0, "arms should be used");
    }

    #[test]
    fn uniform_layout_within_radius() {
        let l = Layout::uniform(64, 500.0, 9);
        assert_eq!(l.len(), 64);
        for s in &l.stations {
            assert!((s.east * s.east + s.north * s.north).sqrt() <= 500.0 + 1e-9);
        }
    }

    #[test]
    fn from_stations_round_trip() {
        let sts = vec![Station {
            east: 1.0,
            north: 2.0,
            up: 3.0,
        }];
        let l = Layout::from_stations("custom", sts.clone());
        assert_eq!(l.stations, sts);
        assert!(!l.is_empty());
        assert_eq!(Layout::from_stations("empty", vec![]).max_baseline(), 0.0);
    }
}
