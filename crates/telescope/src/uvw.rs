//! Earth-rotation synthesis of (u,v,w) tracks.
//!
//! As the earth rotates, each baseline sweeps an elliptical track through
//! the uv-plane (Fig. 3 and Fig. 8 of the paper). This module converts
//! station ENU positions to equatorial baseline components and evaluates
//! the standard synthesis relation (Thompson, Moran & Swenson):
//!
//! ```text
//! | u |   |  sin H         cos H        0     | | ΔX |
//! | v | = | −sin δ cos H   sin δ sin H  cos δ | | ΔY |
//! | w |   |  cos δ cos H  −cos δ sin H  sin δ | | ΔZ |
//! ```
//!
//! with hour angle `H` advancing at the sidereal rate over the
//! observation and declination `δ` of the phase center. Outputs are in
//! meters; the kernels scale to wavelengths per channel.

use crate::layout::Layout;
use idg_types::{Baseline, Observation, Uvw};

/// Sidereal angular rate, rad/s.
const EARTH_ROTATION_RATE: f64 = 7.292_115_9e-5;

/// Generates per-baseline, per-timestep uvw coordinates.
#[derive(Clone, Debug)]
pub struct UvwGenerator {
    /// Equatorial (X,Y,Z) positions per station, meters.
    xyz: Vec<[f64; 3]>,
    /// Phase-center declination, radians.
    declination: f64,
    /// Hour angle at the first time step, radians.
    start_hour_angle: f64,
    /// Integration time, seconds.
    integration_time: f64,
}

impl UvwGenerator {
    /// Build a generator for `layout` observed from `latitude` (rad)
    /// toward declination `declination` (rad), starting at hour angle
    /// `start_hour_angle` (rad).
    pub fn new(
        layout: &Layout,
        latitude: f64,
        declination: f64,
        start_hour_angle: f64,
        integration_time: f64,
    ) -> Self {
        let (sin_lat, cos_lat) = latitude.sin_cos();
        let xyz = layout
            .stations
            .iter()
            .map(|s| {
                [
                    -s.north * sin_lat + s.up * cos_lat,
                    s.east,
                    s.north * cos_lat + s.up * sin_lat,
                ]
            })
            .collect();
        Self {
            xyz,
            declination,
            start_hour_angle,
            integration_time,
        }
    }

    /// The paper-benchmark default: a mid-latitude site observing a field
    /// at δ = −30° starting 2 hours before transit.
    pub fn representative(layout: &Layout, integration_time: f64) -> Self {
        let latitude = -26.7f64.to_radians(); // SKA1-low site latitude
        let declination = -30.0f64.to_radians();
        let start_ha = -(2.0f64 / 24.0) * std::f64::consts::TAU;
        Self::new(layout, latitude, declination, start_ha, integration_time)
    }

    /// Hour angle at time step `t`.
    #[inline]
    fn hour_angle(&self, timestep: usize) -> f64 {
        self.start_hour_angle + EARTH_ROTATION_RATE * self.integration_time * timestep as f64
    }

    /// The uvw coordinate of `baseline` at `timestep`, meters.
    pub fn uvw(&self, baseline: Baseline, timestep: usize) -> Uvw {
        let a = self.xyz[baseline.station1];
        let b = self.xyz[baseline.station2];
        let (dx, dy, dz) = (b[0] - a[0], b[1] - a[1], b[2] - a[2]);
        let (sin_h, cos_h) = self.hour_angle(timestep).sin_cos();
        let (sin_d, cos_d) = self.declination.sin_cos();
        Uvw {
            u: (sin_h * dx + cos_h * dy) as f32,
            v: (-sin_d * cos_h * dx + sin_d * sin_h * dy + cos_d * dz) as f32,
            w: (cos_d * cos_h * dx - cos_d * sin_h * dy + sin_d * dz) as f32,
        }
    }

    /// All uvw coordinates for an observation, laid out
    /// `[baseline-major][timestep]` to match the visibility buffers.
    pub fn generate(&self, obs: &Observation) -> Vec<Uvw> {
        let baselines = obs.baselines();
        let mut out = Vec::with_capacity(baselines.len() * obs.nr_timesteps);
        for bl in &baselines {
            for t in 0..obs.nr_timesteps {
                out.push(self.uvw(*bl, t));
            }
        }
        out
    }

    /// Number of stations the generator was built for.
    pub fn nr_stations(&self) -> usize {
        self.xyz.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, Station};

    fn two_station_layout(east: f64, north: f64) -> Layout {
        Layout::from_stations(
            "pair",
            vec![
                Station {
                    east: 0.0,
                    north: 0.0,
                    up: 0.0,
                },
                Station {
                    east,
                    north,
                    up: 0.0,
                },
            ],
        )
    }

    #[test]
    fn east_west_baseline_at_zero_ha_is_pure_u() {
        // At H = 0, δ = 0: u = ΔY = east offset, v = cosδ·ΔZ, w = cosδ·ΔX.
        let layout = two_station_layout(100.0, 0.0);
        let generator = UvwGenerator::new(&layout, 0.0, 0.0, 0.0, 1.0);
        let uvw = generator.uvw(Baseline::new(0, 1), 0);
        assert!((uvw.u - 100.0).abs() < 1e-4);
        assert!(uvw.v.abs() < 1e-4);
        assert!(uvw.w.abs() < 1e-4);
    }

    #[test]
    fn uvw_length_is_conserved() {
        // Rotation preserves baseline length.
        let layout = two_station_layout(300.0, 400.0);
        let generator = UvwGenerator::new(&layout, -0.5, -0.6, -1.0, 10.0);
        let bl = Baseline::new(0, 1);
        let len0 = generator.uvw(bl, 0).length();
        for t in [100usize, 1000, 5000] {
            let len = generator.uvw(bl, t).length();
            assert!((len - len0).abs() < 1e-2, "length drift at t={t}");
        }
        assert!((len0 as f64 - 500.0).abs() < 1e-3);
    }

    #[test]
    fn tracks_form_ellipses() {
        // Over a full sidereal day the (u,v) track of a baseline closes an
        // ellipse: u ranges symmetric, v offset by cosδ·ΔZ.
        let layout = two_station_layout(500.0, 0.0);
        let generator = UvwGenerator::new(&layout, -0.4, -0.5, 0.0, 60.0);
        let bl = Baseline::new(0, 1);
        let day_steps = (std::f64::consts::TAU / (EARTH_ROTATION_RATE * 60.0)) as usize;
        let mut min_u = f32::MAX;
        let mut max_u = f32::MIN;
        for t in 0..day_steps {
            let uvw = generator.uvw(bl, t);
            min_u = min_u.min(uvw.u);
            max_u = max_u.max(uvw.u);
        }
        assert!((min_u + max_u).abs() < 1.0, "u range symmetric around 0");
        assert!(max_u > 400.0, "u amplitude close to baseline length");
    }

    #[test]
    fn generate_layout_matches_uvw() {
        let layout = Layout::uniform(5, 1000.0, 3);
        let generator = UvwGenerator::representative(&layout, 1.0);
        let obs = Observation::builder()
            .stations(5)
            .timesteps(16)
            .channels(2, 150e6, 1e6)
            .build()
            .unwrap();
        let all = generator.generate(&obs);
        assert_eq!(all.len(), obs.nr_baselines() * obs.nr_timesteps);
        let baselines = obs.baselines();
        // spot-check layout order
        let idx = 3 * obs.nr_timesteps + 7;
        assert_eq!(all[idx], generator.uvw(baselines[3], 7));
    }

    #[test]
    fn hour_angle_advances_at_sidereal_rate() {
        let layout = two_station_layout(1.0, 0.0);
        let generator = UvwGenerator::new(&layout, 0.0, 0.0, 0.0, 1.0);
        let one_hour_steps = 3600;
        let expected = EARTH_ROTATION_RATE * 3600.0;
        assert!((generator.hour_angle(one_hour_steps) - expected).abs() < 1e-12);
    }

    #[test]
    fn antisymmetric_in_station_order() {
        // Baseline::new normalizes order, but explicit reversed stations
        // should mirror uvw.
        let layout = two_station_layout(123.0, -45.0);
        let generator = UvwGenerator::new(&layout, -0.3, -0.7, 0.5, 1.0);
        let fwd = generator.uvw(
            Baseline {
                station1: 0,
                station2: 1,
            },
            10,
        );
        let rev = generator.uvw(
            Baseline {
                station1: 1,
                station2: 0,
            },
            10,
        );
        assert_eq!(fwd.negate(), rev);
    }
}
