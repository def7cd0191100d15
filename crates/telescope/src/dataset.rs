//! In-memory visibility data sets.
//!
//! A [`Dataset`] bundles what the paper's execution plan and kernels
//! consume: the observation parameters, the per-baseline/timestep uvw
//! coordinates, the visibility buffer and the sampled A-terms. The
//! constructors reproduce the benchmark configurations of Sec. VI-A at
//! adjustable scale.

use crate::aterm::{ATermModel, ATerms, IdentityATerm};
use crate::layout::Layout;
use crate::predict::predict_visibilities;
use crate::sky::SkyModel;
use crate::uvw::UvwGenerator;
use idg_types::{Baseline, IdgError, Observation, Uvw, Visibility};

/// A complete in-memory observation: parameters, coordinates, data.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Observation parameters.
    pub obs: Observation,
    /// Canonical baseline list (order of all baseline-major buffers).
    pub baselines: Vec<Baseline>,
    /// uvw coordinates `[baseline][timestep]`, meters.
    pub uvw: Vec<Uvw>,
    /// Visibilities `[baseline][timestep][channel]`.
    pub visibilities: Vec<Visibility<f32>>,
    /// Sampled A-terms.
    pub aterms: ATerms,
    /// The sky model the visibilities were predicted from (if simulated).
    pub sky: SkyModel,
}

impl Dataset {
    /// Simulate a data set: generate uvw tracks for `layout`, predict
    /// visibilities for `sky` under `model`, and sample the A-terms.
    pub fn simulate(
        obs: Observation,
        layout: &Layout,
        sky: SkyModel,
        model: &dyn ATermModel,
    ) -> Self {
        assert_eq!(
            layout.len(),
            obs.nr_stations,
            "layout/observation station mismatch"
        );
        let generator = UvwGenerator::representative(layout, obs.integration_time);
        let uvw = generator.generate(&obs);
        let visibilities = predict_visibilities(&obs, &uvw, model, &sky);
        let aterms = ATerms::sample(model, &obs);
        let baselines = obs.baselines();
        Self {
            obs,
            baselines,
            uvw,
            visibilities,
            aterms,
            sky,
        }
    }

    /// The paper's benchmark shape at reduced scale: SKA1-low-like layout,
    /// identity A-terms, a random sky. `scale` divides the station count
    /// (150/scale) and time steps (8192/scale²-ish) to keep laptop-sized
    /// runs tractable while preserving the configuration structure
    /// (24² subgrids, channel count, A-term cadence).
    pub fn representative(scale: usize, seed: u64) -> Result<Self, IdgError> {
        let scale = scale.max(1);
        let nr_stations = (150 / scale).max(4);
        let nr_timesteps = (8192 / (scale * scale)).max(32);
        let aterm_interval = 256usize.min(nr_timesteps).max(1);
        let obs = Observation::builder()
            .stations(nr_stations)
            .timesteps(nr_timesteps)
            .channels(16, 150e6, 1e6)
            .grid_size(2048 / scale.min(4))
            .subgrid_size(24)
            .aterm_interval(aterm_interval)
            .image_size(0.05)
            .build()?;
        // Scale the spiral-arm extent with the grid so every baseline
        // stays representable (max |uvw| rotation-safe: the w-component
        // can reach the full baseline length, so budget for it too).
        let lambda_min = obs.min_wavelength();
        let max_baseline_m = obs.max_uv_wavelengths() * lambda_min;
        let arm_radius = (0.40 * max_baseline_m).min(18_000.0);
        let core_radius = (arm_radius / 10.0).min(1_000.0);
        let layout = Layout::ska1_low(nr_stations, core_radius, arm_radius, seed);
        let sky = SkyModel::random(&obs, 16, 0.7, seed ^ 0x5137);
        Ok(Self::simulate(obs, &layout, sky, &IdentityATerm))
    }

    /// uvw of `(baseline_index, timestep)`.
    #[inline]
    pub fn uvw_at(&self, baseline_index: usize, timestep: usize) -> Uvw {
        self.uvw[baseline_index * self.obs.nr_timesteps + timestep]
    }

    /// Visibility of `(baseline_index, timestep, channel)`.
    #[inline]
    pub fn vis_at(
        &self,
        baseline_index: usize,
        timestep: usize,
        channel: usize,
    ) -> Visibility<f32> {
        let nr_chan = self.obs.nr_channels();
        self.visibilities[(baseline_index * self.obs.nr_timesteps + timestep) * nr_chan + channel]
    }

    /// Total number of visibilities.
    pub fn nr_visibilities(&self) -> usize {
        self.visibilities.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_scales_down() {
        let ds = Dataset::representative(10, 1).expect("representative dataset");
        assert_eq!(ds.obs.nr_stations, 15);
        assert_eq!(ds.obs.subgrid_size, 24);
        assert_eq!(ds.obs.nr_channels(), 16);
        assert_eq!(ds.uvw.len(), ds.obs.nr_baselines() * ds.obs.nr_timesteps);
        assert_eq!(ds.visibilities.len(), ds.obs.nr_visibilities());
        assert!(ds.aterms.is_identity());
    }

    #[test]
    fn indexing_helpers_agree_with_layout() {
        let ds = Dataset::representative(15, 2).expect("representative dataset");
        let nr_chan = ds.obs.nr_channels();
        let bl = 3;
        let t = 5;
        let c = 7;
        assert_eq!(ds.uvw_at(bl, t), ds.uvw[bl * ds.obs.nr_timesteps + t]);
        assert_eq!(
            ds.vis_at(bl, t, c).pols,
            ds.visibilities[(bl * ds.obs.nr_timesteps + t) * nr_chan + c].pols
        );
    }

    #[test]
    fn simulation_is_seeded() {
        let a = Dataset::representative(15, 3).expect("representative dataset");
        let b = Dataset::representative(15, 3).expect("representative dataset");
        assert_eq!(a.uvw, b.uvw);
        assert_eq!(a.visibilities[0].pols, b.visibilities[0].pols);
        assert_eq!(a.sky, b.sky);
    }

    #[test]
    fn visibilities_are_finite_and_nonzero() {
        let ds = Dataset::representative(15, 4).expect("representative dataset");
        let mut power = 0.0f64;
        for v in &ds.visibilities {
            for p in v.pols {
                assert!(p.is_finite());
                power += p.norm_sqr() as f64;
            }
        }
        assert!(power > 0.0);
    }

    #[test]
    #[should_panic(expected = "station mismatch")]
    fn layout_mismatch_panics() {
        let obs = Observation::builder()
            .stations(8)
            .timesteps(16)
            .grid_size(256)
            .subgrid_size(16)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 100.0, 0);
        Dataset::simulate(obs, &layout, SkyModel::empty(), &IdentityATerm);
    }
}
