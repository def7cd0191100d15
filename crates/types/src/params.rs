//! Observation parameters.
//!
//! [`Observation`] bundles everything the planner, kernels and simulators
//! need to agree on: array size, time/frequency sampling, image geometry
//! and IDG tile configuration. The defaults of [`ObservationBuilder`]
//! reproduce the paper's benchmark data set (Sec. VI-A): 150 stations,
//! 8192 time steps of 1 s, 16 channels, A-terms updated every 256 time
//! steps, 24×24 subgrids on a 2048×2048 grid.

use crate::error::IdgError;
use crate::vis::Baseline;

/// Speed of light in m/s; converts uvw meters to wavelengths.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Immutable description of one observation / imaging run.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Number of stations in the array.
    pub nr_stations: usize,
    /// Number of time steps per baseline.
    pub nr_timesteps: usize,
    /// Integration time per step, seconds.
    pub integration_time: f64,
    /// Channel center frequencies, Hz (length = number of channels).
    pub frequencies: Vec<f64>,
    /// Master grid edge length, pixels.
    pub grid_size: usize,
    /// Subgrid edge length, pixels (the paper uses 24).
    pub subgrid_size: usize,
    /// Field-of-view edge length, radians (the "image size" of IDG).
    pub image_size: f64,
    /// Support of the combined A-term/W-term/taper kernel, pixels; the
    /// planner reserves this margin around the visibilities it covers.
    pub kernel_size: usize,
    /// A-term update interval, in time steps (256 in the paper).
    pub aterm_interval: usize,
    /// Maximum number of time steps per subgrid (`T̃_max`, Sec. V-A);
    /// bounds per-work-item compute and memory.
    pub max_timesteps_per_subgrid: usize,
    /// W-stacking step in wavelengths; `0.0` disables W-layering.
    pub w_step: f64,
}

impl Observation {
    /// Start building an observation with the paper's defaults.
    pub fn builder() -> ObservationBuilder {
        ObservationBuilder::default()
    }

    /// Number of frequency channels.
    #[inline]
    pub fn nr_channels(&self) -> usize {
        self.frequencies.len()
    }

    /// Number of distinct baselines (no auto-correlations).
    #[inline]
    pub fn nr_baselines(&self) -> usize {
        self.nr_stations * (self.nr_stations - 1) / 2
    }

    /// All baselines in canonical order.
    pub fn baselines(&self) -> Vec<Baseline> {
        Baseline::all(self.nr_stations)
    }

    /// Total number of visibilities = baselines × time steps × channels.
    #[inline]
    pub fn nr_visibilities(&self) -> usize {
        self.nr_baselines() * self.nr_timesteps * self.nr_channels()
    }

    /// Number of A-term intervals covering the observation.
    #[inline]
    pub fn nr_aterm_intervals(&self) -> usize {
        self.nr_timesteps.div_ceil(self.aterm_interval)
    }

    /// The A-term interval index a time step falls into.
    #[inline]
    pub fn aterm_index(&self, timestep: usize) -> usize {
        timestep / self.aterm_interval
    }

    /// Map a (u or v) coordinate in *wavelengths* to a fractional grid
    /// pixel coordinate; the grid center (DC) sits at `grid_size/2`.
    #[inline]
    pub fn uv_to_pixel(&self, uv_wavelengths: f64) -> f64 {
        uv_wavelengths * self.image_size + self.grid_size as f64 / 2.0
    }

    /// Inverse of [`Self::uv_to_pixel`].
    #[inline]
    pub fn pixel_to_uv(&self, pixel: f64) -> f64 {
        (pixel - self.grid_size as f64 / 2.0) / self.image_size
    }

    /// Shortest wavelength, meters.
    pub fn min_wavelength(&self) -> f64 {
        let f_max = self.frequencies.iter().copied().fold(0.0f64, f64::max);
        SPEED_OF_LIGHT / f_max
    }

    /// Largest |u| or |v| (in wavelengths) the grid can represent without
    /// the kernel margin spilling off the edge.
    pub fn max_uv_wavelengths(&self) -> f64 {
        ((self.grid_size - self.subgrid_size) as f64 / 2.0) / self.image_size
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), IdgError> {
        if self.nr_stations < 2 {
            return Err(IdgError::InvalidParameter(
                "nr_stations must be >= 2".into(),
            ));
        }
        if self.frequencies.is_empty() {
            return Err(IdgError::InvalidParameter(
                "frequencies must be non-empty".into(),
            ));
        }
        if self.nr_timesteps == 0 {
            return Err(IdgError::InvalidParameter(
                "nr_timesteps must be > 0".into(),
            ));
        }
        if self.subgrid_size >= self.grid_size {
            return Err(IdgError::InvalidParameter(
                "subgrid_size must be smaller than grid_size".into(),
            ));
        }
        if self.kernel_size >= self.subgrid_size {
            return Err(IdgError::InvalidParameter(
                "kernel_size must be smaller than subgrid_size".into(),
            ));
        }
        if self.image_size <= 0.0 || self.image_size > 2.0 || self.image_size.is_nan() {
            return Err(IdgError::InvalidParameter(
                "image_size must be in (0, 2] radians".into(),
            ));
        }
        if self.aterm_interval == 0 || self.max_timesteps_per_subgrid == 0 {
            return Err(IdgError::InvalidParameter(
                "aterm_interval and max_timesteps_per_subgrid must be > 0".into(),
            ));
        }
        if self.frequencies.iter().any(|f| *f <= 0.0 || f.is_nan()) {
            return Err(IdgError::InvalidParameter(
                "frequencies must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`Observation`]; defaults reproduce the paper's benchmark.
#[derive(Clone, Debug)]
pub struct ObservationBuilder {
    nr_stations: usize,
    nr_timesteps: usize,
    integration_time: f64,
    start_frequency: f64,
    channel_width: f64,
    nr_channels: usize,
    grid_size: usize,
    subgrid_size: usize,
    image_size: f64,
    kernel_size: usize,
    aterm_interval: usize,
    max_timesteps_per_subgrid: usize,
    w_step: f64,
}

impl Default for ObservationBuilder {
    fn default() -> Self {
        Self {
            nr_stations: 150,
            nr_timesteps: 8192,
            integration_time: 1.0,
            start_frequency: 150e6, // SKA1-low band center region
            channel_width: 1e6,
            nr_channels: 16,
            grid_size: 2048,
            subgrid_size: 24,
            image_size: 0.05, // ~2.9 degrees FoV
            kernel_size: 9,
            aterm_interval: 256,
            max_timesteps_per_subgrid: 128,
            w_step: 0.0,
        }
    }
}

impl ObservationBuilder {
    /// Set the number of stations.
    pub fn stations(mut self, n: usize) -> Self {
        self.nr_stations = n;
        self
    }
    /// Set the number of time steps.
    pub fn timesteps(mut self, n: usize) -> Self {
        self.nr_timesteps = n;
        self
    }
    /// Set the integration time in seconds.
    pub fn integration_time(mut self, t: f64) -> Self {
        self.integration_time = t;
        self
    }
    /// Set the channel layout: `nr` channels starting at `start` Hz spaced
    /// `width` Hz apart.
    pub fn channels(mut self, nr: usize, start: f64, width: f64) -> Self {
        self.nr_channels = nr;
        self.start_frequency = start;
        self.channel_width = width;
        self
    }
    /// Set the grid edge length in pixels.
    pub fn grid_size(mut self, n: usize) -> Self {
        self.grid_size = n;
        self
    }
    /// Set the subgrid edge length in pixels.
    pub fn subgrid_size(mut self, n: usize) -> Self {
        self.subgrid_size = n;
        self
    }
    /// Set the field of view in radians.
    pub fn image_size(mut self, s: f64) -> Self {
        self.image_size = s;
        self
    }
    /// Set the convolution-kernel support in pixels.
    pub fn kernel_size(mut self, n: usize) -> Self {
        self.kernel_size = n;
        self
    }
    /// Set the A-term update interval in time steps.
    pub fn aterm_interval(mut self, n: usize) -> Self {
        self.aterm_interval = n;
        self
    }
    /// Set `T̃_max`, the per-subgrid time-step cap.
    pub fn max_timesteps_per_subgrid(mut self, n: usize) -> Self {
        self.max_timesteps_per_subgrid = n;
        self
    }
    /// Set the W-stacking step in wavelengths (0 = disabled).
    pub fn w_step(mut self, w: f64) -> Self {
        self.w_step = w;
        self
    }

    /// Finalize and validate.
    pub fn build(self) -> Result<Observation, IdgError> {
        let frequencies: Vec<f64> = (0..self.nr_channels)
            .map(|c| self.start_frequency + c as f64 * self.channel_width)
            .collect();
        let obs = Observation {
            nr_stations: self.nr_stations,
            nr_timesteps: self.nr_timesteps,
            integration_time: self.integration_time,
            frequencies,
            grid_size: self.grid_size,
            subgrid_size: self.subgrid_size,
            image_size: self.image_size,
            kernel_size: self.kernel_size,
            aterm_interval: self.aterm_interval,
            max_timesteps_per_subgrid: self.max_timesteps_per_subgrid,
            w_step: self.w_step,
        };
        obs.validate()?;
        Ok(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let obs = Observation::builder().build().unwrap();
        assert_eq!(obs.nr_stations, 150);
        assert_eq!(obs.nr_baselines(), 11_175);
        assert_eq!(obs.nr_timesteps, 8192);
        assert_eq!(obs.nr_channels(), 16);
        assert_eq!(obs.grid_size, 2048);
        assert_eq!(obs.subgrid_size, 24);
        assert_eq!(obs.aterm_interval, 256);
        assert_eq!(obs.nr_aterm_intervals(), 32);
        assert_eq!(obs.nr_visibilities(), 11_175 * 8192 * 16);
    }

    #[test]
    fn uv_pixel_round_trip() {
        let obs = Observation::builder().build().unwrap();
        let uv = 1234.5;
        let px = obs.uv_to_pixel(uv);
        assert!((obs.pixel_to_uv(px) - uv).abs() < 1e-9);
        // DC maps to the grid center.
        assert_eq!(obs.uv_to_pixel(0.0), 1024.0);
    }

    #[test]
    fn aterm_indexing() {
        let obs = Observation::builder().build().unwrap();
        assert_eq!(obs.aterm_index(0), 0);
        assert_eq!(obs.aterm_index(255), 0);
        assert_eq!(obs.aterm_index(256), 1);
        assert_eq!(obs.aterm_index(8191), 31);
    }

    #[test]
    fn wavelength_bounds() {
        let obs = Observation::builder()
            .channels(2, 100e6, 100e6)
            .build()
            .unwrap();
        assert!((obs.min_wavelength() - SPEED_OF_LIGHT / 200e6).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(Observation::builder().stations(1).build().is_err());
        assert!(Observation::builder().timesteps(0).build().is_err());
        assert!(Observation::builder()
            .channels(0, 100e6, 1e6)
            .build()
            .is_err());
        assert!(Observation::builder().subgrid_size(4096).build().is_err());
        assert!(Observation::builder().kernel_size(24).build().is_err());
        assert!(Observation::builder().image_size(0.0).build().is_err());
        assert!(Observation::builder().image_size(3.0).build().is_err());
        assert!(Observation::builder().aterm_interval(0).build().is_err());
        assert!(Observation::builder()
            .channels(2, -1.0, 1.0)
            .build()
            .is_err());
    }

    #[test]
    fn max_uv_is_consistent_with_grid() {
        let obs = Observation::builder().build().unwrap();
        let max_uv = obs.max_uv_wavelengths();
        let px = obs.uv_to_pixel(max_uv);
        // Leaves exactly subgrid_size/2 pixels of margin at the edge.
        assert!((px - (obs.grid_size - obs.subgrid_size / 2) as f64).abs() < 1e-6);
    }

    #[test]
    fn frequencies_are_evenly_spaced() {
        let obs = Observation::builder()
            .channels(4, 100e6, 2e6)
            .build()
            .unwrap();
        assert_eq!(obs.frequencies, vec![100e6, 102e6, 104e6, 106e6]);
    }
}
