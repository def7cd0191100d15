//! The four workloads: generated inputs, set-up and entry points.
//!
//! Sizes are chosen so that one round (a grid pass, an imaging step and
//! a degrid pass) takes 1–3 s on a 2-core host, which gives 7–20 rounds
//! inside one 20-s `--seconds` budget; README.md records the parameters and
//! why each workload exists. `--seed` feeds every `Layout`, `SkyModel`
//! and `GaussianBeam` seed; the library only ever sees generated inputs.

use idg::telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
use idg::types::Observation;
use idg::{Backend, ChunkPolicy, Grid, IdgError, Plan, Proxy, StreamConfig, Visibility};
use idg_imaging::{dirty_image, CleanParams, ImagingCycle, MajorCycleReport};
use std::time::Instant;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    SkaDense,
    SparseSnapshot,
    MajorCycle,
    DeviceStream,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SkaDense,
        Kind::SparseSnapshot,
        Kind::MajorCycle,
        Kind::DeviceStream,
    ];

    /// The name in `BENCHMARK.json` (`metrics::WORKLOADS`, same order).
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize]
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Major cycles per `ImagingCycle::run` of the `major_cycle` workload.
pub const MAJOR_CYCLES: usize = 2;

/// Minor-cycle parameters of the `major_cycle` workload.
pub const CLEAN: CleanParams = CleanParams {
    gain: 0.2,
    max_iterations: 300,
    threshold: 0.05,
    search_border: 0.25,
};

/// Run `f` and return its result with the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed().as_secs_f64())
}

/// SKA1-low-like station layout scaled to the grid of `obs`, the way
/// `Dataset::representative` scales it: every baseline stays
/// representable, so no visibility is skipped.
fn layout_for(obs: &Observation, seed: u64) -> Layout {
    let max_baseline_m = obs.max_uv_wavelengths() * obs.min_wavelength();
    let arm_radius = (0.40 * max_baseline_m).min(18_000.0);
    let core_radius = (arm_radius / 10.0).min(1_000.0);
    Layout::ska1_low(obs.nr_stations, core_radius, arm_radius, seed)
}

/// Generate the inputs of `kind` from `seed` (layer `telescope`).
pub fn simulate(kind: Kind, seed: u64) -> Result<Dataset, IdgError> {
    match kind {
        // The paper's Sec. VI-A shape: 16 channels, 24² subgrids, one
        // identity A-term slot, ~1 200 visibilities per subgrid.
        Kind::SkaDense => Dataset::representative(7, seed),
        // The opposite regime: one channel and an A-term update every 8
        // steps give 8-visibility subgrids on a 2048² grid.
        Kind::SparseSnapshot => {
            let obs = Observation::builder()
                .stations(24)
                .timesteps(64)
                .channels(1, 150e6, 1e6)
                .grid_size(2048)
                .subgrid_size(24)
                .aterm_interval(8)
                .image_size(0.05)
                .build()?;
            let sky = SkyModel::random(&obs, 16, 0.7, seed ^ 0x5137);
            let layout = layout_for(&obs, seed);
            Ok(Dataset::simulate(obs, &layout, sky, &IdentityATerm))
        }
        Kind::MajorCycle | Kind::DeviceStream => {
            let obs = Observation::builder()
                .stations(20)
                .timesteps(128)
                .channels(8, 150e6, 1e6)
                .grid_size(1024)
                .subgrid_size(24)
                .aterm_interval(32)
                .image_size(0.05)
                .build()?;
            // Three point sources at seeded positions; fixed fluxes keep
            // the CLEAN iteration count close between seeds.
            let mut sky = SkyModel::random(&obs, 3, 0.5, seed ^ 0x5137);
            for (source, flux) in sky.sources.iter_mut().zip([3.0, 2.0, 1.0]) {
                source.flux = flux;
            }
            let layout = layout_for(&obs, seed);
            Ok(if kind == Kind::MajorCycle {
                // non-identity Jones path: a drifting Gaussian beam
                let beam = GaussianBeam::new(&obs, 0.55, seed);
                Dataset::simulate(obs, &layout, sky, &beam)
            } else {
                Dataset::simulate(obs, &layout, sky, &IdentityATerm)
            })
        }
    }
}

/// One workload, set up: inputs, proxy and plan.
pub struct Bench {
    pub ds: Dataset,
    pub proxy: Proxy,
    pub plan: Plan,
    /// `device_stream` only: 4 chunks of 32 steps, 2 workers, window 2.
    pub stream: Option<StreamConfig>,
}

impl Bench {
    /// Simulate the inputs, build the proxy and the plan.
    pub fn new(kind: Kind, seed: u64) -> Result<Bench, IdgError> {
        let ds = simulate(kind, seed)?;
        let (proxy, stream) = if kind == Kind::DeviceStream {
            (
                Proxy::new(Backend::GpuPascal, ds.obs.clone())?.with_fleet(2),
                Some(StreamConfig::new(ChunkPolicy::by_timesteps(32), 2, 2)),
            )
        } else {
            (Proxy::new(Backend::CpuOptimized, ds.obs.clone())?, None)
        };
        let plan = Plan::create(&ds.obs, &ds.uvw)?;
        Ok(Bench {
            ds,
            proxy,
            plan,
            stream,
        })
    }

    /// Set-up as a user pays it: [`Bench::new`] plus one warm-up grid and
    /// degrid pass (cold `KernelCache`, first-touch allocation). Returns
    /// the warm-up grid, which later degrid passes read.
    pub fn warmed_up(kind: Kind, seed: u64) -> Result<(Bench, Grid<f32>), IdgError> {
        let bench = Bench::new(kind, seed)?;
        let grid = bench.grid()?;
        bench.degrid(&grid)?;
        Ok((bench, grid))
    }

    /// Visibilities a grid or degrid pass processes.
    pub fn nr_vis(&self) -> f64 {
        self.plan.nr_gridded_visibilities() as f64
    }

    /// The workload's grid entry point.
    pub fn grid(&self) -> Result<Grid<f32>, IdgError> {
        let ds = &self.ds;
        let (grid, _) = match &self.stream {
            Some(cfg) => self
                .proxy
                .grid_streamed(cfg, &ds.uvw, &ds.visibilities, &ds.aterms)?,
            None => self
                .proxy
                .grid(&self.plan, &ds.uvw, &ds.visibilities, &ds.aterms)?,
        };
        Ok(grid)
    }

    /// The workload's degrid entry point.
    pub fn degrid(&self, grid: &Grid<f32>) -> Result<Vec<Visibility<f32>>, IdgError> {
        let ds = &self.ds;
        let (vis, _) = match &self.stream {
            Some(cfg) => self.proxy.degrid_streamed(cfg, grid, &ds.uvw, &ds.aterms)?,
            None => self.proxy.degrid(&self.plan, grid, &ds.uvw, &ds.aterms)?,
        };
        Ok(vis)
    }

    /// `major_cycle`'s imaging entry point.
    pub fn cycle(&self) -> Result<MajorCycleReport, IdgError> {
        let ds = &self.ds;
        ImagingCycle::new(&self.proxy, &self.plan, &ds.uvw, &ds.aterms).run(
            &ds.visibilities,
            MAJOR_CYCLES,
            &CLEAN,
        )
    }

    /// The imaging step of the other three workloads: the dirty image of
    /// a grid the grid entry point produced.
    pub fn dirty(&self, grid: &Grid<f32>) -> idg_imaging::Image {
        dirty_image(grid, &self.ds.obs, self.plan.nr_gridded_visibilities())
    }
}

/// Residual rms must fall every major cycle and end at no more than half
/// the dirty map's.
pub fn rms_descends(rms: &[f64]) -> bool {
    rms.len() >= 2
        && rms.windows(2).all(|w| w[1] < w[0])
        && rms[rms.len() - 1] <= 0.5 * rms[0]
        && rms.iter().all(|r| r.is_finite())
}

/// Finite with non-zero power (a NaN or Inf sample makes the sum so).
pub fn grid_ok(grid: &Grid<f32>) -> bool {
    let power = grid.power();
    power.is_finite() && power > 0.0
}

/// Finite with non-zero power.
pub fn vis_ok(vis: &[Visibility<f32>]) -> bool {
    let power: f64 = vis
        .iter()
        .flat_map(|v| v.pols)
        .map(|p| f64::from(p.norm_sqr()))
        .sum();
    power.is_finite() && power > 0.0
}

/// Bit-identical visibility buffers.
pub fn same_vis(a: &[Visibility<f32>], b: &[Visibility<f32>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.pols == b.pols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_map_both_ways() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn descent_rule() {
        assert!(rms_descends(&[1.0, 0.6, 0.4]));
        assert!(!rms_descends(&[1.0, 0.6, 0.7]));
        assert!(!rms_descends(&[1.0, 0.9, 0.8]));
        assert!(!rms_descends(&[1.0]));
        assert!(!rms_descends(&[1.0, f64::NAN]));
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = simulate(Kind::SparseSnapshot, 7).unwrap();
        let b = simulate(Kind::SparseSnapshot, 7).unwrap();
        let c = simulate(Kind::SparseSnapshot, 8).unwrap();
        assert_eq!(a.uvw, b.uvw);
        assert_eq!(a.visibilities[17].pols, b.visibilities[17].pols);
        assert_ne!(a.uvw, c.uvw);
    }
}
