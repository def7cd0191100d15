//! The imaging major cycle (Fig. 2 of the paper).
//!
//! Starting from an empty sky model, each major cycle:
//!
//! 1. **images** the residual visibilities (gridding + inverse FFT),
//! 2. extracts bright components with CLEAN minor cycles,
//! 3. **predicts** the cumulative model (FFT + degridding), and
//! 4. subtracts the prediction from the input visibilities,
//!
//! "repeated until the sky model converges". The gridding and degridding
//! steps run through the `idg` proxy, so the whole cycle exercises the
//! paper's kernels end to end and yields the per-stage runtime
//! distribution of Fig. 9.

use crate::clean::{components_to_image, hogbom_clean, CleanComponent, CleanParams};
use crate::image::{dirty_image, model_grid_from_image, psf_image, Image};
use idg::telescope::ATerms;
use idg::{ExecutionReport, IdgError, Plan, Proxy, Uvw, Visibility};

/// Outcome of a full imaging run.
#[derive(Clone, Debug)]
pub struct MajorCycleReport {
    /// All extracted components (cumulative sky model).
    pub components: Vec<CleanComponent>,
    /// Residual-image RMS after each major cycle (index 0 = dirty map).
    pub residual_rms: Vec<f64>,
    /// Per-cycle gridding execution reports.
    pub gridding_reports: Vec<ExecutionReport>,
    /// Per-cycle degridding execution reports.
    pub degridding_reports: Vec<ExecutionReport>,
    /// The final residual image.
    pub residual: Image,
}

impl MajorCycleReport {
    /// Total recovered model flux.
    pub fn model_flux(&self) -> f64 {
        self.components.iter().map(|c| c.flux as f64).sum()
    }

    /// Aggregate time spent per stage across all cycles:
    /// `(gridder, degridder, fft, adder+splitter, transfers)` — the
    /// Fig. 9 decomposition.
    pub fn stage_totals(&self) -> (f64, f64, f64, f64, f64) {
        let mut gridder = 0.0;
        let mut degridder = 0.0;
        let mut fft = 0.0;
        let mut adder = 0.0;
        let mut transfer = 0.0;
        for r in &self.gridding_reports {
            gridder += r.kernel_seconds;
            fft += r.fft_seconds;
            adder += r.adder_seconds;
            transfer += r.transfer_seconds;
        }
        for r in &self.degridding_reports {
            degridder += r.kernel_seconds;
            fft += r.fft_seconds;
            adder += r.adder_seconds;
            transfer += r.transfer_seconds;
        }
        (gridder, degridder, fft, adder, transfer)
    }
}

/// Drives major cycles for one observation.
pub struct ImagingCycle<'a> {
    proxy: &'a Proxy,
    plan: &'a Plan,
    uvw: &'a [Uvw],
    aterms: &'a ATerms,
}

impl<'a> ImagingCycle<'a> {
    /// Bundle the static inputs of a run.
    pub fn new(proxy: &'a Proxy, plan: &'a Plan, uvw: &'a [Uvw], aterms: &'a ATerms) -> Self {
        Self {
            proxy,
            plan,
            uvw,
            aterms,
        }
    }

    /// Run `nr_major_cycles` against the observed `visibilities`. A plan
    /// that grids no visibility is an [`IdgError::InvalidParameter`]
    /// (from [`psf_image`], before any major cycle).
    pub fn run(
        &self,
        visibilities: &[Visibility<f32>],
        nr_major_cycles: usize,
        clean: &CleanParams,
    ) -> Result<MajorCycleReport, IdgError> {
        let obs = self.proxy.observation();
        let weight = self.plan.nr_gridded_visibilities();
        let psf = psf_image(self.proxy, self.plan, self.uvw, self.aterms)?;

        let mut components: Vec<CleanComponent> = Vec::new();
        let mut residual_vis: Vec<Visibility<f32>> = visibilities.to_vec();
        let mut residual_rms = Vec::new();
        let mut gridding_reports = Vec::new();
        let mut degridding_reports = Vec::new();

        for _cycle in 0..nr_major_cycles {
            // (1) image the residual visibilities
            let (grid, g_report) =
                self.proxy
                    .grid(self.plan, self.uvw, &residual_vis, self.aterms)?;
            gridding_reports.push(g_report);
            let mut working = dirty_image(&grid, obs, weight);
            residual_rms.push(working.rms_inner(0.1));

            // (2) minor cycles (in place on this cycle's residual map)
            let new_components = hogbom_clean(&mut working, &psf, clean);
            if new_components.is_empty() {
                break;
            }
            for c in new_components {
                if let Some(existing) = components.iter_mut().find(|e| e.x == c.x && e.y == c.y) {
                    existing.flux += c.flux;
                } else {
                    components.push(c);
                }
            }

            // (3) predict the cumulative model
            let model = components_to_image(&components, obs.grid_size);
            let model_grid = model_grid_from_image(&model, obs);
            let (predicted, d_report) =
                self.proxy
                    .degrid(self.plan, &model_grid, self.uvw, self.aterms)?;
            degridding_reports.push(d_report);

            // (4) subtract from the *input* visibilities
            residual_vis = visibilities
                .iter()
                .zip(predicted.iter())
                .map(|(d, p)| d.sub(*p))
                .collect();
        }

        // final residual map
        let (grid, g_report) = self
            .proxy
            .grid(self.plan, self.uvw, &residual_vis, self.aterms)?;
        gridding_reports.push(g_report);
        let residual = dirty_image(&grid, obs, weight);
        residual_rms.push(residual.rms_inner(0.1));

        Ok(MajorCycleReport {
            components,
            residual_rms,
            gridding_reports,
            degridding_reports,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::types::Observation;
    use idg::Backend;
    use idg_telescope::{Dataset, IdentityATerm, Layout, PointSource, SkyModel};

    fn dataset(sky: SkyModel) -> Dataset {
        let obs = Observation::builder()
            .stations(8)
            .timesteps(64)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(32)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(obs.nr_stations, 1200.0, 103);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    #[test]
    fn major_cycles_reduce_residual_and_recover_flux() {
        let sky = SkyModel {
            sources: vec![
                PointSource {
                    l: 0.006,
                    m: 0.004,
                    flux: 3.0,
                },
                PointSource {
                    l: -0.009,
                    m: 0.002,
                    flux: 1.5,
                },
            ],
        };
        let total_flux = sky.total_flux();
        let ds = dataset(sky);
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let cycle = ImagingCycle::new(&proxy, &plan, &ds.uvw, &ds.aterms);

        let clean = CleanParams {
            gain: 0.2,
            max_iterations: 300,
            threshold: 0.05,
            ..CleanParams::default()
        };
        let report = cycle.run(&ds.visibilities, 3, &clean).unwrap();

        // residual RMS decreases monotonically (up to small jitter)
        let rms = &report.residual_rms;
        assert!(rms.len() >= 2);
        assert!(rms.last().unwrap() < &(0.5 * rms[0]), "rms history {rms:?}");
        // recovered flux close to injected flux
        let flux = report.model_flux();
        assert!(
            (flux - total_flux).abs() / total_flux < 0.15,
            "model flux {flux} vs injected {total_flux}"
        );
        // the two dominant components sit at the right pixels
        let mut sorted = report.components.clone();
        sorted.sort_by(|a, b| b.flux.total_cmp(&a.flux));
        let ex = crate::image::Image::lm_to_pixel(&ds.obs, 0.006);
        let ey = crate::image::Image::lm_to_pixel(&ds.obs, 0.004);
        assert!(sorted[0].x.abs_diff(ex) <= 1 && sorted[0].y.abs_diff(ey) <= 1);
    }

    #[test]
    fn empty_sky_converges_immediately() {
        let ds = dataset(SkyModel::empty());
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let cycle = ImagingCycle::new(&proxy, &plan, &ds.uvw, &ds.aterms);
        let clean = CleanParams {
            gain: 0.2,
            max_iterations: 100,
            threshold: 0.05,
            ..CleanParams::default()
        };
        let report = cycle.run(&ds.visibilities, 3, &clean).unwrap();
        assert!(report.components.is_empty());
        assert!(report.model_flux() == 0.0);
    }

    #[test]
    fn plan_that_grids_nothing_is_an_error() {
        let mut ds = dataset(SkyModel::single_center(1.0));
        for uvw in &mut ds.uvw {
            (uvw.u, uvw.v) = (1e9, 1e9);
        }
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let cycle = ImagingCycle::new(&proxy, &plan, &ds.uvw, &ds.aterms);
        let err = cycle
            .run(&ds.visibilities, 1, &CleanParams::default())
            .expect_err("nothing gridded");
        assert!(
            matches!(&err, IdgError::InvalidParameter(m) if m.contains("no gridded visibilities")),
            "{err}"
        );
    }

    #[test]
    fn stage_totals_aggregate_reports() {
        let ds = dataset(SkyModel::single_center(1.0));
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let cycle = ImagingCycle::new(&proxy, &plan, &ds.uvw, &ds.aterms);
        let clean = CleanParams {
            gain: 0.3,
            max_iterations: 50,
            threshold: 0.05,
            ..CleanParams::default()
        };
        let report = cycle.run(&ds.visibilities, 1, &clean).unwrap();
        let (g, d, f, a, t) = report.stage_totals();
        assert!(g > 0.0 && f > 0.0 && a > 0.0);
        assert!(d >= 0.0 && t == 0.0, "CPU back-end has no transfers");
        assert_eq!(
            report.gridding_reports.len(),
            2,
            "initial + final residual map"
        );
    }
}
