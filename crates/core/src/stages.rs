//! Staged pipeline execution — the conformance harness's view of a
//! back-end.
//!
//! [`Proxy::grid`] and [`Proxy::degrid`] run their three kernel stages
//! back-to-back and only return the final product, which is the right
//! API for applications but useless for *attributing* a numerical
//! discrepancy: a grid that disagrees by 1e-3 says nothing about
//! whether the gridder, the subgrid FFT, or the adder diverged. The
//! `*_stages` variants here run the identical kernels in the identical
//! order but snapshot every intermediate buffer, so the conformance
//! suite (`crates/conformance`) can compare back-ends stage by stage
//! against the scalar reference.
//!
//! They stay a separate driver on purpose: this is the conformance
//! hook, and its snapshots need clones of every intermediate that the
//! production chain must not pay for.
//!
//! These methods are *functional* only: no timing, no execution report,
//! no pipeline modeling. GPU back-ends execute their kernels in a
//! single launch group (numerically identical to the grouped launches
//! of [`idg_gpusim::GpuExecutor`], which partition work items purely
//! for the performance model).

use crate::proxy::Proxy;
use idg_fft::Direction;
use idg_kernels::{add_subgrids, fft_subgrids, split_subgrids, FftNorm, SubgridArray};
use idg_plan::Plan;
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Uvw, Visibility};

/// Every intermediate buffer of one gridding pass.
#[derive(Clone, Debug)]
pub struct GridStages {
    /// Image-domain subgrids straight out of the gridder kernel
    /// (taper and A-terms applied, before any FFT).
    pub gridder_subgrids: SubgridArray,
    /// The same subgrids after the forward FFT (Fourier domain,
    /// unnormalized, DC at index 0).
    pub fft_subgrids: SubgridArray,
    /// The final grid after the adder.
    pub grid: Grid<f32>,
}

/// Every intermediate buffer of one degridding pass.
#[derive(Clone, Debug)]
pub struct DegridStages {
    /// Subgrid regions extracted from the grid by the splitter
    /// (Fourier domain).
    pub split_subgrids: SubgridArray,
    /// The same subgrids after the inverse FFT (image domain).
    pub ifft_subgrids: SubgridArray,
    /// The predicted visibilities out of the degridder kernel.
    pub visibilities: Vec<Visibility<f32>>,
}

impl Proxy {
    /// Run the gridding pass, snapshotting each stage.
    pub fn grid_stages(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<GridStages, IdgError> {
        let data = self.gridding_input(uvw, visibilities, aterms)?;

        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), self.observation().subgrid_size);
        self.launch_gridder(&data, &plan.items, &mut subgrids)?;
        let gridder_subgrids = subgrids.clone();

        fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
        let fft_snapshot = subgrids.clone();

        let mut grid = Grid::<f32>::new(self.observation().grid_size);
        add_subgrids(&mut grid, &plan.items, &subgrids, self.kernel_cache())?;

        Ok(GridStages {
            gridder_subgrids,
            fft_subgrids: fft_snapshot,
            grid,
        })
    }

    /// Run the degridding pass, snapshotting each stage.
    pub fn degrid_stages(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<DegridStages, IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.observation().nr_visibilities()];
        let data = self.degridding_input(grid, uvw, &zeros, aterms)?;

        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), self.observation().subgrid_size);
        split_subgrids(grid, &plan.items, &mut subgrids, self.kernel_cache())?;
        let split_snapshot = subgrids.clone();

        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        let ifft_snapshot = subgrids.clone();

        let mut vis = vec![Visibility::<f32>::zero(); self.observation().nr_visibilities()];
        self.launch_degridder(&data, &plan.items, &subgrids, &mut vis)?;

        Ok(DegridStages {
            split_subgrids: split_snapshot,
            ifft_subgrids: ifft_snapshot,
            visibilities: vis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use idg_telescope::{Dataset, Layout, SkyModel};
    use idg_types::Observation;

    #[test]
    fn stages_agree_with_the_monolithic_pass() {
        let obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(2, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 700.0, 41);
        let sky = SkyModel::random(&obs, 3, 0.5, 43);
        let ds = Dataset::simulate(obs, &layout, sky, &idg_telescope::IdentityATerm);

        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();

            let (grid, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let stages = proxy
                .grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_eq!(grid.as_slice(), stages.grid.as_slice(), "{backend:?} grid");

            let (vis, _) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
            let dstages = proxy
                .degrid_stages(&plan, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_eq!(vis, dstages.visibilities, "{backend:?} visibilities");
        }
    }
}
