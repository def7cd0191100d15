//! W-stacking imaging with IDG.
//!
//! IDG evaluates the `w·n` phase exactly per subgrid pixel, but a large
//! *residual* w bends the phase so strongly across the subgrid that its
//! effective Fourier support outgrows the planner's kernel margin —
//! aliasing. Two remedies, both from the paper (Sec. IV/VI-E):
//! larger subgrids, or **W-stacking**: partition the visibilities over
//! w-planes (`Observation::w_step`), grid each plane into its *own*
//! grid with the per-plane offset `w₀ = plane·w_step` removed inside the
//! kernels, and merge in the image domain after multiplying each plane's
//! image by its phase screen `e^{+2πi w₀ n(l,m)}`:
//!
//! `I(l,m) = Σ_p  e^{2πi w_p n} · F⁻¹(grid_p)`
//!
//! "larger subgrids (e.g. up to 64 × 64) can be used in connection with
//! W-stacking to dramatically limit the number of required W-planes" —
//! the `ablation_wstacking` bench quantifies that trade.

use crate::image::{finalize_dirty, nonzero_weight, stokes_i, Image};
use idg::fft::{Direction, Fft2d};
use idg::telescope::ATerms;
use idg::types::{Cf32, Grid};
use idg::{ExecutionReport, IdgError, Plan, Proxy, Uvw, Visibility};

/// Result of a W-stacked imaging pass.
#[derive(Clone, Debug)]
pub struct WStackReport {
    /// Number of w-planes gridded.
    pub nr_planes: usize,
    /// Per-plane gridding reports.
    pub reports: Vec<ExecutionReport>,
    /// Peak grid memory the stack needed (one plane grid at a time here;
    /// a GPU implementation would hold several).
    pub grid_bytes_per_plane: usize,
}

/// The complex Stokes-I image `F⁻¹(½(XX + YY))` of one w-plane's grid,
/// un-normalized and not fftshifted: its imaginary part matters here,
/// because the w screen rotates it into the real image.
fn stokes_i_image(grid: &Grid<f32>) -> Vec<Cf32> {
    let n = grid.size();
    let spectrum = stokes_i(grid);
    let mut plane: Vec<Cf32> = (0..n * n).map(|i| spectrum(i / n, i % n)).collect();
    Fft2d::<f32>::new(n).process_grid(&mut plane, Direction::Inverse);
    plane
}

/// Grid and image an observation with W-stacking: one gridding pass and
/// one FFT per w-plane, merged with the per-plane w screens.
///
/// Requires a plan built with `obs.w_step > 0` (each work item already
/// carries its plane index and the kernels already remove the plane
/// offset from the phases — this routine supplies the per-plane grids
/// and the image-domain screens the single-grid path lacks); a proxy
/// whose `w_step` is not positive, or a plan that grids no visibility,
/// is an [`IdgError::InvalidParameter`].
pub fn wstack_dirty_image(
    proxy: &Proxy,
    plan: &Plan,
    uvw: &[Uvw],
    visibilities: &[Visibility<f32>],
    aterms: &ATerms,
) -> Result<(Image, WStackReport), IdgError> {
    let obs = proxy.observation();
    if obs.w_step <= 0.0 {
        return Err(IdgError::InvalidParameter(format!(
            "w-stacking needs obs.w_step > 0, got {}",
            obs.w_step
        )));
    }
    let planes = plan.w_planes();
    let size = obs.grid_size;
    let weight = nonzero_weight(plan.nr_gridded_visibilities())?;

    let mut acc = vec![0.0f32; size * size];
    let mut reports = Vec::new();

    for &p in &planes {
        let sub_plan = plan.subset_for_w_plane(p);
        let (grid, report) = proxy.grid(&sub_plan, uvw, visibilities, aterms)?;
        reports.push(report);

        // apply the plane's w screen and accumulate, in the unshifted
        // layout `finalize_dirty` reads: raw row/column k is image
        // pixel (k + size/2) mod size
        let image = stokes_i_image(&grid);
        let pixel_lm = |k: usize| Image::pixel_to_lm(obs, (k + size / 2) % size);
        let w0 = p as f64 * obs.w_step;
        let rows = acc.chunks_exact_mut(size).zip(image.chunks_exact(size));
        for (y, (acc_row, row)) in rows.enumerate() {
            let m = pixel_lm(y);
            for (x, (a, v)) in acc_row.iter_mut().zip(row).enumerate() {
                let l = pixel_lm(x);
                let r2 = l * l + m * m;
                let n = r2 / (1.0 + (1.0 - r2).sqrt());
                let phase = 2.0 * std::f64::consts::PI * w0 * n;
                let (s, c) = (phase.sin() as f32, phase.cos() as f32);
                // Re[v · e^{iφ}]
                *a += v.re * c - v.im * s;
            }
        }
    }

    let image = finalize_dirty(acc, obs, weight);
    Ok((
        image,
        WStackReport {
            nr_planes: planes.len(),
            reports,
            grid_bytes_per_plane: 4 * size * size * std::mem::size_of::<idg::Cf32>(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::telescope::{Dataset, IdentityATerm, Layout, PointSource, SkyModel};
    use idg::types::Observation;
    use idg::Backend;

    fn obs(w_step: f64) -> Observation {
        Observation::builder()
            .stations(8)
            .timesteps(64)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(24)
            .kernel_size(9)
            .aterm_interval(32)
            .image_size(0.05)
            .w_step(w_step)
            .build()
            .unwrap()
    }

    #[test]
    fn wstacked_image_matches_single_grid_image() {
        // With IDG's exact per-pixel w phases, the single-grid and
        // w-stacked paths must agree when the margin suffices for both.
        let sky = SkyModel {
            sources: vec![
                PointSource {
                    l: 0.007,
                    m: 0.003,
                    flux: 2.0,
                },
                PointSource {
                    l: -0.005,
                    m: -0.009,
                    flux: 1.0,
                },
            ],
        };
        let layout = Layout::uniform(8, 1500.0, 401);
        let ds_plain = Dataset::simulate(obs(0.0), &layout, sky.clone(), &IdentityATerm);

        // single-grid reference image
        let proxy0 = Proxy::new(Backend::CpuOptimized, ds_plain.obs.clone()).unwrap();
        let plan0 = proxy0.plan(&ds_plain.uvw).unwrap();
        let (grid0, _) = proxy0
            .grid(
                &plan0,
                &ds_plain.uvw,
                &ds_plain.visibilities,
                &ds_plain.aterms,
            )
            .unwrap();
        let img0 =
            crate::image::dirty_image(&grid0, &ds_plain.obs, plan0.nr_gridded_visibilities());

        // w-stacked image on the same data (same uvw/vis, w_step on)
        let obs_w = obs(25.0);
        let proxy1 = Proxy::new(Backend::CpuOptimized, obs_w.clone()).unwrap();
        let plan1 = proxy1.plan(&ds_plain.uvw).unwrap();
        assert!(plan1.w_planes().len() > 1, "multiple w-planes in use");
        let (img1, report) = wstack_dirty_image(
            &proxy1,
            &plan1,
            &ds_plain.uvw,
            &ds_plain.visibilities,
            &ds_plain.aterms,
        )
        .unwrap();
        assert_eq!(report.nr_planes, plan1.w_planes().len());
        assert_eq!(report.reports.len(), report.nr_planes);

        // same peak pixel, same flux scale
        let p0 = img0.peak();
        let p1 = img1.peak();
        assert_eq!((p0.0, p0.1), (p1.0, p1.1), "peaks coincide");
        assert!(
            (p0.2 - p1.2).abs() < 0.05 * p0.2.abs(),
            "peak fluxes agree: {} vs {}",
            p0.2,
            p1.2
        );
        // whole-image agreement over the unmasked interior
        let mut max_diff = 0.0f32;
        for i in 0..img0.as_slice().len() {
            max_diff = max_diff.max((img0.as_slice()[i] - img1.as_slice()[i]).abs());
        }
        assert!(max_diff < 0.1 * p0.2.abs(), "max image diff {max_diff}");
    }

    /// The summed plane's one complex transform against the mean of the
    /// two per-polarization transforms it replaced, both parts, on a grid
    /// with XX ≠ YY, odd and even `n`.
    #[test]
    fn stokes_i_image_matches_the_two_transform_oracle() {
        for n in [255usize, 256] {
            let mut o = obs(25.0);
            o.grid_size = n;
            let layout = Layout::uniform(8, 1500.0, 404);
            let sky = SkyModel::random(&o, 5, 0.5, 405);
            let mut ds = Dataset::simulate(o, &layout, sky, &IdentityATerm);
            for v in &mut ds.visibilities {
                v.pols[3] = v.pols[3].scale(0.6);
            }
            let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();

            let mut got = stokes_i_image(&grid);
            idg::fft::fftshift2d(&mut got, n);
            let [xx, yy] = crate::image::two_transform_planes(&grid);
            let expect: Vec<Cf32> = xx
                .iter()
                .zip(&yy)
                .map(|(a, b)| (*a + *b).scale(0.5))
                .collect();
            let peak = expect
                .iter()
                .fold(0.0f32, |m, v| m.max(v.re.abs()).max(v.im.abs()));
            let (re, im) = got
                .iter()
                .zip(&expect)
                .fold((0.0f32, 0.0f32), |(re, im), (a, b)| {
                    (re.max((a.re - b.re).abs()), im.max((a.im - b.im).abs()))
                });
            assert!(re <= 1e-6 * peak, "n = {n}, re: {re:e} of {peak:e}");
            assert!(im <= 1e-6 * peak, "n = {n}, im: {im:e} of {peak:e}");
        }
    }

    #[test]
    fn plan_that_grids_nothing_is_an_error() {
        let layout = Layout::uniform(8, 800.0, 406);
        let mut ds = Dataset::simulate(obs(20.0), &layout, SkyModel::empty(), &IdentityATerm);
        for uvw in &mut ds.uvw {
            (uvw.u, uvw.v) = (1e9, 1e9);
        }
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let err = wstack_dirty_image(&proxy, &plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .expect_err("nothing gridded");
        assert!(
            matches!(&err, IdgError::InvalidParameter(m) if m.contains("no gridded visibilities")),
            "{err}"
        );
    }

    #[test]
    fn plane_partition_covers_all_items() {
        let layout = Layout::uniform(8, 1500.0, 402);
        let ds = Dataset::simulate(obs(20.0), &layout, SkyModel::empty(), &IdentityATerm);
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let total: usize = plan
            .w_planes()
            .iter()
            .map(|p| plan.subset_for_w_plane(*p).nr_subgrids())
            .sum();
        assert_eq!(total, plan.nr_subgrids());
    }

    #[test]
    fn requires_w_step() {
        let layout = Layout::uniform(8, 800.0, 403);
        let ds = Dataset::simulate(obs(0.0), &layout, SkyModel::empty(), &IdentityATerm);
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let err = wstack_dirty_image(&proxy, &plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .expect_err("a single-grid plan is a caller error, not a panic");
        assert!(
            matches!(&err, IdgError::InvalidParameter(m) if m.contains("w_step")),
            "{err}"
        );
    }
}
