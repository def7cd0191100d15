//! Multi-subband (multi-frequency synthesis) imaging.
//!
//! The imaging step of Fig. 2 runs *per subband* ("the measured
//! visibilities are processed independently for different spectral
//! frequency ranges (so called subbands)"). Each subband grids into its
//! own uv-grid (whose wavelength scaling differs), and the per-subband
//! images are combined weighted by their visibility counts — classic
//! multi-frequency synthesis, which also improves uv-coverage because
//! every baseline samples a different |uv| per subband.

use crate::image::{finalize_dirty, nonzero_weight, raw_image, Image};
use idg::telescope::ATerms;
use idg::{ExecutionReport, IdgError, Plan, Proxy, Uvw, Visibility};

/// One subband's inputs: its own proxy/plan (per-subband frequencies)
/// plus data buffers.
pub struct Subband<'a> {
    /// Proxy configured with this subband's observation parameters.
    pub proxy: &'a Proxy,
    /// Plan for this subband's uvw sampling.
    pub plan: &'a Plan,
    /// uvw coordinates (meters).
    pub uvw: &'a [Uvw],
    /// Visibilities of this subband.
    pub visibilities: &'a [Visibility<f32>],
    /// A-terms of this subband.
    pub aterms: &'a ATerms,
}

/// Outcome of a multi-subband imaging pass.
#[derive(Clone, Debug)]
pub struct MfsReport {
    /// Number of subbands combined.
    pub nr_subbands: usize,
    /// Per-subband gridding reports.
    pub reports: Vec<ExecutionReport>,
    /// Total visibilities imaged.
    pub total_weight: usize,
}

/// Grid each subband independently and combine the images with
/// visibility-count weighting.
///
/// All subbands must share the grid geometry (`grid_size`,
/// `image_size`); frequencies may differ arbitrarily. An empty
/// `subbands`, a geometry mismatch or plans that together grid no
/// visibility is an [`IdgError::InvalidParameter`] naming the argument.
pub fn mfs_dirty_image(subbands: &[Subband<'_>]) -> Result<(Image, MfsReport), IdgError> {
    let Some(first) = subbands.first() else {
        return Err(IdgError::InvalidParameter(
            "subbands: at least one subband is needed".into(),
        ));
    };
    let obs0 = first.proxy.observation();
    let size = obs0.grid_size;
    for (i, sb) in subbands.iter().enumerate() {
        let obs = sb.proxy.observation();
        if obs.grid_size != size {
            return Err(IdgError::InvalidParameter(format!(
                "subbands[{i}]: grid_size {} differs from subbands[0]'s {size}",
                obs.grid_size
            )));
        }
        if (obs.image_size - obs0.image_size).abs() >= 1e-12 {
            return Err(IdgError::InvalidParameter(format!(
                "subbands[{i}]: image_size {} differs from subbands[0]'s {}",
                obs.image_size, obs0.image_size
            )));
        }
    }

    let total_weight = nonzero_weight(
        subbands
            .iter()
            .map(|sb| sb.plan.nr_gridded_visibilities())
            .sum(),
    )?;
    let mut acc = vec![0.0f32; size * size];
    let mut reports = Vec::new();

    for sb in subbands {
        let (grid, report) = sb.proxy.grid(sb.plan, sb.uvw, sb.visibilities, sb.aterms)?;
        reports.push(report);
        for (a, v) in acc.iter_mut().zip(raw_image(&grid)) {
            *a += v;
        }
    }

    let image = finalize_dirty(acc, obs0, total_weight);
    Ok((
        image,
        MfsReport {
            nr_subbands: subbands.len(),
            reports,
            total_weight,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::telescope::{Dataset, IdentityATerm, Layout, PointSource, SkyModel};
    use idg::types::Observation;
    use idg::Backend;

    fn obs_with_band(start: f64, nr_chan: usize) -> Observation {
        Observation::builder()
            .stations(8)
            .timesteps(48)
            .channels(nr_chan, start, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(24)
            .image_size(0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn two_subbands_combine_into_one_image() {
        let sky = SkyModel {
            sources: vec![PointSource {
                l: 0.006,
                m: -0.004,
                flux: 2.5,
            }],
        };
        let layout = Layout::uniform(8, 1200.0, 801);

        // two adjacent 4-channel subbands
        let ds1 = Dataset::simulate(
            obs_with_band(150e6, 4),
            &layout,
            sky.clone(),
            &IdentityATerm,
        );
        let ds2 = Dataset::simulate(
            obs_with_band(158e6, 4),
            &layout,
            sky.clone(),
            &IdentityATerm,
        );

        let p1 = Proxy::new(Backend::CpuOptimized, ds1.obs.clone()).unwrap();
        let p2 = Proxy::new(Backend::CpuOptimized, ds2.obs.clone()).unwrap();
        let plan1 = p1.plan(&ds1.uvw).unwrap();
        let plan2 = p2.plan(&ds2.uvw).unwrap();

        let subbands = [
            Subband {
                proxy: &p1,
                plan: &plan1,
                uvw: &ds1.uvw,
                visibilities: &ds1.visibilities,
                aterms: &ds1.aterms,
            },
            Subband {
                proxy: &p2,
                plan: &plan2,
                uvw: &ds2.uvw,
                visibilities: &ds2.visibilities,
                aterms: &ds2.aterms,
            },
        ];
        let (image, report) = mfs_dirty_image(&subbands).unwrap();
        assert_eq!(report.nr_subbands, 2);
        assert_eq!(
            report.total_weight,
            plan1.nr_gridded_visibilities() + plan2.nr_gridded_visibilities()
        );

        let (px, py, peak) = image.peak();
        let ex = Image::lm_to_pixel(&ds1.obs, 0.006);
        let ey = Image::lm_to_pixel(&ds1.obs, -0.004);
        assert!(px.abs_diff(ex) <= 1 && py.abs_diff(ey) <= 1);
        assert!(
            (peak - 2.5).abs() < 0.15,
            "flux preserved across subbands: {peak}"
        );
    }

    #[test]
    fn mfs_of_one_subband_equals_plain_imaging() {
        let sky = SkyModel::single_center(1.5);
        let layout = Layout::uniform(8, 1000.0, 802);
        let ds = Dataset::simulate(obs_with_band(150e6, 4), &layout, sky, &IdentityATerm);
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let (mfs_img, _) = mfs_dirty_image(&[Subband {
            proxy: &proxy,
            plan: &plan,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
        }])
        .unwrap();

        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let plain = crate::image::dirty_image(&grid, &ds.obs, plan.nr_gridded_visibilities());
        for (a, b) in mfs_img.as_slice().iter().zip(plain.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn plans_that_grid_nothing_are_an_error() {
        let layout = Layout::uniform(8, 1000.0, 804);
        let mut ds = Dataset::simulate(
            obs_with_band(150e6, 2),
            &layout,
            SkyModel::empty(),
            &IdentityATerm,
        );
        for uvw in &mut ds.uvw {
            (uvw.u, uvw.v) = (1e9, 1e9);
        }
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let err = mfs_dirty_image(&[Subband {
            proxy: &proxy,
            plan: &plan,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
        }])
        .expect_err("nothing gridded");
        assert!(
            matches!(&err, IdgError::InvalidParameter(m) if m.contains("no gridded visibilities")),
            "{err}"
        );
    }

    #[test]
    fn misuse_is_a_typed_error_naming_the_argument() {
        let empty = mfs_dirty_image(&[]).expect_err("no subbands");
        assert!(
            matches!(&empty, IdgError::InvalidParameter(m) if m.contains("subbands")),
            "{empty}"
        );

        let layout = Layout::uniform(8, 1000.0, 803);
        let ds1 = Dataset::simulate(
            obs_with_band(150e6, 2),
            &layout,
            SkyModel::empty(),
            &IdentityATerm,
        );
        let p1 = Proxy::new(Backend::CpuOptimized, ds1.obs.clone()).unwrap();
        let plan1 = p1.plan(&ds1.uvw).unwrap();

        // (what the second subband gets wrong, the argument the error names)
        let mut other_grid = obs_with_band(160e6, 2);
        other_grid.grid_size = 128;
        let mut other_fov = obs_with_band(160e6, 2);
        other_fov.image_size = 0.04;
        for (obs2, named) in [(other_grid, "grid_size"), (other_fov, "image_size")] {
            let ds2 = Dataset::simulate(obs2, &layout, SkyModel::empty(), &IdentityATerm);
            let p2 = Proxy::new(Backend::CpuOptimized, ds2.obs.clone()).unwrap();
            let plan2 = p2.plan(&ds2.uvw).unwrap();
            let err = mfs_dirty_image(&[
                Subband {
                    proxy: &p1,
                    plan: &plan1,
                    uvw: &ds1.uvw,
                    visibilities: &ds1.visibilities,
                    aterms: &ds1.aterms,
                },
                Subband {
                    proxy: &p2,
                    plan: &plan2,
                    uvw: &ds2.uvw,
                    visibilities: &ds2.visibilities,
                    aterms: &ds2.aterms,
                },
            ])
            .expect_err(named);
            assert!(
                matches!(&err, IdgError::InvalidParameter(m) if m.contains(named)),
                "{named}: {err}"
            );
        }
    }
}
