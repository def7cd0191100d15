//! Reference gridder and degridder — scalar, double precision.
//!
//! Direct transliterations of Algorithm 1 and Algorithm 2 of the paper,
//! kept deliberately unoptimized: accumulation in `f64`, libm
//! trigonometry, one pixel (gridder) or one visibility (degridder) at a
//! time. Every optimized path in the workspace is validated against these
//! functions.

use crate::buffers::{pixel_index, SubgridArray};
use crate::geometry::KernelGeometry;
use crate::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_obs::{KernelCounters, KernelStage};
use idg_plan::WorkItem;
use idg_types::{Cf64, IdgError, Jones, Visibility};

/// Convert a sampled f32 Jones matrix to f64.
fn jones64(j: Jones<f32>) -> Jones<f64> {
    Jones {
        xx: j.xx.cast(),
        xy: j.xy.cast(),
        yx: j.yx.cast(),
        yy: j.yy.cast(),
    }
}

/// Algorithm 1 for every work item: accumulate phase-shifted visibilities
/// into image-domain subgrid pixels, then apply the adjoint A-term
/// sandwich and the taper.
///
/// `subgrids` must hold `items.len()` subgrids of `obs.subgrid_size`.
pub fn gridder_reference(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
) -> Result<(), IdgError> {
    crate::check_launch(data, items, Some(subgrids))?;
    data.validate_visibilities()?;

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();

    for (item, subgrid) in items.iter().zip(subgrids.subgrids_mut()) {
        let (u0, v0, w0) = geom.subgrid_center_uvw(item);
        let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
        let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);

        // Measured op tally for this item: incremented beside the real
        // arithmetic with the real loop trip counts, flushed once per
        // item (a no-op unless an obs session is active). The reference
        // kernel has no staging pass, so unique DRAM traffic (each
        // visibility/uvw read once, each output pixel written once, the
        // two A-term planes fetched once) is charged at the sites where
        // the corresponding data is first touched.
        let mut tally = KernelCounters {
            invocations: 1,
            visibilities: item.nr_visibilities() as u64,
            dram_bytes: item.nr_visibilities() as u64 * BYTES_POL4
                + item.nr_timesteps as u64 * BYTES_UVW
                + 2 * (n * n) as u64 * BYTES_POL4,
            ..KernelCounters::default()
        };

        for y in 0..n {
            let m = geom.pixel_to_lm(y);
            for x in 0..n {
                let l = geom.pixel_to_lm(x);
                let n_term = KernelGeometry::compute_n(l, m);
                let phase_offset = 2.0 * std::f64::consts::PI * (u0 * l + v0 * m + w0 * n_term);

                let mut pix = [Cf64::zero(); 4];
                for dt in 0..item.nr_timesteps {
                    let t = item.time_offset + dt;
                    let uvw_m = data.uvw[item.baseline_index * nr_time + t];
                    let phase_index =
                        uvw_m.u as f64 * l + uvw_m.v as f64 * m + uvw_m.w as f64 * n_term;
                    // only this work item's channel group (Sec. V-A)
                    for ci in 0..item.nr_channels {
                        let c = item.channel_offset + ci;
                        let freq = data.obs.frequencies[c];
                        let phase = KernelGeometry::gridding_phase(phase_index, phase_offset, freq);
                        let phasor = Cf64::from_phase(phase);
                        tally.sincos_pairs += 1;
                        tally.fmas += 1; // the phase FMA feeding sincos
                        tally.shared_bytes += BYTES_POL4 + BYTES_UVW; // staged vis + uvw re-read
                        let vis =
                            data.visibilities[(item.baseline_index * nr_time + t) * nr_chan + c];
                        for (p, v) in vis.pols.iter().enumerate() {
                            pix[p].mul_acc(phasor, v.cast());
                            tally.fmas += 4; // one complex multiply-accumulate
                        }
                    }
                }

                // adjoint A-term sandwich A_pᴴ · pix · A_q, then taper
                let ap = jones64(ap_plane[y * n + x]);
                let aq = jones64(aq_plane[y * n + x]);
                let corrected = ap.hermitian().mul(Jones::from_pols(pix)).mul(aq);
                let taper = data.taper[y * n + x] as f64;
                let tapered = corrected.scale(taper).to_pols();
                for (p, v) in tapered.iter().enumerate() {
                    subgrid[pixel_index(n, p, y, x)] = v.cast();
                }
                tally.dram_bytes += BYTES_POL4; // output pixel written once
            }
        }
        idg_obs::add_kernel(KernelStage::Gridder, &tally);
    }
    Ok(())
}

/// Algorithm 2 for every work item: apply the forward A-term sandwich and
/// taper to the (image-domain) subgrid pixels, then predict each
/// visibility as the phase-weighted pixel sum.
///
/// Results are written into `vis_out`, which uses the same
/// `[baseline][timestep][channel]` layout as the input buffers; only the
/// slots covered by `items` are written.
pub fn degridder_reference(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
) -> Result<(), IdgError> {
    crate::check_launch(data, items, Some(subgrids))?;
    if vis_out.len() != data.obs.nr_visibilities() {
        return Err(IdgError::ShapeMismatch {
            what: "visibility output buffer",
            expected: data.obs.nr_visibilities(),
            actual: vis_out.len(),
        });
    }

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();

    for (item, subgrid) in items.iter().zip(subgrids.subgrids()) {
        let (u0, v0, w0) = geom.subgrid_center_uvw(item);
        let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
        let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);

        // Measured tally (see gridder_reference): staging reads the
        // subgrid and both A-term planes once, charged here; uvw and
        // the predicted visibilities are charged in the prediction loop.
        let mut tally = KernelCounters {
            invocations: 1,
            dram_bytes: 3 * (n * n) as u64 * BYTES_POL4,
            ..KernelCounters::default()
        };

        // Lines 2–3 of Algorithm 2: taper and forward A-term sandwich,
        // plus the per-pixel geometry, staged once per work item.
        let mut pixels = vec![[Cf64::zero(); 4]; n * n];
        let mut geom_cache = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); n * n]; // l, m, n, φ_offset
        for y in 0..n {
            let m = geom.pixel_to_lm(y);
            for x in 0..n {
                let l = geom.pixel_to_lm(x);
                let n_term = KernelGeometry::compute_n(l, m);
                let phase_offset = 2.0 * std::f64::consts::PI * (u0 * l + v0 * m + w0 * n_term);
                geom_cache[y * n + x] = (l, m, n_term, phase_offset);

                let raw = Jones::from_pols([
                    subgrid[pixel_index(n, 0, y, x)].cast(),
                    subgrid[pixel_index(n, 1, y, x)].cast(),
                    subgrid[pixel_index(n, 2, y, x)].cast(),
                    subgrid[pixel_index(n, 3, y, x)].cast(),
                ]);
                let ap = jones64(ap_plane[y * n + x]);
                let aq = jones64(aq_plane[y * n + x]);
                let taper = data.taper[y * n + x] as f64;
                pixels[y * n + x] = ap.sandwich(raw, aq).scale(taper).to_pols();
            }
        }

        for dt in 0..item.nr_timesteps {
            let t = item.time_offset + dt;
            let uvw_m = data.uvw[item.baseline_index * nr_time + t];
            tally.dram_bytes += BYTES_UVW;
            for ci in 0..item.nr_channels {
                let c = item.channel_offset + ci;
                let freq = data.obs.frequencies[c];
                let mut acc = [Cf64::zero(); 4];
                for i in 0..n * n {
                    let (l, m, n_term, phase_offset) = geom_cache[i];
                    let phase_index =
                        uvw_m.u as f64 * l + uvw_m.v as f64 * m + uvw_m.w as f64 * n_term;
                    // degridding phase = −(gridding phase)
                    let phase = -KernelGeometry::gridding_phase(phase_index, phase_offset, freq);
                    let phasor = Cf64::from_phase(phase);
                    tally.sincos_pairs += 1;
                    // the phase FMA feeding sincos, then staged pixel +
                    // geometry cache + accumulator traffic
                    tally.fmas += 1;
                    tally.shared_bytes += BYTES_POL4 + 16 + BYTES_UVW;
                    for p in 0..4 {
                        acc[p].mul_acc(phasor, pixels[i][p]);
                        tally.fmas += 4; // one complex multiply-accumulate
                    }
                }
                vis_out[(item.baseline_index * nr_time + t) * nr_chan + c] = Visibility {
                    pols: [acc[0].cast(), acc[1].cast(), acc[2].cast(), acc[3].cast()],
                };
                tally.visibilities += 1;
                tally.dram_bytes += BYTES_POL4; // predicted visibility written once
            }
        }
        idg_obs::add_kernel(KernelStage::Degridder, &tally);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_plan::Plan;
    use idg_telescope::{ATerms, Dataset, IdentityATerm, Layout, SkyModel, StationGains};
    use idg_types::{Complex, Observation};

    pub(crate) fn flat_taper(n: usize) -> Vec<f32> {
        vec![1.0; n * n]
    }

    fn small_dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(16)
            .channels(3, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 800.0, 11);
        let sky = SkyModel::random(&obs, 4, 0.5, 13);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    #[test]
    fn grid_then_degrid_round_trip_single_visibility_items() {
        // For a work item holding exactly ONE visibility, the phase sums
        // of gridder and degridder telescope into Σ_x |e^{iφ}|² = Ñ², so
        // degrid(grid(V)) = Ñ²·V *exactly* (identity A-terms, flat
        // taper). This pins the phase-conjugation convention of the
        // kernel pair. (With multiple visibilities per subgrid the
        // composition is a local convolution, not identity — that path
        // is validated end-to-end through the FFT/adder in idg-core.)
        let obs = Observation::builder()
            .stations(5)
            .timesteps(12)
            .channels(1, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(4)
            .max_timesteps_per_subgrid(1)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 800.0, 11);
        let sky = SkyModel::random(&obs, 4, 0.5, 13);
        let ds = Dataset::simulate(obs, &layout, sky, &IdentityATerm);

        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        assert!(plan.nr_subgrids() > 0);
        assert!(plan.items.iter().all(|i| i.nr_timesteps == 1));
        let taper = flat_taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };

        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");

        let n2 = (ds.obs.subgrid_size * ds.obs.subgrid_size) as f32;
        let mut out = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_reference(&data, &plan.items, &subgrids, &mut out).expect("kernel run");

        let mut checked = 0usize;
        for item in &plan.items {
            let idx = item.baseline_index * ds.obs.nr_timesteps + item.time_offset;
            let got = out[idx].scale(1.0 / n2);
            let expect = ds.visibilities[idx];
            for p in 0..4 {
                let err = (got.pols[p] - expect.pols[p]).abs();
                let mag = expect.pols[p].abs().max(1.0);
                assert!(
                    err / mag < 2e-3,
                    "pol {p} at idx {idx}: {} vs {} (err {err})",
                    got.pols[p],
                    expect.pols[p]
                );
            }
            checked += 1;
        }
        assert!(checked > 20);
    }

    #[test]
    fn gridder_zero_visibilities_gives_zero_subgrids() {
        let ds = small_dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let zeros = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let taper = flat_taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &zeros,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");
        assert_eq!(subgrids.power(), 0.0);
    }

    #[test]
    fn gridder_is_linear_in_visibilities() {
        let ds = small_dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = flat_taper(ds.obs.subgrid_size);
        let items = &plan.items[..plan.items.len().min(4)];

        let doubled: Vec<_> = ds.visibilities.iter().map(|v| v.scale(2.0)).collect();

        let mut sub1 = SubgridArray::new(items.len(), ds.obs.subgrid_size);
        let data1 = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        gridder_reference(&data1, items, &mut sub1).expect("kernel run");

        let mut sub2 = SubgridArray::new(items.len(), ds.obs.subgrid_size);
        let data2 = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &doubled,
            aterms: &ds.aterms,
            taper: &taper,
        };
        gridder_reference(&data2, items, &mut sub2).expect("kernel run");

        for (a, b) in sub1.as_slice().iter().zip(sub2.as_slice()) {
            assert!((b.scale(0.5) - *a).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn taper_scales_pixels_pointwise() {
        let ds = small_dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let items = &plan.items[..1];
        let n = ds.obs.subgrid_size;

        let flat = flat_taper(n);
        let mut graded: Vec<f32> = Vec::with_capacity(n * n);
        for i in 0..n * n {
            graded.push(0.5 + (i % 7) as f32 * 0.1);
        }

        let mk = |taper: &[f32]| {
            let data = KernelData {
                obs: &ds.obs,
                uvw: &ds.uvw,
                visibilities: &ds.visibilities,
                aterms: &ds.aterms,
                taper,
            };
            let mut sub = SubgridArray::new(1, n);
            gridder_reference(&data, items, &mut sub).expect("kernel run");
            sub
        };
        let s_flat = mk(&flat);
        let s_grad = mk(&graded);
        for pol in 0..4 {
            for y in 0..n {
                for x in 0..n {
                    let expect = s_flat.at(0, pol, y, x).scale(graded[y * n + x]);
                    let got = s_grad.at(0, pol, y, x);
                    assert!((got - expect).abs() < 1e-4 * (1.0 + expect.abs()));
                }
            }
        }
    }

    #[test]
    fn unitary_aterms_cancel_in_round_trip() {
        // Diagonal pure-phase gains are unitary, so the adjoint sandwich
        // (gridding) inverts the forward sandwich (measurement), and the
        // round trip against identity-A-term gridding of *gain-corrupted*
        // visibilities matches plain gridding of clean visibilities.
        let obs = Observation::builder()
            .stations(4)
            .timesteps(8)
            .channels(2, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 600.0, 5);
        let sky = SkyModel::random(&obs, 3, 0.5, 6);

        // Unitary gains: amplitude exactly 1.
        struct UnitPhases(StationGains);
        impl idg_telescope::aterm::ATermModel for UnitPhases {
            fn evaluate(&self, i: usize, s: usize, l: f64, m: f64) -> Jones<f64> {
                let j = self.0.evaluate(i, s, l, m);
                let norm = |c: Complex<f64>| {
                    let a = c.abs();
                    if a > 0.0 {
                        c.scale(1.0 / a)
                    } else {
                        Complex::one()
                    }
                };
                Jones::diagonal(norm(j.xx), norm(j.yy))
            }
        }
        let gains = UnitPhases(StationGains::random(4, obs.nr_aterm_intervals(), 17));

        let corrupted = Dataset::simulate(obs.clone(), &layout, sky.clone(), &gains);
        let clean = Dataset::simulate(obs.clone(), &layout, sky, &IdentityATerm);

        let plan = Plan::create(&obs, &clean.uvw).unwrap();
        let taper = flat_taper(obs.subgrid_size);

        let mut sub_corr = SubgridArray::new(plan.nr_subgrids(), obs.subgrid_size);
        let data_corr = KernelData {
            obs: &obs,
            uvw: &corrupted.uvw,
            visibilities: &corrupted.visibilities,
            aterms: &corrupted.aterms, // sampled unitary gains
            taper: &taper,
        };
        gridder_reference(&data_corr, &plan.items, &mut sub_corr).expect("kernel run");

        let mut sub_clean = SubgridArray::new(plan.nr_subgrids(), obs.subgrid_size);
        let ident = ATerms::identity(&obs);
        let data_clean = KernelData {
            obs: &obs,
            uvw: &clean.uvw,
            visibilities: &clean.visibilities,
            aterms: &ident,
            taper: &taper,
        };
        gridder_reference(&data_clean, &plan.items, &mut sub_clean).expect("kernel run");

        // The gains are direction-independent so the correction is exact.
        let mut max_rel = 0.0f64;
        for (a, b) in sub_corr.as_slice().iter().zip(sub_clean.as_slice()) {
            let err = (*a - *b).abs() as f64;
            let mag = b.abs().max(1e-3) as f64;
            max_rel = max_rel.max(err / mag);
        }
        assert!(
            max_rel < 5e-2,
            "unitary A-term correction residual {max_rel}"
        );
    }

    #[test]
    fn mismatched_subgrid_count_is_a_shape_error() {
        let ds = small_dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = flat_taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut subgrids = SubgridArray::new(plan.nr_subgrids() + 1, ds.obs.subgrid_size);
        let err = gridder_reference(&data, &plan.items, &mut subgrids)
            .expect_err("count mismatch must be rejected");
        assert!(matches!(
            err,
            IdgError::ShapeMismatch {
                what: "subgrid count",
                ..
            }
        ));
    }

    #[test]
    fn launch_check_names_the_item_and_the_field() {
        let ds = small_dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = flat_taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        assert!(crate::check_launch(&data, &plan.items, None).is_ok());

        // one field of item 3 pushed past the observation (5 stations,
        // 16 steps in 2 A-term slots, 3 channels) at a time;
        // `usize::MAX` would wrap an unchecked `offset + count`
        type Edit = fn(&mut WorkItem);
        let edits: [(&str, Edit); 8] = [
            ("baseline_index", |i| i.baseline_index = 10),
            ("time_offset + nr_timesteps", |i| i.time_offset = 9),
            ("time_offset + nr_timesteps", |i| i.time_offset = usize::MAX),
            ("channel_offset + nr_channels", |i| i.channel_offset = 1),
            ("aterm_index", |i| i.aterm_index = 2),
            ("baseline.station1", |i| i.baseline.station1 = 5),
            ("baseline.station2", |i| i.baseline.station2 = 5),
            ("nr_channels must be at least 1", |i| i.nr_channels = 0),
        ];
        for (field, edit) in edits {
            let mut items = plan.items.clone();
            edit(&mut items[3]);
            let err = crate::check_launch(&data, &items, None).expect_err(field);
            assert!(
                matches!(&err, IdgError::InvalidParameter(msg)
                    if msg.contains("work item 3") && msg.contains(field)),
                "{field}: {err:?}"
            );
        }

        // a partial overlap, not only an exact duplicate: item 0 again,
        // shifted by one timestep
        let mut items = plan.items.clone();
        let mut shifted = items[0];
        shifted.time_offset += 1;
        shifted.nr_timesteps -= 1;
        items.push(shifted);
        let last = items.len() - 1;
        let err = crate::check_launch(&data, &items, None).expect_err("overlap");
        assert!(
            matches!(&err, IdgError::InvalidParameter(msg)
                if msg.contains(&format!("work items 0 and {last} both cover"))),
            "{err:?}"
        );
    }
}
