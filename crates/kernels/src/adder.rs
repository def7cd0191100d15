//! Adder and splitter: moving subgrids onto and off the master grid.
//!
//! The adder adds Fourier-transformed subgrids into the grid. Because
//! subgrids may overlap, parallelizing over subgrids would need atomics
//! (the GPU strategy, see `idg-gpusim`); on the CPU the paper instead
//! parallelizes over *grid rows* so no two threads ever touch the same
//! pixel (Sec. V-B d). The splitter extracts subgrid regions from the
//! (read-only) grid and parallelizes over subgrids.
//!
//! Both kernels fold in two index/phase fix-ups so the rest of the
//! pipeline can stay oblivious:
//!
//! 1. the **fftshift** between the FFT's DC-at-index-0 layout and the
//!    grid's DC-at-center layout, and
//! 2. the **half-pixel phase ramp** `e^{iπ(p_x+p_y)(Ñ−1)/Ñ}`,
//!    `p = j − Ñ/2`, that compensates the `x + 0.5` pixel-center
//!    convention of the image-domain kernels (the analogue of the phasor
//!    in the reference IDG adder);
//!
//! plus the `1/Ñ²` normalization that makes gridding and degridding exact
//! inverses through the unscaled forward FFT.

use crate::buffers::SubgridArray;
use crate::cache::{KernelCache, PhasorKey};
use idg_plan::WorkItem;
use idg_types::{Grid, IdgError, NR_POLARIZATIONS};
use rayon::prelude::*;

/// Launch-time shape validation shared by the adder and splitter
/// (`check_launch`-style: typed errors, no entry-point panics): one
/// subgrid per work item, and every item's footprint inside the grid.
fn check_placement(
    grid_size: usize,
    items: &[WorkItem],
    subgrids: &SubgridArray,
) -> Result<(), IdgError> {
    if items.len() != subgrids.count() {
        return Err(IdgError::ShapeMismatch {
            what: "subgrid count (one per work item)",
            expected: items.len(),
            actual: subgrids.count(),
        });
    }
    let n = subgrids.size();
    for item in items {
        if item.coord_x + n > grid_size || item.coord_y + n > grid_size {
            return Err(IdgError::ShapeMismatch {
                what: "subgrid placement (footprint beyond grid edge)",
                expected: grid_size,
                actual: item.coord_x.max(item.coord_y) + n,
            });
        }
    }
    Ok(())
}

/// Add Fourier-domain subgrids into the grid (parallel over grid rows).
///
/// `subgrids` must contain the *forward-FFT* of the image-domain subgrids
/// produced by the gridder, one per work item.
///
/// # Errors
/// [`IdgError::ShapeMismatch`] when the subgrid count does not match the
/// work items or a subgrid footprint falls outside the grid.
pub fn add_subgrids(
    grid: &mut Grid<f32>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    cache: &KernelCache,
) -> Result<(), IdgError> {
    let gsize = grid.size();
    check_placement(gsize, items, subgrids)?;
    let n = subgrids.size();
    let tables = cache.phasors(PhasorKey::new(n));

    // Row index: which (item, j_y) pairs touch each grid row.
    let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); gsize];
    for (i, item) in items.iter().enumerate() {
        for jy in 0..n {
            rows[item.coord_y + jy].push((i, jy));
        }
    }

    idg_obs::add_subgrids_added(items.len() as u64);
    grid.as_mut_slice()
        .par_chunks_mut(gsize)
        .enumerate()
        .for_each(|(row_idx, grid_row)| {
            let pol = row_idx / gsize;
            let y = row_idx % gsize;
            debug_assert!(pol < NR_POLARIZATIONS);
            for &(item_idx, jy) in &rows[y] {
                let item = &items[item_idx];
                let sub = subgrids.subgrid(item_idx);
                let sy = tables.shift[jy];
                let factors = &tables.add[jy * n..jy * n + n];
                let sub_row = &sub[(pol * n + sy) * n..(pol * n + sy) * n + n];
                let dst = &mut grid_row[item.coord_x..item.coord_x + n];
                for jx in 0..n {
                    dst[jx] += sub_row[tables.shift[jx]] * factors[jx];
                }
            }
        });
    Ok(())
}

/// Extract subgrid regions from the grid (parallel over subgrids),
/// producing Fourier-domain subgrids ready for the inverse subgrid FFT.
///
/// Overlapping reads are safe — the grid is read-only here, which is why
/// the splitter can parallelize over subgrids where the adder cannot
/// (Sec. V-B d).
/// # Errors
/// [`IdgError::ShapeMismatch`] when the subgrid count does not match the
/// work items or a subgrid footprint falls outside the grid.
pub fn split_subgrids(
    grid: &Grid<f32>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    cache: &KernelCache,
) -> Result<(), IdgError> {
    check_placement(grid.size(), items, subgrids)?;
    let n = subgrids.size();
    let tables = cache.phasors(PhasorKey::new(n));

    idg_obs::add_subgrids_split(items.len() as u64);
    items
        .par_iter()
        .zip(
            subgrids
                .as_mut_slice()
                .par_chunks_exact_mut(NR_POLARIZATIONS * n * n),
        )
        .for_each(|(item, sub)| {
            for pol in 0..NR_POLARIZATIONS {
                for jy in 0..n {
                    let sy = tables.shift[jy];
                    let grid_row = grid.row(pol, item.coord_y + jy);
                    let factors = &tables.split[jy * n..jy * n + n];
                    for jx in 0..n {
                        sub[(pol * n + sy) * n + tables.shift[jx]] =
                            grid_row[item.coord_x + jx] * factors[jx];
                    }
                }
            }
        });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::pixel_index;
    use crate::cache::phase_correction;
    use crate::fft::{fft_subgrids, FftNorm};
    use crate::reference::{degridder_reference, gridder_reference};
    use crate::KernelData;
    use idg_fft::shift::fftshift_source;
    use idg_fft::Direction;
    use idg_plan::WorkItem;
    use idg_telescope::ATerms;
    use idg_types::Cf32;
    use idg_types::{Baseline, Observation, Uvw, Visibility, SPEED_OF_LIGHT};

    /// An observation with one baseline, one time step, one channel —
    /// the minimal unit for exactness tests.
    fn unit_obs() -> Observation {
        Observation::builder()
            .stations(2)
            .timesteps(1)
            .channels(1, 150e6, 1e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(1)
            .image_size(0.05)
            .build()
            .unwrap()
    }

    /// uvw (meters) that lands exactly on integer grid pixel `(px, py)`.
    fn uvw_at_pixel(obs: &Observation, px: usize, py: usize) -> Uvw {
        let freq = obs.frequencies[0];
        let u_lambda = obs.pixel_to_uv(px as f64);
        let v_lambda = obs.pixel_to_uv(py as f64);
        let to_m = SPEED_OF_LIGHT / freq;
        Uvw::new((u_lambda * to_m) as f32, (v_lambda * to_m) as f32, 0.0)
    }

    fn item_covering(obs: &Observation, px: usize, py: usize) -> WorkItem {
        WorkItem {
            baseline_index: 0,
            baseline: Baseline::new(0, 1),
            time_offset: 0,
            nr_timesteps: 1,
            channel_offset: 0,
            nr_channels: 1,
            aterm_index: 0,
            coord_x: px - obs.subgrid_size / 2,
            coord_y: py - obs.subgrid_size / 2,
            w_plane: 0,
        }
    }

    /// The full forward chain on one exactly-on-pixel visibility must put
    /// V at exactly one grid cell, with the correct complex value — this
    /// pins the fftshift indexing, the half-pixel ramp and the 1/Ñ²
    /// normalization all at once.
    #[test]
    fn single_on_pixel_visibility_lands_exactly() {
        let obs = unit_obs();
        let (px, py) = (70usize, 45usize);
        let uvw = vec![uvw_at_pixel(&obs, px, py)];
        let vis_val = Cf32::new(0.8, -0.6);
        let visibilities = vec![Visibility {
            pols: [vis_val, Cf32::zero(), Cf32::zero(), vis_val],
        }];
        let aterms = ATerms::identity(&obs);
        let taper = vec![1.0f32; obs.subgrid_size * obs.subgrid_size];
        let data = KernelData {
            obs: &obs,
            uvw: &uvw,
            visibilities: &visibilities,
            aterms: &aterms,
            taper: &taper,
        };
        let items = [item_covering(&obs, px, py)];

        let mut subgrids = SubgridArray::new(1, obs.subgrid_size);
        gridder_reference(&data, &items, &mut subgrids).expect("kernel run");
        fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);

        let mut grid = Grid::<f32>::new(obs.grid_size);
        add_subgrids(&mut grid, &items, &subgrids, &KernelCache::new()).expect("adder run");

        // the target pixel holds V...
        let got = grid.at(0, py, px);
        assert!(
            (got - vis_val).abs() < 1e-4,
            "expected {vis_val} at ({px},{py}), got {got}"
        );
        // ...and (almost) nothing leaks anywhere else
        let mut leak = 0.0f64;
        for y in 0..obs.grid_size {
            for x in 0..obs.grid_size {
                if (x, y) != (px, py) {
                    leak = leak.max(grid.at(0, y, x).abs() as f64);
                }
            }
        }
        assert!(leak < 1e-4, "leakage {leak}");
        // cross-hands stay zero
        assert!(grid.at(1, py, px).abs() < 1e-6);
    }

    /// The reverse chain: a single grid cell degrids to exactly its value
    /// for an on-pixel visibility.
    #[test]
    fn single_grid_cell_degrids_exactly() {
        let obs = unit_obs();
        let (px, py) = (61usize, 77usize);
        let uvw = vec![uvw_at_pixel(&obs, px, py)];
        let visibilities = vec![Visibility::<f32>::zero()];
        let aterms = ATerms::identity(&obs);
        let taper = vec![1.0f32; obs.subgrid_size * obs.subgrid_size];
        let data = KernelData {
            obs: &obs,
            uvw: &uvw,
            visibilities: &visibilities,
            aterms: &aterms,
            taper: &taper,
        };
        let items = [item_covering(&obs, px, py)];

        let model_val = Cf32::new(-0.3, 0.9);
        let mut grid = Grid::<f32>::new(obs.grid_size);
        *grid.at_mut(0, py, px) = model_val;
        *grid.at_mut(3, py, px) = model_val;

        let mut subgrids = SubgridArray::new(1, obs.subgrid_size);
        split_subgrids(&grid, &items, &mut subgrids, &KernelCache::new()).expect("splitter run");
        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);

        let mut out = vec![Visibility::<f32>::zero(); 1];
        degridder_reference(&data, &items, &subgrids, &mut out).expect("kernel run");

        assert!(
            (out[0].pols[0] - model_val).abs() < 1e-4,
            "expected {model_val}, got {}",
            out[0].pols[0]
        );
        assert!((out[0].pols[3] - model_val).abs() < 1e-4);
        assert!(out[0].pols[1].abs() < 1e-5);
    }

    /// Adding two overlapping subgrids must accumulate, not overwrite.
    #[test]
    fn overlapping_subgrids_accumulate() {
        let obs = unit_obs();
        let n = obs.subgrid_size;
        let items = [
            WorkItem {
                baseline_index: 0,
                baseline: Baseline::new(0, 1),
                time_offset: 0,
                nr_timesteps: 1,
                channel_offset: 0,
                nr_channels: 1,
                aterm_index: 0,
                coord_x: 50,
                coord_y: 50,
                w_plane: 0,
            },
            WorkItem {
                baseline_index: 0,
                baseline: Baseline::new(0, 1),
                time_offset: 0,
                nr_timesteps: 1,
                channel_offset: 0,
                nr_channels: 1,
                aterm_index: 0,
                coord_x: 54,
                coord_y: 52,
                w_plane: 0,
            },
        ];
        // Fill both subgrids with a DC-only Fourier content: set every
        // bin so that the result is easy to sum — simplest is to compare
        // against sequential addition on a second grid.
        let mut subgrids = SubgridArray::new(2, n);
        for (i, sg) in subgrids.subgrids_mut().enumerate() {
            for (k, v) in sg.iter_mut().enumerate() {
                *v = Cf32::new((k % 5) as f32 * 0.1 + i as f32, 0.25 * i as f32);
            }
        }

        let mut grid_par = Grid::<f32>::new(obs.grid_size);
        add_subgrids(&mut grid_par, &items, &subgrids, &KernelCache::new()).expect("adder run");

        // sequential oracle
        let mut grid_seq = Grid::<f32>::new(obs.grid_size);
        let corr = phase_correction(n);
        for (i, item) in items.iter().enumerate() {
            for pol in 0..4 {
                for jy in 0..n {
                    for jx in 0..n {
                        let (sy, sx) = fftshift_source(n, jy, jx);
                        let val = subgrids.subgrid(i)[pixel_index(n, pol, sy, sx)];
                        let factor = (corr[jy] * corr[jx]).scale(1.0 / (n * n) as f32);
                        *grid_seq.at_mut(pol, item.coord_y + jy, item.coord_x + jx) += val * factor;
                    }
                }
            }
        }

        for (a, b) in grid_par.as_slice().iter().zip(grid_seq.as_slice()) {
            assert!((*a - *b).abs() < 1e-5);
        }
        // overlap region actually accumulated from both items
        assert!(grid_par.at(0, 55, 56).abs() > 0.0);
    }

    /// split(add(X)) must reproduce X for non-overlapping items (adder and
    /// splitter are exact inverses on disjoint regions).
    #[test]
    fn adder_splitter_round_trip() {
        let obs = unit_obs();
        let n = obs.subgrid_size;
        let items = [item_covering(&obs, 40, 40), item_covering(&obs, 90, 80)];
        let mut subgrids = SubgridArray::new(2, n);
        for (i, sg) in subgrids.subgrids_mut().enumerate() {
            for (k, v) in sg.iter_mut().enumerate() {
                *v = Cf32::new(
                    ((k * 7 + i * 3) % 11) as f32 * 0.1 - 0.5,
                    ((k * 5 + i) % 13) as f32 * 0.05,
                );
            }
        }
        let cache = KernelCache::new();
        let mut grid = Grid::<f32>::new(obs.grid_size);
        add_subgrids(&mut grid, &items, &subgrids, &cache).expect("adder run");

        let mut recovered = SubgridArray::new(2, n);
        split_subgrids(&grid, &items, &mut recovered, &cache).expect("splitter run");

        // adder scaled by 1/N²; splitter doesn't rescale, so recovered
        // = original / N².
        let n2 = (n * n) as f32;
        for (a, b) in recovered.as_slice().iter().zip(subgrids.as_slice()) {
            assert!((a.scale(n2) - *b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn phase_correction_is_unit_magnitude_and_symmetric() {
        let corr = phase_correction(24);
        for c in &corr {
            assert!((c.abs() - 1.0).abs() < 1e-6);
        }
        // center bin has zero phase
        assert!((corr[12] - Cf32::new(1.0, 0.0)).abs() < 1e-6);
        // conjugate symmetry around the center
        for d in 1..12 {
            let a = corr[12 + d];
            let b = corr[12 - d];
            assert!((a - b.conj()).abs() < 1e-5, "asymmetry at ±{d}");
        }
    }

    #[test]
    fn adder_count_mismatch_is_a_typed_error() {
        let obs = unit_obs();
        let mut grid = Grid::<f32>::new(obs.grid_size);
        let subgrids = SubgridArray::new(2, obs.subgrid_size);
        let items = [item_covering(&obs, 40, 40)];
        let err = add_subgrids(&mut grid, &items, &subgrids, &KernelCache::new())
            .expect_err("count mismatch must be rejected");
        assert!(matches!(
            err,
            IdgError::ShapeMismatch {
                expected: 1,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn out_of_grid_placement_is_a_typed_error() {
        let obs = unit_obs();
        let grid = Grid::<f32>::new(obs.grid_size);
        let mut subgrids = SubgridArray::new(1, obs.subgrid_size);
        // footprint hangs off the right/bottom edge
        let items = [item_covering(&obs, obs.grid_size - 2, obs.grid_size - 2)];
        let err = split_subgrids(&grid, &items, &mut subgrids, &KernelCache::new())
            .expect_err("out-of-grid placement must be rejected");
        assert!(matches!(err, IdgError::ShapeMismatch { .. }));
    }
}
