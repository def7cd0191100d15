//! Adder and splitter: moving subgrids onto and off the master grid.
//!
//! The adder adds Fourier-transformed subgrids into the grid. Because
//! subgrids may overlap, parallelizing over subgrids would need atomics
//! (the GPU strategy, see `idg-gpusim`); on the CPU the paper instead
//! gives each thread its own grid rows (Sec. V-B d), here bands of one
//! plane's rows. The splitter extracts subgrid regions from the
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
//!
//! Along a row the fftshift is a rotation: `PhasorTables::shift[j]` is
//! `(j + h) % n`, so `h = shift[0]` (`n − n/2` for `n ≥ 2`). Both kernels
//! read `h` from the table and move each subgrid row as two contiguous
//! runs, split at `n − h`, rather than through the index table per
//! pixel: the same multiply per sample (the same bits), in loops that
//! vectorise.

use crate::buffers::SubgridArray;
use crate::tables::KernelTables;
use idg_plan::WorkItem;
use idg_types::{Cf32, Grid, IdgError, NR_POLARIZATIONS};
use rayon::prelude::*;

/// Grid rows per adder task (fewer in a plane's last band).
const BAND_ROWS: usize = 64;

/// The adder's and splitter's launch-time shape validation
/// (`check_launch`-style: typed errors, no entry-point panics): one
/// subgrid per work item, and every item's footprint inside the grid.
fn check_subgrids(
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
    check_placement(grid_size, subgrids.size(), items)
}

/// The footprint half of the adder/splitter launch check: every item's
/// `n × n` subgrid inside a `grid_size` grid. A pass that adds or splits
/// job by job checks its whole plan with it before the first job, so an
/// item off the grid fails the pass before any job has run.
///
/// # Errors
/// [`IdgError::ShapeMismatch`] with the grid size and the far edge of
/// the first item, in `items` order, whose footprint passes the grid
/// edge.
pub fn check_placement(grid_size: usize, n: usize, items: &[WorkItem]) -> Result<(), IdgError> {
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

/// `dst[k] += src[k]·factors[k]`: one contiguous run of an adder row.
#[inline(always)]
fn add_run(dst: &mut [Cf32], src: &[Cf32], factors: &[Cf32]) {
    for ((d, s), f) in dst.iter_mut().zip(src).zip(factors) {
        *d += *s * *f;
    }
}

/// `dst[k] = src[k]·factors[k]`: one contiguous run of a splitter row.
/// Returns whether every `src` sample is finite, folded without a branch
/// (a short-circuit test would not vectorise).
#[inline(always)]
fn split_run(dst: &mut [Cf32], src: &[Cf32], factors: &[Cf32]) -> bool {
    let mut finite = true;
    for ((d, s), f) in dst.iter_mut().zip(src).zip(factors) {
        *d = *s * *f;
        finite &= s.re.is_finite() & s.im.is_finite();
    }
    finite
}

/// Add Fourier-domain subgrids into the grid (parallel over row bands
/// of a plane).
///
/// `subgrids` must contain the *forward-FFT* of the image-domain subgrids
/// produced by the gridder, one per work item. Each band adds its
/// footprint rows in `items` order, so the grid's bits depend on that
/// order and on the values only: adding a plan's items in consecutive
/// ranges, call after call, gives the bits of one call over the plan.
///
/// # Errors
/// [`IdgError::ShapeMismatch`] when the subgrid count does not match the
/// work items, a subgrid footprint falls outside the grid, or `tables`
/// were built for another subgrid size.
pub fn add_subgrids(
    grid: &mut Grid<f32>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    tables: &KernelTables,
) -> Result<(), IdgError> {
    let gsize = grid.size();
    check_subgrids(gsize, items, subgrids)?;
    let n = subgrids.size();
    let tables = tables.phasors(n)?;
    let h = tables.shift.first().copied().unwrap_or(0); // the fftshift's rotation

    idg_obs::add_subgrids_added(items.len() as u64);
    grid.as_mut_slice()
        .chunks_exact_mut(gsize * gsize)
        .enumerate()
        .flat_map(|(pol, plane)| {
            let bands = plane.chunks_mut(BAND_ROWS * gsize).enumerate();
            bands.map(move |(b, band)| (pol, b * BAND_ROWS, band))
        })
        .into_par_iter()
        .for_each(|(pol, y0, band)| {
            let y1 = y0 + band.len() / gsize;
            for (item, sub) in items.iter().zip(subgrids.subgrids()) {
                for y in item.coord_y.max(y0)..(item.coord_y + n).min(y1) {
                    let jy = y - item.coord_y;
                    let sy = tables.shift[jy];
                    let factors = &tables.add[jy * n..jy * n + n];
                    let sub_row = &sub[(pol * n + sy) * n..(pol * n + sy) * n + n];
                    let dst = &mut band[(y - y0) * gsize + item.coord_x..][..n];
                    // dst[jx] += sub_row[shift[jx]]·factors[jx]
                    let (dst_lo, dst_hi) = dst.split_at_mut(n - h);
                    let (f_lo, f_hi) = factors.split_at(n - h);
                    add_run(dst_lo, &sub_row[h..], f_lo);
                    add_run(dst_hi, &sub_row[..h], f_hi);
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
///
/// The splitter reads only the items' footprints, and it is where a
/// degrid pass checks its model grid: a single NaN/Inf sample would
/// silently poison every visibility its subgrids touch, so each gathered
/// sample is tested for finiteness on the way. A sample outside every
/// footprint reaches no visibility and is never read.
///
/// # Errors
/// [`IdgError::ShapeMismatch`] when the subgrid count does not match the
/// work items, a subgrid footprint falls outside the grid, or `tables`
/// were built for another subgrid size;
/// [`IdgError::InvalidParameter`] when a footprint holds a non-finite
/// sample, naming the first such item in `items` order, so the same one
/// whatever the thread schedule (`subgrids` is written all the same).
pub fn split_subgrids(
    grid: &Grid<f32>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    tables: &KernelTables,
) -> Result<(), IdgError> {
    check_subgrids(grid.size(), items, subgrids)?;
    let n = subgrids.size();
    let tables = tables.phasors(n)?;
    let h = tables.shift.first().copied().unwrap_or(0); // the fftshift's rotation

    idg_obs::add_subgrids_split(items.len() as u64);
    let finite: Vec<bool> = items
        .par_iter()
        .zip(
            subgrids
                .as_mut_slice()
                .par_chunks_exact_mut(NR_POLARIZATIONS * n * n),
        )
        .map(|(item, sub)| {
            let mut finite = true;
            for (pol, plane) in sub.chunks_exact_mut(n * n).enumerate() {
                for jy in 0..n {
                    let sy = tables.shift[jy];
                    let grid_row = grid.row(pol, item.coord_y + jy);
                    let src = &grid_row[item.coord_x..item.coord_x + n];
                    let factors = &tables.split[jy * n..jy * n + n];
                    // plane[sy][shift[jx]] = src[jx]·factors[jx]
                    let (dst_lo, dst_hi) = plane[sy * n..sy * n + n].split_at_mut(h);
                    let (src_lo, src_hi) = src.split_at(n - h);
                    let (f_lo, f_hi) = factors.split_at(n - h);
                    finite &= split_run(dst_hi, src_lo, f_lo);
                    finite &= split_run(dst_lo, src_hi, f_hi);
                }
            }
            finite
        })
        .collect();
    match items.iter().zip(&finite).find(|&(_, &ok)| !ok) {
        Some((item, _)) => Err(IdgError::InvalidParameter(format!(
            "model grid has a non-finite (NaN/Inf) sample in the footprint of the subgrid at \
             ({}, {})",
            item.coord_x, item.coord_y
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::pixel_index;
    use crate::fft::{fft_subgrids, FftNorm};
    use crate::reference::{degridder_reference, gridder_reference};
    use crate::tables::{phase_correction, PhasorTables};
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

    /// A one-visibility work item whose subgrid's corner sits at grid
    /// pixel `(coord_x, coord_y)`.
    fn item_at(coord_x: usize, coord_y: usize) -> WorkItem {
        WorkItem {
            baseline_index: 0,
            baseline: Baseline::new(0, 1),
            time_offset: 0,
            nr_timesteps: 1,
            channel_offset: 0,
            nr_channels: 1,
            aterm_index: 0,
            coord_x,
            coord_y,
            w_plane: 0,
        }
    }

    fn item_covering(obs: &Observation, px: usize, py: usize) -> WorkItem {
        item_at(px - obs.subgrid_size / 2, py - obs.subgrid_size / 2)
    }

    /// The full forward chain on one exactly-on-pixel visibility must put
    /// V at exactly one grid cell, with the correct complex value — this
    /// pins the fftshift indexing, the half-pixel ramp and the 1/Ñ²
    /// normalization all at once.
    #[test]
    fn single_on_pixel_visibility_lands_exactly() {
        let obs = unit_obs();
        let tables = KernelTables::for_observation(&obs);
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
        add_subgrids(&mut grid, &items, &subgrids, &tables).expect("adder run");

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
        let tables = KernelTables::for_observation(&obs);
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
        split_subgrids(&grid, &items, &mut subgrids, &tables).expect("splitter run");
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
        let tables = KernelTables::for_observation(&obs);
        let n = obs.subgrid_size;
        let items = [item_at(50, 50), item_at(54, 52)];
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
        add_subgrids(&mut grid_par, &items, &subgrids, &tables).expect("adder run");

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
        let tables = KernelTables::for_observation(&obs);
        let mut grid = Grid::<f32>::new(obs.grid_size);
        add_subgrids(&mut grid, &items, &subgrids, &tables).expect("adder run");

        let mut recovered = SubgridArray::new(2, n);
        split_subgrids(&grid, &items, &mut recovered, &tables).expect("splitter run");

        // adder scaled by 1/N²; splitter doesn't rescale, so recovered
        // = original / N².
        let n2 = (n * n) as f32;
        for (a, b) in recovered.as_slice().iter().zip(subgrids.as_slice()) {
            assert!((a.scale(n2) - *b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// The splitter's per-pixel shift-table scatter, the loop the two-run
    /// body replaced: its bit-for-bit oracle.
    fn split_scalar(
        grid: &Grid<f32>,
        items: &[WorkItem],
        n: usize,
        tables: &PhasorTables,
    ) -> Vec<Cf32> {
        let mut out = vec![Cf32::zero(); items.len() * NR_POLARIZATIONS * n * n];
        for (item, sub) in items
            .iter()
            .zip(out.chunks_exact_mut(NR_POLARIZATIONS * n * n))
        {
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
        }
        out
    }

    /// The adder's per-pixel shift-table gather, the loop the two-run body
    /// replaced, item by item: its bit-for-bit oracle (every pixel still
    /// adds its items in `items` order).
    fn add_scalar(
        grid: &mut Grid<f32>,
        items: &[WorkItem],
        subgrids: &SubgridArray,
        tables: &PhasorTables,
    ) {
        let n = subgrids.size();
        for (item, sub) in items.iter().zip(subgrids.subgrids()) {
            for pol in 0..NR_POLARIZATIONS {
                for jy in 0..n {
                    let sy = tables.shift[jy];
                    let factors = &tables.add[jy * n..jy * n + n];
                    let sub_row = &sub[(pol * n + sy) * n..(pol * n + sy) * n + n];
                    for jx in 0..n {
                        *grid.at_mut(pol, item.coord_y + jy, item.coord_x + jx) +=
                            sub_row[tables.shift[jx]] * factors[jx];
                    }
                }
            }
        }
    }

    fn sample_bits(samples: &[Cf32]) -> Vec<u32> {
        samples
            .iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    /// A 64² grid with every sample non-zero and few repeats.
    fn pattern_grid() -> Grid<f32> {
        let mut grid = Grid::<f32>::new(64);
        for (i, c) in grid.as_mut_slice().iter_mut().enumerate() {
            *c = Cf32::new(
                (i % 101) as f32 * 0.013 - 0.61,
                (i % 89) as f32 * -0.021 + 0.93,
            );
        }
        grid
    }

    /// Five overlapping `n × n` footprints on a `grid_size` grid, two of
    /// them on the far column and two on the far row.
    fn footprints(grid_size: usize, n: usize) -> Vec<WorkItem> {
        let far = grid_size - n;
        vec![
            item_at(0, 0),
            item_at(3, 5),
            item_at(far, 11),
            item_at(17, far),
            item_at(far, far),
        ]
    }

    #[test]
    fn contiguous_runs_equal_the_shift_table_loops_bit_for_bit() {
        let grid = pattern_grid();
        // even sizes, and an odd one, whose two runs differ in length
        for n in [8, 16, 24, 32, 7] {
            let tables = KernelTables::new(n, 0.05);
            let phasors = tables.phasors(n).unwrap();
            let items = footprints(grid.size(), n);
            let mut split = SubgridArray::new(items.len(), n);
            split_subgrids(&grid, &items, &mut split, &tables).expect("splitter run");
            let oracle = split_scalar(&grid, &items, n, phasors);
            assert!(
                sample_bits(split.as_slice()) == sample_bits(&oracle),
                "splitter, n = {n}"
            );

            let mut added = grid.clone();
            add_subgrids(&mut added, &items, &split, &tables).expect("adder run");
            let mut oracle = grid.clone();
            add_scalar(&mut oracle, &items, &split, phasors);
            assert!(
                sample_bits(added.as_slice()) == sample_bits(oracle.as_slice()),
                "adder, n = {n}"
            );
        }
    }

    /// The adder body before it walked plane × row bands: a row index of
    /// `(item, j_y)` pairs, one task per grid row. Its bit-for-bit oracle.
    fn add_row_indexed(
        grid: &mut Grid<f32>,
        items: &[WorkItem],
        subgrids: &[&[Cf32]],
        n: usize,
        tables: &PhasorTables,
    ) {
        let gsize = grid.size();
        let h = tables.shift.first().copied().unwrap_or(0);
        let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); gsize];
        for (i, item) in items.iter().enumerate() {
            for jy in 0..n {
                rows[item.coord_y + jy].push((i, jy));
            }
        }
        grid.as_mut_slice()
            .par_chunks_mut(gsize)
            .enumerate()
            .for_each(|(row_idx, grid_row)| {
                let pol = row_idx / gsize;
                for &(item_idx, jy) in &rows[row_idx % gsize] {
                    let item = &items[item_idx];
                    let sy = tables.shift[jy];
                    let factors = &tables.add[jy * n..jy * n + n];
                    let sub_row = &subgrids[item_idx][(pol * n + sy) * n..][..n];
                    let dst = &mut grid_row[item.coord_x..item.coord_x + n];
                    let (dst_lo, dst_hi) = dst.split_at_mut(n - h);
                    let (f_lo, f_hi) = factors.split_at(n - h);
                    add_run(dst_lo, &sub_row[h..], f_lo);
                    add_run(dst_hi, &sub_row[..h], f_hi);
                }
            });
    }

    /// A `grid_size²` grid and `count` `n × n` subgrids with every sample
    /// non-zero and few repeats, seeded so two calls differ.
    fn patterned(
        grid_size: usize,
        count: usize,
        n: usize,
        seed: usize,
    ) -> (Grid<f32>, SubgridArray) {
        let value = |i: usize| {
            let k = i * 7 + seed * 13;
            Cf32::new(
                (k % 97) as f32 * 0.017 - 0.8,
                (k % 83) as f32 * -0.023 + 0.9,
            )
        };
        let mut grid = Grid::<f32>::new(grid_size);
        for (i, c) in grid.as_mut_slice().iter_mut().enumerate() {
            *c = value(i);
        }
        let mut subgrids = SubgridArray::new(count, n);
        for (i, c) in subgrids.as_mut_slice().iter_mut().enumerate() {
            *c = value(i + 1);
        }
        (grid, subgrids)
    }

    #[test]
    fn plane_bands_equal_the_row_indexed_adder_bit_for_bit() {
        // adds `parts` over consecutive ranges of `items`, call after
        // call, and holds the grid to the oracle over all their subgrids
        let check = |grid: &Grid<f32>,
                     items: &[WorkItem],
                     parts: &[&SubgridArray],
                     n: usize,
                     case: &str| {
            let tables = KernelTables::new(n, 0.05);
            let mut added = grid.clone();
            let mut start = 0;
            for part in parts {
                let range = start..start + part.count();
                add_subgrids(&mut added, &items[range], part, &tables).expect("adder run");
                start += part.count();
            }
            let slices: Vec<&[Cf32]> = parts.iter().flat_map(|p| p.subgrids()).collect();
            let mut oracle = grid.clone();
            add_row_indexed(&mut oracle, items, &slices, n, tables.phasors(n).unwrap());
            assert!(
                sample_bits(added.as_slice()) == sample_bits(oracle.as_slice()),
                "{case}, grid {}, n = {n}",
                grid.size()
            );
        };
        for grid_size in [40, 100, 250, 300] {
            for n in [8, 16, 24, 32] {
                let far = grid_size - n;
                // many items on one footprint, footprints across every
                // band edge (64k − 5) the grid has, and the far corner
                let mut items = vec![item_at(far / 2, far / 3); 9];
                items.extend(
                    (64..far + 5)
                        .step_by(64)
                        .map(|e| item_at(e % (far + 1), e - 5)),
                );
                items.extend([item_at(0, 0), item_at(far, far), item_at(far / 2, far / 3)]);
                let (grid, subgrids) = patterned(grid_size, items.len(), n, n);
                check(&grid, &items, &[&subgrids], n, "overlapping items");
                check(&grid, &[], &[&SubgridArray::new(0, n)], n, "no items");

                // the first items' subgrids from one array and the rest
                // from another, added in two calls, as a streamed commit
                // adds its chunks' jobs
                let (_, other) = patterned(grid_size, items.len(), n, n + 1);
                let (k, pixels) = (items.len() / 2, 4 * n * n);
                let mut head = SubgridArray::new(k, n);
                head.as_mut_slice()
                    .copy_from_slice(&subgrids.as_slice()[..k * pixels]);
                let mut tail = SubgridArray::new(items.len() - k, n);
                tail.as_mut_slice()
                    .copy_from_slice(&other.as_slice()[k * pixels..]);
                check(&grid, &items, &[&head, &tail], n, "two arrays");
            }
        }
    }

    #[test]
    fn the_splitter_rejects_the_non_finite_samples_it_reads_and_only_those() {
        let clean = pattern_grid();
        let (n, far) = (8, clean.size() - 1);
        let tables = KernelTables::new(n, 0.05);
        let items = footprints(clean.size(), n);
        let split = |grid: &Grid<f32>| {
            let mut subgrids = SubgridArray::new(items.len(), n);
            split_subgrids(grid, &items, &mut subgrids, &tables).map(|()| subgrids)
        };
        let expected = split(&clean).expect("clean grid");

        // outside every footprint: never read, so no error and no bit moves
        let mut unread = clean.clone();
        *unread.at_mut(2, 40, 40) = Cf32::new(f32::NAN, f32::INFINITY);
        let got = split(&unread).expect("a sample no footprint reads");
        assert!(sample_bits(got.as_slice()) == sample_bits(expected.as_slice()));

        // in item 4's footprint only, and in item 2's only: whichever
        // worker meets its sample first, the error names item 2
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad = clean.clone();
            bad.at_mut(3, far, far).im = poison;
            bad.at_mut(0, 11, far).re = poison;
            let err = split(&bad).err();
            assert!(
                matches!(&err, Some(IdgError::InvalidParameter(msg)) if msg.contains("at (56, 11)")),
                "{poison}: {err:?}"
            );
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
        let tables = KernelTables::for_observation(&obs);
        let mut grid = Grid::<f32>::new(obs.grid_size);
        let subgrids = SubgridArray::new(2, obs.subgrid_size);
        let items = [item_covering(&obs, 40, 40)];
        let err = add_subgrids(&mut grid, &items, &subgrids, &tables)
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
        let tables = KernelTables::for_observation(&obs);
        let grid = Grid::<f32>::new(obs.grid_size);
        let mut subgrids = SubgridArray::new(1, obs.subgrid_size);
        // footprint hangs off the right/bottom edge
        let items = [item_covering(&obs, obs.grid_size - 2, obs.grid_size - 2)];
        let err = split_subgrids(&grid, &items, &mut subgrids, &tables)
            .expect_err("out-of-grid placement must be rejected");
        assert!(matches!(err, IdgError::ShapeMismatch { .. }));
    }
}
