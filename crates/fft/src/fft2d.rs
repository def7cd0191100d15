//! 2-D transforms: the subgrid FFTs and the grid FFT.
//!
//! IDG Fourier-transforms every subgrid (4 polarization planes of
//! `Ñ × Ñ`) between the image and Fourier domains — step (2) of the
//! algorithm — and the imaging cycle transforms the full `N × N` grid
//! once per gridding/degridding pass. Both are row-column decompositions
//! on one kernel, [`FftPlan::process_lanes`]: a row-major plane *is* the
//! lane-interleaved form of its columns (lane = `x`), so the column
//! pass needs no gather. Two drivers sit on it, bit-identical to each
//! other and to row-by-row, column-by-column 1-D transforms:
//!
//! * *plane in cache* ([`Fft2d::process_with_scratch`], batched over
//!   planes with rayon by [`Fft2d::process_batch`] — the subgrid FFTs are
//!   embarrassingly parallel): transpose, all rows as `n` lanes,
//!   transpose back, all columns as `n` lanes;
//! * *banded* ([`Fft2d::process_grid`]): rows as 1-D transforms, columns
//!   in bands of [`BAND`] lanes, parallel inside one plane.

use crate::plan::{Direction, FftPlan};
use idg_types::{Complex, Float};
use rayon::prelude::*;

/// Columns per band of the grid FFT's column pass: 16 f32 complex values
/// are 128-byte row segments (two cache lines per strided access instead
/// of a fraction of one), and a band plus its stage scratch — `2·16·n`
/// values, 512 KB at `n` = 2048 in f32 — stays in a worker's L2.
const BAND: usize = 16;

/// A 2-D FFT plan for square `n × n` arrays.
pub struct Fft2d<T> {
    n: usize,
    plan: FftPlan<T>,
}

impl<T: Float> Fft2d<T> {
    /// Build a plan for `n × n` transforms.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            plan: FftPlan::new(n),
        }
    }

    /// Edge length.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Scratch length required per worker by the `_with_scratch` variants.
    pub fn scratch_len(&self) -> usize {
        // the transposed plane + the n-lane transform's scratch
        self.n * (self.n + self.plan.scratch_len())
    }

    /// Transform one row-major `n × n` plane in place using caller scratch.
    pub fn process_with_scratch(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: Direction,
    ) {
        let n = self.n;
        assert_eq!(data.len(), n * n, "plane must be n*n");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        let (transposed, fft_scratch) = scratch.split_at_mut(n * n);

        // Rows first, as the 1-D row-column form has it (the two orders
        // round differently): the transposed plane is the rows' lane form.
        transpose(data, transposed, n);
        self.plan.process_lanes(transposed, fft_scratch, n, dir);
        transpose(transposed, data, n);
        // columns: the row-major plane is already their lane form
        self.plan.process_lanes(data, fft_scratch, n, dir);
    }

    /// Transform one plane serially, allocating scratch internally (a
    /// grid-sized plane belongs to [`Fft2d::process_grid`]).
    pub fn process(&self, data: &mut [Complex<T>], dir: Direction) {
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.process_with_scratch(data, &mut scratch, dir);
    }

    /// Transform a batch of independent `n × n` planes in parallel —
    /// the subgrid-FFT step. `planes.len()` must be a multiple of `n²`.
    pub fn process_batch(&self, planes: &mut [Complex<T>], dir: Direction) {
        let n2 = self.n * self.n;
        assert_eq!(planes.len() % n2, 0, "batch must be whole planes");
        planes.par_chunks_exact_mut(n2).for_each_init(
            || vec![Complex::zero(); self.scratch_len()],
            |scratch, plane| {
                self.process_with_scratch(plane, scratch, dir);
            },
        );
    }

    /// Transform the full grid in parallel — the one big grid FFT of the
    /// imaging cycle, where per-plane parallelism (4 planes) is too
    /// coarse and a plane is far larger than any cache. Rows of every
    /// plane first; then, per plane, the columns in bands of [`BAND`]:
    /// a band's row segments are copied into an `[n][BAND]` chunk of an
    /// `n²` scratch, transformed there as `BAND` lanes while cache-hot,
    /// and a second pass copies the chunks back by rows. The copies only
    /// move data and each column sees the same 1-D plan as in
    /// [`Fft2d::process_with_scratch`], so the result is bit-identical to
    /// the per-plane path.
    pub fn process_grid(&self, planes: &mut [Complex<T>], dir: Direction) {
        let n = self.n;
        let n2 = n * n;
        assert_eq!(planes.len() % n2, 0, "grid must be whole planes");

        // rows of every plane, in parallel
        planes.par_chunks_exact_mut(n).for_each_init(
            || vec![Complex::zero(); self.plan.scratch_len()],
            |scratch, row| self.plan.process_with_scratch(row, scratch, dir),
        );

        // columns, one plane at a time through the shared scratch; the
        // last band is narrower when BAND does not divide n
        let mut bands = vec![Complex::zero(); n2];
        for plane in planes.chunks_exact_mut(n2) {
            let src = &*plane;
            bands.par_chunks_mut(BAND * n).enumerate().for_each_init(
                || vec![Complex::zero(); BAND * self.plan.scratch_len()],
                |scratch, (b, band)| {
                    let lanes = band.len() / n;
                    for (segment, row) in band.chunks_exact_mut(lanes).zip(src.chunks_exact(n)) {
                        segment.copy_from_slice(&row[b * BAND..][..lanes]);
                    }
                    self.plan.process_lanes(band, scratch, lanes, dir);
                },
            );
            plane
                .par_chunks_mut(BAND * n)
                .enumerate()
                .for_each(|(group, rows)| {
                    for (b, band) in bands.chunks(BAND * n).enumerate() {
                        let lanes = band.len() / n;
                        let segments = band[group * BAND * lanes..].chunks_exact(lanes);
                        for (row, segment) in rows.chunks_exact_mut(n).zip(segments) {
                            row[b * BAND..][..lanes].copy_from_slice(segment);
                        }
                    }
                });
        }
    }
}

/// `dst` = transpose of the row-major `n × n` plane `src` (cache-sized
/// planes only: no tiling).
fn transpose<T: Float>(src: &[Complex<T>], dst: &mut [Complex<T>], n: usize) {
    for (y, row) in src.chunks_exact(n).enumerate() {
        for (x, v) in row.iter().enumerate() {
            dst[x * n + y] = *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft2d;
    use idg_types::Cf64;

    fn signal2d(n: usize) -> Vec<Cf64> {
        (0..n * n)
            .map(|i| Cf64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos() * 0.5))
            .collect()
    }

    fn assert_close(a: &[Cf64], b: &[Cf64], tol: f64) {
        let scale = b.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() / scale < tol, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_direct_2d_dft() {
        for n in [4usize, 6, 8, 12, 16, 24, 32, 64] {
            let fft = Fft2d::<f64>::new(n);
            let x = signal2d(n);
            let mut got = x.clone();
            fft.process(&mut got, Direction::Forward);
            let expect = dft2d(&x, n, Direction::Forward);
            assert_close(&got, &expect, 1e-11);
        }
    }

    #[test]
    fn round_trip_2d() {
        for n in [7usize, 24, 32] {
            let fft = Fft2d::<f64>::new(n);
            let x = signal2d(n);
            let mut got = x.clone();
            fft.process(&mut got, Direction::Forward);
            fft.process(&mut got, Direction::Inverse);
            assert_close(&got, &x, 1e-11);
        }
    }

    #[test]
    fn batch_matches_single() {
        let n = 24;
        let fft = Fft2d::<f64>::new(n);
        let plane_a = signal2d(n);
        let plane_b: Vec<Cf64> = signal2d(n).iter().map(|c| c.conj()).collect();

        let mut batch: Vec<Cf64> = plane_a.iter().chain(plane_b.iter()).copied().collect();
        fft.process_batch(&mut batch, Direction::Forward);

        let mut ea = plane_a;
        let mut eb = plane_b;
        fft.process(&mut ea, Direction::Forward);
        fft.process(&mut eb, Direction::Forward);
        assert!(batch[..n * n] == ea);
        assert!(batch[n * n..] == eb);
    }

    /// `process_grid` must equal `process` on every plane bit for bit:
    /// the band copies only move data. Sizes cover Stockham and
    /// Bluestein (28) plans, a ragged last band (24, 28, 30, 250: not a
    /// multiple of 16) and the benchmark's 1024.
    fn grid_path_equals_plane_path<T: Float>() {
        for n in [24usize, 28, 30, 64, 250, 1024] {
            let fft = Fft2d::<T>::new(n);
            for nr_planes in [1usize, 4] {
                let x: Vec<Complex<T>> = (0..nr_planes * n * n)
                    .map(|i| {
                        let t = i as f64;
                        Complex::new(
                            T::from_f64((t * 0.13).sin()),
                            T::from_f64((t * 0.07).cos() * 0.5),
                        )
                    })
                    .collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut expect = x.clone();
                    for plane in expect.chunks_exact_mut(n * n) {
                        fft.process(plane, dir);
                    }
                    let mut got = x.clone();
                    fft.process_grid(&mut got, dir);
                    assert!(got == expect, "n = {n}, {nr_planes} planes, {dir:?}");
                }
            }
        }
    }

    #[test]
    fn grid_path_equals_plane_path_f32() {
        grid_path_equals_plane_path::<f32>();
    }

    #[test]
    fn grid_path_equals_plane_path_f64() {
        grid_path_equals_plane_path::<f64>();
    }

    /// Both drivers against the form they replace: every row, then every
    /// column gathered out, through the 1-D plan — exact equality.
    #[test]
    fn both_drivers_equal_row_column_1d_transforms() {
        for n in [16usize, 24, 28, 30, 32, 64, 250] {
            let fft = Fft2d::<f32>::new(n);
            let x: Vec<Complex<f32>> = signal2d(n).iter().map(|c| c.cast()).collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut expect = x.clone();
                let mut scratch = vec![Complex::zero(); fft.plan.scratch_len()];
                for row in expect.chunks_exact_mut(n) {
                    fft.plan.process_with_scratch(row, &mut scratch, dir);
                }
                let mut col = vec![Complex::zero(); n];
                for x in 0..n {
                    for y in 0..n {
                        col[y] = expect[y * n + x];
                    }
                    fft.plan.process_with_scratch(&mut col, &mut scratch, dir);
                    for y in 0..n {
                        expect[y * n + x] = col[y];
                    }
                }
                let mut plane = x.clone();
                let mut scratch = vec![Complex::zero(); fft.scratch_len()];
                fft.process_with_scratch(&mut plane, &mut scratch, dir);
                assert!(plane == expect, "plane driver, n = {n}, {dir:?}");
                let mut banded = x.clone();
                fft.process_grid(&mut banded, dir);
                assert!(banded == expect, "banded driver, n = {n}, {dir:?}");
            }
        }
    }

    #[test]
    fn dc_component_is_plane_sum() {
        let n = 12;
        let fft = Fft2d::<f64>::new(n);
        let x = signal2d(n);
        let sum: Cf64 = x.iter().copied().sum();
        let mut got = x;
        fft.process(&mut got, Direction::Forward);
        assert!((got[0] - sum).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "plane must be n*n")]
    fn wrong_plane_size_panics() {
        let fft = Fft2d::<f64>::new(8);
        let mut data = vec![Cf64::zero(); 60];
        fft.process(&mut data, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "scratch too short")]
    fn short_scratch_panics() {
        let fft = Fft2d::<f64>::new(8);
        let mut data = vec![Cf64::zero(); 64];
        let mut scratch = vec![Cf64::zero(); fft.scratch_len() - 1];
        fft.process_with_scratch(&mut data, &mut scratch, Direction::Forward);
    }
}
