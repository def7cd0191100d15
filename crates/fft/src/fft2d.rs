//! 2-D transforms: the subgrid FFTs and the grid FFT.
//!
//! IDG Fourier-transforms every subgrid (4 polarization planes of
//! `Ñ × Ñ`) between the image and Fourier domains — step (2) of the
//! algorithm — and the imaging cycle transforms the full `N × N` grid
//! once per gridding/degridding pass. Both are row-column decompositions
//! of the 1-D plans; the batched entry point parallelizes over planes
//! with rayon, matching the paper's observation that the subgrid FFTs are
//! embarrassingly parallel.

use crate::plan::{Direction, FftPlan};
use idg_types::{Complex, Float};
use rayon::prelude::*;

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
        // column gather buffer + 1-D scratch
        self.n + self.plan.scratch_len()
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
        assert!(scratch.len() >= self.scratch_len());
        let (col, fft_scratch) = scratch.split_at_mut(n);

        // rows: contiguous
        for row in data.chunks_exact_mut(n) {
            self.plan.process_with_scratch(row, fft_scratch, dir);
        }
        // columns: gather / transform / scatter
        for x in 0..n {
            for y in 0..n {
                col[y] = data[y * n + x];
            }
            self.plan.process_with_scratch(col, fft_scratch, dir);
            for y in 0..n {
                data[y * n + x] = col[y];
            }
        }
    }

    /// Transform one plane, allocating scratch internally.
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
    /// coarse. Rows of every plane first; then, per plane, the column
    /// pass as *row* transforms of the transposed plane: bands of
    /// [`TILE`] columns are transposed tile by tile into an `n²` scratch
    /// and transformed while still cache-hot, and a second blocked
    /// transpose writes them back. The transposes only move data and
    /// each column sees the same 1-D plan as in [`Fft2d::process`], so
    /// the result is bit-identical to the per-plane path.
    pub fn process_grid(&self, planes: &mut [Complex<T>], dir: Direction) {
        let n = self.n;
        let n2 = n * n;
        assert_eq!(planes.len() % n2, 0, "grid must be whole planes");
        let fft_scratch = || vec![Complex::zero(); self.plan.scratch_len()];

        // rows of every plane, in parallel
        planes
            .par_chunks_exact_mut(n)
            .for_each_init(fft_scratch, |scratch, row| {
                self.plan.process_with_scratch(row, scratch, dir);
            });

        // columns, one plane at a time through the shared scratch
        let mut transposed = vec![Complex::zero(); n2];
        for plane in planes.chunks_exact_mut(n2) {
            let src = &*plane;
            transposed
                .par_chunks_mut(TILE * n)
                .enumerate()
                .for_each_init(fft_scratch, |scratch, (band, cols)| {
                    transpose_band(src, cols, n, band * TILE);
                    for col in cols.chunks_exact_mut(n) {
                        self.plan.process_with_scratch(col, scratch, dir);
                    }
                });
            plane
                .par_chunks_mut(TILE * n)
                .enumerate()
                .for_each(|(band, rows)| transpose_band(&transposed, rows, n, band * TILE));
        }
    }
}

/// Edge of the square tiles the grid FFT transposes by: 32 × 32 complex
/// values keep a source and a destination tile L1-resident in f32 and
/// f64 alike.
const TILE: usize = 32;

/// Write rows `first..first + band.len() / n` of the transpose of the
/// row-major `n × n` plane `src` into `band`, tile by tile so the strided
/// reads of one tile stay in cache until its rows are complete.
fn transpose_band<T: Float>(src: &[Complex<T>], band: &mut [Complex<T>], n: usize, first: usize) {
    for c0 in (0..n).step_by(TILE) {
        let c1 = (c0 + TILE).min(n);
        for (r, row) in band.chunks_exact_mut(n).enumerate() {
            for (c, out) in row[c0..c1].iter_mut().enumerate() {
                *out = src[(c0 + c) * n + first + r];
            }
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
        for n in [4usize, 6, 8, 12, 24] {
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
        assert_close(&batch[..n * n], &ea, 1e-12);
        assert_close(&batch[n * n..], &eb, 1e-12);
    }

    /// `process_grid` must equal `process` on every plane bit for bit:
    /// the blocked transposes only move data. Sizes cover Stockham and
    /// Bluestein (28) plans, edges that are not a multiple of the tile
    /// (24, 28, 30, 250) and the benchmark's 1024.
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
}
