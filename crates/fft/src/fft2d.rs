//! 2-D transforms: the subgrid FFTs and the grid FFT.
//!
//! IDG Fourier-transforms every subgrid (4 polarization planes of
//! `Ñ × Ñ`) between the image and Fourier domains — step (2) of the
//! algorithm — and the imaging cycle transforms the full `N × N` grid
//! once per gridding/degridding pass. Both are row-column decompositions
//! on one kernel, [`FftPlan::process_lanes`]: a row-major plane *is* the
//! lane-interleaved form of its columns (lane = `x`), so the column
//! pass needs no gather. Three drivers sit on it; the first two are
//! bit-identical to each other and to row-by-row, column-by-column 1-D
//! transforms:
//!
//! * *plane in cache* ([`Fft2d::process_with_scratch`], batched over
//!   planes with rayon by [`Fft2d::process_batch`] — the subgrid FFTs are
//!   embarrassingly parallel): transpose, all rows as `n` lanes,
//!   transpose back, all columns as `n` lanes;
//! * *banded* ([`Fft2d::process_grid`]): rows as 1-D transforms, columns
//!   in bands of [`BAND`] lanes, parallel inside one plane;
//! * *real output* ([`Fft2d::inverse_real`]): the real part of an inverse
//!   transform — a dirty image — through the Hermitian half of the
//!   spectrum, banded like `process_grid` at about half its work.

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

    /// The real part of the inverse 2-D transform of the `n × n`
    /// spectrum `spectrum(ky, kx)` (any spectrum, Hermitian or not),
    /// row-major: `Re F⁻¹S`, the one transform a real image needs.
    ///
    /// `Re F⁻¹S = F⁻¹H` with `H(k) = ½(S(k) + conj S(−k mod n))`, and `H`
    /// is Hermitian, so half of each pass is redundant:
    ///
    /// * rows: only rows `0 ..= n/2` of `H` are built (reading `S` by
    ///   index, so the caller's shifts and sums cost no plane copy) and
    ///   transformed; row `n − ky` of the result is the conjugate of row
    ///   `ky`;
    /// * columns: every column is the inverse of a Hermitian sequence, so
    ///   real, and columns `2j` and `2j + 1` share one complex transform
    ///   as its real and imaginary parts — a lone last column (odd `n`)
    ///   is paired with zero. The pairs run in bands of [`BAND`] lanes as
    ///   in [`Fft2d::process_grid`], and a band's `[n][lanes]` complex
    ///   chunk is already its `2·lanes` real columns, row by row.
    ///
    /// Every `n`, Bluestein sizes included, takes this path. Not
    /// bit-identical to the real part of `process_grid` (the inputs are
    /// combined before the transform); `tests` hold it to the direct DFT.
    pub fn inverse_real<S>(&self, spectrum: S) -> Vec<T>
    where
        S: Fn(usize, usize) -> Complex<T> + Sync,
    {
        let n = self.n;
        let dir = Direction::Inverse;

        // rows 0 ..= n/2 of H, each transformed as soon as it is built
        let half = n / 2 + 1;
        let mut rows = vec![Complex::zero(); half * n];
        rows.par_chunks_exact_mut(n).enumerate().for_each_init(
            || vec![Complex::zero(); self.plan.scratch_len()],
            |scratch, (ky, row)| {
                let my = if ky == 0 { 0 } else { n - ky };
                let h = |kx, mx| (spectrum(ky, kx) + spectrum(my, mx).conj()).scale(T::HALF);
                row[0] = h(0, 0);
                for (kx, v) in row.iter_mut().enumerate().skip(1) {
                    *v = h(kx, n - kx);
                }
                self.plan.process_with_scratch(row, scratch, dir);
            },
        );

        // column pairs: Z = G(·, 2j) + i·G(·, 2j+1), G(n − ky) = conj G(ky)
        let mut bands = vec![Complex::zero(); n.div_ceil(2) * n];
        bands.par_chunks_mut(BAND * n).enumerate().for_each_init(
            || vec![Complex::zero(); BAND * self.plan.scratch_len()],
            |scratch, (b, band)| {
                let lanes = band.len() / n;
                let x0 = 2 * b * BAND;
                for (ky, segment) in band.chunks_exact_mut(lanes).enumerate() {
                    let (src, mirrored) = if ky < half {
                        (ky, false)
                    } else {
                        (n - ky, true)
                    };
                    let row = &rows[src * n..][..n];
                    let pair = |a: Complex<T>, b: Complex<T>| {
                        let (a, b) = if mirrored {
                            (a.conj(), b.conj())
                        } else {
                            (a, b)
                        };
                        a + b.mul_i()
                    };
                    let columns = row[x0..(x0 + 2 * lanes).min(n)].chunks_exact(2);
                    if let [lone] = columns.remainder() {
                        segment[lanes - 1] = pair(*lone, Complex::zero());
                    }
                    for (z, ab) in segment.iter_mut().zip(columns) {
                        *z = pair(ab[0], ab[1]);
                    }
                }
                self.plan.process_lanes(band, scratch, lanes, dir);
            },
        );
        drop(rows);

        // bands back to row-major real columns, BAND rows at a time
        let mut out = vec![T::ZERO; n * n];
        out.par_chunks_mut(BAND * n)
            .enumerate()
            .for_each(|(group, out_rows)| {
                for (b, band) in bands.chunks(BAND * n).enumerate() {
                    let lanes = band.len() / n;
                    let x0 = 2 * b * BAND;
                    let segments = band[group * BAND * lanes..].chunks_exact(lanes);
                    for (row, segment) in out_rows.chunks_exact_mut(n).zip(segments) {
                        let mut columns = row[x0..(x0 + 2 * lanes).min(n)].chunks_exact_mut(2);
                        for (re_im, z) in columns.by_ref().zip(segment) {
                            re_im[0] = z.re;
                            re_im[1] = z.im;
                        }
                        if let [lone] = columns.into_remainder() {
                            *lone = segment[lanes - 1].re;
                        }
                    }
                }
            });
        out
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

    /// A seeded non-Hermitian `n × n` spectrum: the real part of its
    /// inverse is not the whole inverse, so both halves of the identity
    /// `inverse_real` rests on are exercised.
    fn random_spectrum(n: usize, seed: u64) -> Vec<Cf64> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * n)
            .map(|_| Cf64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    }

    /// `max |got − expect| / max |expect|`.
    fn max_rel_diff(got: &[f64], expect: &[f64]) -> f64 {
        let peak = expect.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
        let diff = got
            .iter()
            .zip(expect)
            .fold(0.0, |m: f64, (a, b)| m.max((a - b).abs()));
        diff / peak
    }

    /// Against the direct-summation oracle, which shares no code with
    /// the plans: odd, even, Stockham and Bluestein (7, 28) sizes, a
    /// ragged last band (24, 28, 30) and the lone last column of odd `n`.
    #[test]
    fn inverse_real_is_real_part_of_direct_dft() {
        for n in [1usize, 2, 3, 5, 7, 8, 16, 24, 28, 30] {
            let s = random_spectrum(n, n as u64);
            let got = Fft2d::<f64>::new(n).inverse_real(|ky, kx| s[ky * n + kx]);
            let expect: Vec<f64> = dft2d(&s, n, Direction::Inverse)
                .iter()
                .map(|c| c.re)
                .collect();
            let err = max_rel_diff(&got, &expect);
            assert!(err < 1e-12, "n = {n}: {err:e}");
        }
    }

    /// Against the real part of the complex banded driver in f32, at the
    /// sizes where the bands matter: ragged (250), Bluestein and odd
    /// (251), and the benchmark's 1024.
    #[test]
    fn inverse_real_is_real_part_of_process_grid_f32() {
        for n in [250usize, 251, 1024] {
            let s: Vec<Complex<f32>> = random_spectrum(n, 7).iter().map(|c| c.cast()).collect();
            let fft = Fft2d::<f32>::new(n);
            let got = fft.inverse_real(|ky, kx| s[ky * n + kx]);
            let mut full = s.clone();
            fft.process_grid(&mut full, Direction::Inverse);
            let got: Vec<f64> = got.iter().map(|v| f64::from(*v)).collect();
            let expect: Vec<f64> = full.iter().map(|c| f64::from(c.re)).collect();
            let err = max_rel_diff(&got, &expect);
            assert!(err < 1e-6, "n = {n}: {err:e}");
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
