//! The grid container.
//!
//! The *grid* is the discrete Fourier transform of the sky image: a
//! `grid_size × grid_size` plane per polarization (4 planes). *Subgrids*
//! are the small `N × N` tiles at the heart of IDG (24×24 in the paper's
//! benchmark), onto which neighbouring visibilities are accumulated before
//! being Fourier-transformed and added to the grid; a pass's subgrids
//! live in one batch, `idg_kernels::SubgridArray`.
//!
//! Both use planar polarization layout `[pol][y][x]`: the adder
//! parallelizes over bands of one plane's rows (Sec. V-B d) and the FFT
//! transforms each polarization plane independently, so planar storage
//! gives both unit stride.

use crate::complex::Complex;
use crate::float::Float;

/// Number of polarization products (XX, XY, YX, YY).
pub const NR_POLARIZATIONS: usize = 4;

/// The master grid: 4 polarization planes of `size × size` complex pixels.
#[derive(Clone, Debug)]
pub struct Grid<T> {
    size: usize,
    data: Vec<Complex<T>>,
}

impl<T: Float> Grid<T> {
    /// Allocate a zeroed grid of `size × size` pixels per polarization.
    ///
    /// The storage comes from [`Complex::zeroed_vec`]: in a release build
    /// a large grid costs nothing until it is touched, and a pass pays
    /// only for the pages its subgrids land on; a debug build writes
    /// every sample.
    pub fn new(size: usize) -> Self {
        Self {
            size,
            data: Complex::zeroed_vec(NR_POLARIZATIONS * size * size),
        }
    }

    /// Grid edge length in pixels.
    #[inline(always)]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Linear index of `(pol, y, x)`.
    #[inline(always)]
    fn index(&self, pol: usize, y: usize, x: usize) -> usize {
        (pol * self.size + y) * self.size + x
    }

    /// Read one pixel.
    #[inline(always)]
    pub fn at(&self, pol: usize, y: usize, x: usize) -> Complex<T> {
        debug_assert!(pol < NR_POLARIZATIONS && y < self.size && x < self.size);
        self.data[self.index(pol, y, x)]
    }

    /// Mutable access to one pixel.
    #[inline(always)]
    pub fn at_mut(&mut self, pol: usize, y: usize, x: usize) -> &mut Complex<T> {
        debug_assert!(pol < NR_POLARIZATIONS && y < self.size && x < self.size);
        let i = self.index(pol, y, x);
        &mut self.data[i]
    }

    /// One full polarization plane as a slice (row-major).
    #[inline]
    pub fn plane(&self, pol: usize) -> &[Complex<T>] {
        let n = self.size * self.size;
        &self.data[pol * n..(pol + 1) * n]
    }

    /// One full polarization plane, mutable.
    #[inline]
    pub fn plane_mut(&mut self, pol: usize) -> &mut [Complex<T>] {
        let n = self.size * self.size;
        &mut self.data[pol * n..(pol + 1) * n]
    }

    /// One row of one polarization plane.
    #[inline]
    pub fn row(&self, pol: usize, y: usize) -> &[Complex<T>] {
        let start = self.index(pol, y, 0);
        &self.data[start..start + self.size]
    }

    /// Raw backing store (planar `[pol][y][x]`).
    #[inline]
    pub fn as_slice(&self) -> &[Complex<T>] {
        &self.data
    }

    /// Raw backing store, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex<T>] {
        &mut self.data
    }

    /// Reset all pixels to zero (reused between imaging cycles).
    pub fn clear(&mut self) {
        self.data.fill(Complex::zero());
    }

    /// Sum of `|pixel|²` over all pixels and polarizations.
    pub fn power(&self) -> f64 {
        self.data.iter().map(|c| c.norm_sqr().to_f64()).sum()
    }

    /// Element-wise accumulate another grid of the same size (used by
    /// `idg-wproj`'s gridder to merge its per-thread partial grids).
    pub fn accumulate(&mut self, other: &Grid<T>) {
        assert_eq!(self.size, other.size, "grid size mismatch");
        for (dst, src) in self.data.iter_mut().zip(other.data.iter()) {
            *dst += *src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cf32;

    #[test]
    fn grid_starts_zeroed() {
        let g = Grid::<f32>::new(16);
        assert_eq!(g.size(), 16);
        assert_eq!(g.power(), 0.0);
    }

    #[test]
    fn grid_pixel_round_trip() {
        let mut g = Grid::<f32>::new(8);
        *g.at_mut(2, 3, 5) = Cf32::new(1.0, -2.0);
        assert_eq!(g.at(2, 3, 5), Cf32::new(1.0, -2.0));
        assert_eq!(g.at(2, 5, 3), Cf32::zero());
        assert_eq!(g.at(1, 3, 5), Cf32::zero());
    }

    #[test]
    fn grid_planes_are_disjoint() {
        let mut g = Grid::<f32>::new(4);
        g.plane_mut(0).fill(Cf32::new(1.0, 0.0));
        assert_eq!(g.plane(1).iter().map(|c| c.re).sum::<f32>(), 0.0);
        assert_eq!(g.plane(0).iter().map(|c| c.re).sum::<f32>(), 16.0);
    }

    #[test]
    fn grid_row_matches_at() {
        let mut g = Grid::<f32>::new(4);
        *g.at_mut(3, 2, 1) = Cf32::new(7.0, 0.0);
        assert_eq!(g.row(3, 2)[1], Cf32::new(7.0, 0.0));
    }

    #[test]
    fn grid_accumulate_adds() {
        let mut a = Grid::<f32>::new(4);
        let mut b = Grid::<f32>::new(4);
        *a.at_mut(0, 1, 1) = Cf32::new(1.0, 0.0);
        *b.at_mut(0, 1, 1) = Cf32::new(2.0, 1.0);
        a.accumulate(&b);
        assert_eq!(a.at(0, 1, 1), Cf32::new(3.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "grid size mismatch")]
    fn grid_accumulate_size_mismatch_panics() {
        let mut a = Grid::<f32>::new(4);
        let b = Grid::<f32>::new(8);
        a.accumulate(&b);
    }

    #[test]
    fn grid_clear_resets() {
        let mut g = Grid::<f32>::new(4);
        *g.at_mut(0, 0, 0) = Cf32::new(5.0, 5.0);
        g.clear();
        assert_eq!(g.power(), 0.0);
    }
}
