//! Contiguous subgrid storage shared by gridder, FFT, adder and splitter.

use idg_types::{Cf32, Complex, NR_POLARIZATIONS};

/// A batch of subgrids in `[subgrid][pol][y][x]` layout — contiguous so
/// the batched FFT can treat it as a sequence of planes and the (modeled)
/// device transfers can move it as one allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct SubgridArray {
    size: usize,
    count: usize,
    data: Vec<Cf32>,
}

impl SubgridArray {
    /// Allocate `count` zeroed subgrids of `size × size` pixels.
    pub fn new(count: usize, size: usize) -> Self {
        Self {
            size,
            count,
            data: vec![Complex::zero(); count * NR_POLARIZATIONS * size * size],
        }
    }

    /// Subgrid edge length.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of subgrids.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Bytes per subgrid (4 polarization planes of complex f32).
    pub fn bytes_per_subgrid(&self) -> usize {
        NR_POLARIZATIONS * self.size * self.size * std::mem::size_of::<Cf32>()
    }

    /// One whole subgrid (4 planes), immutable.
    #[inline]
    pub fn subgrid(&self, idx: usize) -> &[Cf32] {
        let n = NR_POLARIZATIONS * self.size * self.size;
        &self.data[idx * n..(idx + 1) * n]
    }

    /// One whole subgrid (4 planes), mutable.
    #[inline]
    pub fn subgrid_mut(&mut self, idx: usize) -> &mut [Cf32] {
        let n = NR_POLARIZATIONS * self.size * self.size;
        &mut self.data[idx * n..(idx + 1) * n]
    }

    /// Iterate over subgrids mutably (rayon-splittable chunks).
    pub fn subgrids_mut(&mut self) -> std::slice::ChunksExactMut<'_, Cf32> {
        let n = NR_POLARIZATIONS * self.size * self.size;
        self.data.chunks_exact_mut(n)
    }

    /// Iterate over subgrids immutably.
    pub fn subgrids(&self) -> std::slice::ChunksExact<'_, Cf32> {
        let n = NR_POLARIZATIONS * self.size * self.size;
        self.data.chunks_exact(n)
    }

    /// Raw backing store (`count × 4` planes of `size²`).
    #[inline]
    pub fn as_slice(&self) -> &[Cf32] {
        &self.data
    }

    /// Raw backing store, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Cf32] {
        &mut self.data
    }

    /// Read pixel `(pol, y, x)` of subgrid `idx`.
    #[inline(always)]
    pub fn at(&self, idx: usize, pol: usize, y: usize, x: usize) -> Cf32 {
        self.subgrid(idx)[(pol * self.size + y) * self.size + x]
    }

    /// Zero all subgrids.
    pub fn clear(&mut self) {
        self.data.fill(Complex::zero());
    }

    /// Keep the first `count` subgrids, as they are (no-op when `count`
    /// is not smaller): a job-sized buffer reused for a shorter tail job
    /// is not re-zeroed, since the gridder and the splitter overwrite
    /// every sample of every subgrid they are given.
    pub fn truncate(&mut self, count: usize) {
        if count < self.count {
            self.count = count;
            self.data
                .truncate(count * NR_POLARIZATIONS * self.size * self.size);
        }
    }

    /// Sum of |pixel|² across the whole batch.
    pub fn power(&self) -> f64 {
        self.data.iter().map(|c| c.norm_sqr() as f64).sum()
    }
}

/// Index of pixel `(pol, y, x)` within a single-subgrid slice of edge `n`.
#[inline(always)]
pub fn pixel_index(n: usize, pol: usize, y: usize, x: usize) -> usize {
    (pol * n + y) * n + x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_accessors() {
        let mut arr = SubgridArray::new(3, 8);
        assert_eq!(arr.count(), 3);
        assert_eq!(arr.size(), 8);
        assert_eq!(arr.as_slice().len(), 3 * 4 * 64);
        assert_eq!(arr.bytes_per_subgrid(), 4 * 64 * 8);

        arr.subgrid_mut(1)[pixel_index(8, 2, 3, 4)] = Cf32::new(1.0, -1.0);
        assert_eq!(arr.at(1, 2, 3, 4), Cf32::new(1.0, -1.0));
        assert_eq!(arr.at(0, 2, 3, 4), Cf32::zero());
        assert_eq!(arr.at(2, 2, 3, 4), Cf32::zero());
    }

    #[test]
    fn chunks_are_disjoint_and_complete() {
        let mut arr = SubgridArray::new(4, 4);
        for (i, sg) in arr.subgrids_mut().enumerate() {
            sg[0] = Cf32::new(i as f32, 0.0);
        }
        for (i, sg) in arr.subgrids().enumerate() {
            assert_eq!(sg[0], Cf32::new(i as f32, 0.0));
        }
        assert_eq!(arr.subgrids().count(), 4);
    }

    #[test]
    fn clear_and_power() {
        let mut arr = SubgridArray::new(2, 4);
        arr.subgrid_mut(0)[0] = Cf32::new(3.0, 4.0);
        assert!((arr.power() - 25.0).abs() < 1e-6);
        arr.clear();
        assert_eq!(arr.power(), 0.0);
    }

    #[test]
    fn truncate_keeps_the_leading_subgrids() {
        let mut arr = SubgridArray::new(3, 4);
        for (i, sg) in arr.subgrids_mut().enumerate() {
            sg.fill(Cf32::new(i as f32 + 1.0, 0.0));
        }
        arr.truncate(5);
        assert_eq!(arr.count(), 3, "never grows");
        arr.truncate(2);
        assert_eq!(arr.count(), 2);
        assert_eq!(arr.as_slice().len(), 2 * 4 * 16);
        assert_eq!(arr.subgrids().count(), 2);
        assert_eq!(arr.at(1, 3, 3, 3), Cf32::new(2.0, 0.0), "not re-zeroed");
    }
}
