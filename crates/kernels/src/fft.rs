//! Batched subgrid FFTs — step (2) of the IDG pipeline.
//!
//! Every subgrid's four polarization planes are transformed between the
//! image domain (where the gridder/degridder and the corrections operate)
//! and the Fourier domain (where the adder/splitter move data to/from the
//! grid). The batch is embarrassingly parallel (Sec. V-B c) and is
//! delegated to `idg-fft`'s rayon-parallel batch path.

use crate::buffers::SubgridArray;
use idg_fft::{Direction, Fft2d};
use idg_types::Float;

/// Extra normalization applied after the transform.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FftNorm {
    /// No extra scaling (forward unscaled / inverse 1/N² — the plan's
    /// native convention; the adder applies the gridding-side 1/Ñ²).
    None,
    /// Multiply by `1/Ñ²` (useful when bypassing the adder in tests).
    ByPixelCount,
}

/// Transform all subgrids in `array` in the given direction.
pub fn fft_subgrids(array: &mut SubgridArray, direction: Direction, norm: FftNorm) {
    let n = array.size();
    if array.count() == 0 {
        return;
    }
    let count = array.count() as u64;
    match direction {
        Direction::Forward => idg_obs::add_subgrids_fft(count),
        Direction::Inverse => idg_obs::add_subgrids_ifft(count),
    }
    let fft = Fft2d::<f32>::new(n);
    fft.process_batch(array.as_mut_slice(), direction);
    if norm == FftNorm::ByPixelCount {
        let scale = 1.0 / f32::from_usize(n * n);
        for v in array.as_mut_slice() {
            *v = v.scale(scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_types::{Cf32, Complex};

    fn total_power(array: &SubgridArray) -> f64 {
        array
            .as_slice()
            .iter()
            .map(|c| Complex::norm_sqr(*c) as f64)
            .sum()
    }

    fn filled(count: usize, n: usize) -> SubgridArray {
        let mut arr = SubgridArray::new(count, n);
        for (i, v) in arr.as_mut_slice().iter_mut().enumerate() {
            *v = Cf32::new(((i * 13) % 7) as f32 - 3.0, ((i * 5) % 11) as f32 * 0.25);
        }
        arr
    }

    #[test]
    fn forward_inverse_round_trip() {
        let orig = filled(3, 24);
        let mut arr = orig.clone();
        fft_subgrids(&mut arr, Direction::Forward, FftNorm::None);
        fft_subgrids(&mut arr, Direction::Inverse, FftNorm::None);
        for (a, b) in arr.as_slice().iter().zip(orig.as_slice()) {
            assert!((*a - *b).abs() < 1e-3);
        }
    }

    #[test]
    fn parseval_across_batch() {
        let orig = filled(2, 16);
        let mut arr = orig.clone();
        fft_subgrids(&mut arr, Direction::Forward, FftNorm::None);
        let e_time = total_power(&orig);
        let e_freq = total_power(&arr) / (16.0 * 16.0);
        assert!((e_time - e_freq).abs() < 1e-6 * e_time);
    }

    #[test]
    fn pixel_count_norm() {
        let mut arr = filled(1, 8);
        let mut reference = arr.clone();
        fft_subgrids(&mut arr, Direction::Forward, FftNorm::ByPixelCount);
        fft_subgrids(&mut reference, Direction::Forward, FftNorm::None);
        for (a, b) in arr.as_slice().iter().zip(reference.as_slice()) {
            assert!((a.scale(64.0) - *b).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut arr = SubgridArray::new(0, 24);
        fft_subgrids(&mut arr, Direction::Forward, FftNorm::None);
        assert_eq!(arr.count(), 0);
    }
}
