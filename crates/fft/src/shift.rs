//! `fftshift` / `ifftshift` index permutations.
//!
//! The FFT places the zero frequency at index 0 while the grid convention
//! puts DC at the center pixel (`grid_size/2`). The adder/splitter and the
//! imaging cycle therefore shuttle subgrids and grids through these
//! permutations. For even sizes (the paper's 24 and 2048) the two shifts
//! coincide and are a swap of diagonally opposite quadrants, done in
//! place; the odd-size case is kept correct for generality through a
//! generic roll.

use idg_types::{Complex, Float};

/// Swap diagonally opposite quadrants of an even-sized plane in place:
/// the circular shift by `n/2` on both axes, without a temporary plane.
fn swap_quadrants<T: Float>(data: &mut [Complex<T>], n: usize) {
    assert_eq!(data.len(), n * n);
    if n == 0 {
        return;
    }
    let h = n / 2;
    let (top, bottom) = data.split_at_mut(h * n);
    for (upper, lower) in top.chunks_exact_mut(n).zip(bottom.chunks_exact_mut(n)) {
        let (upper_left, upper_right) = upper.split_at_mut(h);
        let (lower_left, lower_right) = lower.split_at_mut(h);
        upper_left.swap_with_slice(lower_right);
        upper_right.swap_with_slice(lower_left);
    }
}

/// Circularly shift a row-major `n × n` plane by `(sy, sx)` pixels.
fn roll2d<T: Float>(data: &mut [Complex<T>], n: usize, sy: usize, sx: usize) {
    assert_eq!(data.len(), n * n);
    if (sy == 0 && sx == 0) || n == 0 {
        return;
    }
    let mut tmp = vec![Complex::<T>::zero(); n * n];
    for y in 0..n {
        let ny = (y + sy) % n;
        for x in 0..n {
            let nx = (x + sx) % n;
            tmp[ny * n + nx] = data[y * n + x];
        }
    }
    data.copy_from_slice(&tmp);
}

/// Shift both axes by `odd_shift`, which for even `n` is `n/2` whichever
/// way it was rounded: the in-place quadrant swap.
fn shift2d<T: Float>(data: &mut [Complex<T>], n: usize, odd_shift: usize) {
    if n.is_multiple_of(2) {
        swap_quadrants(data, n);
    } else {
        roll2d(data, n, odd_shift, odd_shift);
    }
}

/// Move DC from index (0,0) to the center `(n/2, n/2)`.
pub fn fftshift2d<T: Float>(data: &mut [Complex<T>], n: usize) {
    shift2d(data, n, n / 2);
}

/// Inverse of [`fftshift2d`] (distinct from it only for odd `n`).
pub fn ifftshift2d<T: Float>(data: &mut [Complex<T>], n: usize) {
    shift2d(data, n, n.div_ceil(2));
}

/// The fftshift *index map* without moving data: source index that lands
/// at `(y, x)` after an fftshift of an `n`-sized plane. The kernels use
/// this to fuse the shift into the subgrid store/load loops instead of
/// paying a separate permutation pass (the reference IDG code does the
/// same inside `kernel_gridder`).
#[inline(always)]
pub fn fftshift_source(n: usize, y: usize, x: usize) -> (usize, usize) {
    // After fftshift dst[(y + n/2) % n][(x + n/2) % n] = src[y][x]
    // so the source of dst (y,x) is ((y + n - n/2) % n, ...).
    let h = n - n / 2;
    ((y + h) % n, (x + h) % n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_types::Cf64;

    fn plane(n: usize) -> Vec<Cf64> {
        (0..n * n)
            .map(|i| Cf64::new(i as f64, -(i as f64)))
            .collect()
    }

    #[test]
    fn even_shift_moves_dc_to_center() {
        let n = 8;
        let mut d = vec![Cf64::zero(); n * n];
        d[0] = Cf64::new(1.0, 0.0);
        fftshift2d(&mut d, n);
        assert_eq!(d[(n / 2) * n + n / 2], Cf64::new(1.0, 0.0));
        assert_eq!(d[0], Cf64::zero());
    }

    #[test]
    fn even_shift_is_involution() {
        let n = 24;
        let orig = plane(n);
        let mut d = orig.clone();
        fftshift2d(&mut d, n);
        fftshift2d(&mut d, n);
        assert_eq!(d, orig);
    }

    #[test]
    fn even_shifts_match_the_generic_roll() {
        for n in [2usize, 4, 24, 30, 64, 250] {
            let mut rolled = plane(n);
            roll2d(&mut rolled, n, n / 2, n / 2);
            let mut shifted = plane(n);
            fftshift2d(&mut shifted, n);
            assert_eq!(shifted, rolled, "fftshift, n = {n}");
            let mut unshifted = plane(n);
            ifftshift2d(&mut unshifted, n);
            assert_eq!(unshifted, rolled, "ifftshift, n = {n}");
        }
    }

    #[test]
    fn odd_roundtrip_needs_ifftshift() {
        let n = 7;
        let orig = plane(n);
        let mut d = orig.clone();
        fftshift2d(&mut d, n);
        ifftshift2d(&mut d, n);
        assert_eq!(d, orig);

        let mut e = orig.clone();
        ifftshift2d(&mut e, n);
        fftshift2d(&mut e, n);
        assert_eq!(e, orig);
    }

    #[test]
    fn source_map_agrees_with_data_movement() {
        let n = 24;
        let orig = plane(n);
        let mut shifted = orig.clone();
        fftshift2d(&mut shifted, n);
        for y in 0..n {
            for x in 0..n {
                let (sy, sx) = fftshift_source(n, y, x);
                assert_eq!(shifted[y * n + x], orig[sy * n + sx], "at ({y},{x})");
            }
        }
    }

    #[test]
    fn source_map_odd_size() {
        let n = 5;
        let orig = plane(n);
        let mut shifted = orig.clone();
        fftshift2d(&mut shifted, n);
        for y in 0..n {
            for x in 0..n {
                let (sy, sx) = fftshift_source(n, y, x);
                assert_eq!(shifted[y * n + x], orig[sy * n + sx]);
            }
        }
    }

    #[test]
    fn zero_size_is_noop() {
        let mut d: Vec<Cf64> = vec![];
        fftshift2d(&mut d, 0);
        assert!(d.is_empty());
    }
}
