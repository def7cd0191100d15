//! Högbom CLEAN minor cycles.
//!
//! After imaging, "one or more bright sources, which mask the more
//! interesting weak sources, are extracted using a variant of the CLEAN
//! algorithm and added to the sky model" (Sec. II). This is the classic
//! Högbom variant: repeatedly find the residual peak, subtract a
//! `gain`-scaled shifted copy of the PSF, and record the component.

use crate::image::Image;
use std::ops::Range;

/// Minor-cycle parameters.
#[derive(Copy, Clone, Debug)]
pub struct CleanParams {
    /// Loop gain (fraction of the peak removed per iteration).
    pub gain: f32,
    /// Maximum number of minor-cycle iterations.
    pub max_iterations: usize,
    /// Stop when the absolute residual peak drops below this.
    pub threshold: f32,
    /// Fraction of the image edge excluded from peak search (the CLEAN
    /// window): near the taper edge the IDG image is noise-amplified,
    /// so components are only sought in the inner region, like the
    /// clean boxes / padding of production imagers.
    pub search_border: f32,
}

impl Default for CleanParams {
    fn default() -> Self {
        Self {
            gain: 0.1,
            max_iterations: 200,
            threshold: 0.0,
            search_border: 0.25,
        }
    }
}

/// Largest `|v|` of a row slice — the vectorizable half of the peak
/// search: independent lane maxima instead of one serial compare chain
/// (float max is not reassociated by the compiler on its own). NaNs
/// never win a comparison, as in a scalar scan.
fn row_abs_max(row: &[f32]) -> f32 {
    const LANES: usize = 16;
    let larger = |best: f32, v: &f32| if v.abs() > best { v.abs() } else { best };
    let mut lanes = [0.0f32; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = larger(*lane, v);
        }
    }
    let tail = chunks.remainder().iter().fold(0.0, larger);
    lanes.iter().fold(tail, larger)
}

/// One extracted CLEAN component.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CleanComponent {
    /// Pixel x.
    pub x: usize,
    /// Pixel y.
    pub y: usize,
    /// Component flux (image units).
    pub flux: f32,
}

/// Run Högbom CLEAN on `residual` in place; returns the component list.
///
/// `psf` must be the same size as `residual`, peaking at its center
/// pixel with value ≈ 1 (see [`crate::image::psf_image`]).
///
/// Each iteration streams the residual once: `flux·PSF` is subtracted
/// over the rectangle where the shifted PSF overlaps the image, as
/// contiguous row slices, and every clean-window row it touches has its
/// `max |v|` refreshed while still in cache. The next peak is then the
/// first row holding the largest row maximum and the first pixel
/// attaining it there — the row-major, first-strictly-greater rule of a
/// pixel-by-pixel scan.
pub fn hogbom_clean(
    residual: &mut Image,
    psf: &Image,
    params: &CleanParams,
) -> Vec<CleanComponent> {
    let size = residual.size();
    hogbom_clean_over(residual, psf, params, 0..size)
}

/// The clean window of a `size²` image: the rows, and the columns, the
/// peak search covers.
pub(crate) fn clean_window(size: usize, params: &CleanParams) -> Range<usize> {
    let border = ((size as f32 * params.search_border) as usize).min(size / 2 - 1);
    border..size - border
}

/// [`hogbom_clean`]'s body, subtracting the PSF over the rows and
/// columns in `span` only. The peak search reads the clean window alone,
/// so any `span` holding the window finds the same components, bit for
/// bit, and leaves the same window pixels; pixels outside `span` are
/// not touched.
pub(crate) fn hogbom_clean_over(
    residual: &mut Image,
    psf: &Image,
    params: &CleanParams,
    span: Range<usize>,
) -> Vec<CleanComponent> {
    assert_eq!(residual.size(), psf.size(), "psf/residual size mismatch");
    let size = residual.size();
    let center = size / 2;
    let window = clean_window(size, params);
    assert!(span.start <= window.start && window.end <= span.end && span.end <= size);
    let border = window.start;
    let mut components = Vec::new();

    let residual = residual.as_mut_slice();
    let psf = psf.as_slice();
    let mut row_peaks: Vec<f32> = window
        .clone()
        .map(|y| row_abs_max(&residual[y * size..][window.clone()]))
        .collect();

    for _ in 0..params.max_iterations {
        let (mut peak_row, mut peak_abs) = (0, 0.0f32);
        for (row, &row_peak) in row_peaks.iter().enumerate() {
            if row_peak > peak_abs {
                (peak_row, peak_abs) = (row, row_peak);
            }
        }
        if peak_abs <= params.threshold || peak_abs == 0.0 {
            break;
        }
        let py = border + peak_row;
        // pixels before the first one attaining the row's maximum:
        // `peak_abs` is one of these `abs()` values, copied, so the
        // compare is exact by construction
        #[allow(clippy::float_cmp)]
        let px = border
            + residual[py * size..][window.clone()]
                .iter()
                .take_while(|v| v.abs() != peak_abs)
                .count();
        let flux = params.gain * residual[py * size + px];

        // subtract flux × PSF shifted to (px, py): image pixel (y, x)
        // sees PSF pixel (y − py + center, x − px + center)
        let clip = |lo: usize, hi: usize| (lo.max(span.start), hi.min(span.end));
        let (y0, y1) = clip(py.saturating_sub(center), py + size - center);
        let (x0, x1) = clip(px.saturating_sub(center), px + size - center);
        for y in y0..y1 {
            let row = &mut residual[y * size..][..size];
            let psf_row = &psf[(y + center - py) * size..][x0 + center - px..][..x1 - x0];
            for (r, p) in row[x0..x1].iter_mut().zip(psf_row) {
                *r -= flux * p;
            }
            if window.contains(&y) {
                row_peaks[y - border] = row_abs_max(&row[window.clone()]);
            }
        }

        // merge with an existing component at the same pixel
        if let Some(existing) = components
            .iter_mut()
            .find(|c: &&mut CleanComponent| c.x == px && c.y == py)
        {
            existing.flux += flux;
        } else {
            components.push(CleanComponent { x: px, y: py, flux });
        }
    }
    components
}

/// Total flux of a component list.
pub fn total_component_flux(components: &[CleanComponent]) -> f64 {
    components.iter().map(|c| c.flux as f64).sum()
}

/// Render components into a model image.
pub fn components_to_image(components: &[CleanComponent], size: usize) -> Image {
    let mut image = Image::new(size);
    for c in components {
        *image.at_mut(c.y, c.x) += c.flux;
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic PSF: unit peak with small symmetric sidelobes.
    fn synthetic_psf(size: usize) -> Image {
        let mut psf = Image::new(size);
        let c = size / 2;
        for y in 0..size {
            for x in 0..size {
                let dy = y as f64 - c as f64;
                let dx = x as f64 - c as f64;
                let r2 = dx * dx + dy * dy;
                let main = (-r2 / 2.0).exp();
                let sidelobe = 0.05 * (-r2 / 200.0).exp() * (0.5 * (r2).sqrt()).cos();
                *psf.at_mut(y, x) = (main + sidelobe) as f32;
            }
        }
        *psf.at_mut(c, c) = 1.0;
        psf
    }

    /// Convolve a delta at (x, y) with the PSF into `img`.
    fn add_source(img: &mut Image, psf: &Image, x: usize, y: usize, flux: f32) {
        let size = img.size();
        let c = size / 2;
        for iy in 0..size {
            let py = iy as i64 - y as i64 + c as i64;
            if !(0..size as i64).contains(&py) {
                continue;
            }
            for ix in 0..size {
                let px = ix as i64 - x as i64 + c as i64;
                if !(0..size as i64).contains(&px) {
                    continue;
                }
                *img.at_mut(iy, ix) += flux * psf.at(py as usize, px as usize);
            }
        }
    }

    /// The pixel-by-pixel Högbom loop that [`hogbom_clean`] must
    /// reproduce bit for bit: a guarded scalar scan for the peak and a
    /// bounds-checked scalar subtraction over the whole image.
    fn hogbom_clean_scalar(
        residual: &mut Image,
        psf: &Image,
        params: &CleanParams,
    ) -> Vec<CleanComponent> {
        let size = residual.size();
        let center = size / 2;
        let border = ((size as f32 * params.search_border) as usize).min(size / 2 - 1);
        let mut components: Vec<CleanComponent> = Vec::new();

        for _ in 0..params.max_iterations {
            let (mut px, mut py, mut peak) = (border, border, 0.0f32);
            for y in border..size - border {
                for x in border..size - border {
                    let v = residual.at(y, x);
                    if v.abs() > peak.abs() {
                        (px, py, peak) = (x, y, v);
                    }
                }
            }
            if peak.abs() <= params.threshold || peak == 0.0 {
                break;
            }
            let flux = params.gain * peak;
            for y in 0..size {
                let psf_y = y as i64 - py as i64 + center as i64;
                if !(0..size as i64).contains(&psf_y) {
                    continue;
                }
                for x in 0..size {
                    let psf_x = x as i64 - px as i64 + center as i64;
                    if !(0..size as i64).contains(&psf_x) {
                        continue;
                    }
                    *residual.at_mut(y, x) -= flux * psf.at(psf_y as usize, psf_x as usize);
                }
            }
            if let Some(existing) = components.iter_mut().find(|c| c.x == px && c.y == py) {
                existing.flux += flux;
            } else {
                components.push(CleanComponent { x: px, y: py, flux });
            }
        }
        components
    }

    /// Run [`hogbom_clean`] on `dirty` and require the scalar oracle's
    /// components *and* residual, exactly.
    fn clean_checked(dirty: &mut Image, psf: &Image, params: &CleanParams) -> Vec<CleanComponent> {
        let mut expect = dirty.clone();
        let want = hogbom_clean_scalar(&mut expect, psf, params);
        let got = hogbom_clean(dirty, psf, params);
        assert_eq!(got, want, "components differ from the scalar loop");
        assert!(*dirty == expect, "residual differs from the scalar loop");
        got
    }

    /// Run the window-only minor cycle on a copy of `dirty` and require
    /// [`hogbom_clean`]'s components bit for bit, its residual inside the
    /// clean window, and `dirty`'s pixels, untouched, outside it.
    fn window_only_checked(dirty: &Image, psf: &Image, params: &CleanParams) {
        let size = dirty.size();
        let window = clean_window(size, params);
        let (mut whole, mut windowed) = (dirty.clone(), dirty.clone());
        let want = hogbom_clean(&mut whole, psf, params);
        let got = hogbom_clean_over(&mut windowed, psf, params, window.clone());
        let bits = |comps: &[CleanComponent]| -> Vec<(usize, usize, u32)> {
            comps.iter().map(|c| (c.x, c.y, c.flux.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want), "components");
        for y in 0..size {
            for x in 0..size {
                let inside = window.contains(&y) && window.contains(&x);
                let expect = if inside {
                    whole.at(y, x)
                } else {
                    dirty.at(y, x)
                };
                assert_eq!(windowed.at(y, x).to_bits(), expect.to_bits(), "({x}, {y})");
            }
        }
    }

    #[test]
    fn clean_recovers_a_single_source() {
        let psf = synthetic_psf(64);
        let mut dirty = Image::new(64);
        add_source(&mut dirty, &psf, 20, 40, 3.0);

        let params = CleanParams {
            gain: 0.2,
            max_iterations: 500,
            threshold: 0.01,
            search_border: 0.05,
        };
        let comps = clean_checked(&mut dirty, &psf, &params);

        assert!(!comps.is_empty());
        // dominant component at the source pixel
        let main = comps
            .iter()
            .max_by(|a, b| a.flux.total_cmp(&b.flux))
            .unwrap();
        assert_eq!((main.x, main.y), (20, 40));
        let flux = total_component_flux(&comps);
        assert!((flux - 3.0).abs() < 0.15, "recovered {flux}");
        // residual cleaned below threshold
        assert!(dirty.peak().2.abs() <= 0.011);
    }

    #[test]
    fn clean_separates_two_sources() {
        let psf = synthetic_psf(64);
        let mut dirty = Image::new(64);
        add_source(&mut dirty, &psf, 16, 16, 2.0);
        add_source(&mut dirty, &psf, 48, 50, 1.0);

        let params = CleanParams {
            gain: 0.2,
            max_iterations: 1000,
            threshold: 0.02,
            search_border: 0.05,
        };
        let comps = clean_checked(&mut dirty, &psf, &params);
        let near = |cx: usize, cy: usize| {
            comps
                .iter()
                .filter(|c| c.x.abs_diff(cx) <= 1 && c.y.abs_diff(cy) <= 1)
                .map(|c| c.flux as f64)
                .sum::<f64>()
        };
        assert!(
            (near(16, 16) - 2.0).abs() < 0.25,
            "source A {}",
            near(16, 16)
        );
        assert!(
            (near(48, 50) - 1.0).abs() < 0.25,
            "source B {}",
            near(48, 50)
        );
    }

    #[test]
    fn threshold_stops_early() {
        let psf = synthetic_psf(32);
        let mut dirty = Image::new(32);
        add_source(&mut dirty, &psf, 10, 10, 1.0);
        let params = CleanParams {
            gain: 0.5,
            max_iterations: 1000,
            threshold: 0.5,
            search_border: 0.05,
        };
        let comps = clean_checked(&mut dirty, &psf, &params);
        assert!(comps.len() <= 2, "stops once peak < threshold");
        assert!(dirty.peak().2.abs() <= 0.5);
    }

    #[test]
    fn max_iterations_bounds_work() {
        let psf = synthetic_psf(32);
        let mut dirty = Image::new(32);
        add_source(&mut dirty, &psf, 10, 10, 1.0);
        let params = CleanParams {
            gain: 0.01,
            max_iterations: 7,
            threshold: 0.0,
            search_border: 0.05,
        };
        let before = dirty.peak().2;
        let comps = clean_checked(&mut dirty, &psf, &params);
        // components merge per pixel, so count ≤ iterations
        assert!(total_component_flux(&comps) > 0.0);
        assert!(comps.len() <= 7);
        assert!(dirty.peak().2 < before);
    }

    #[test]
    fn negative_peaks_are_cleaned_too() {
        let psf = synthetic_psf(32);
        let mut dirty = Image::new(32);
        add_source(&mut dirty, &psf, 12, 20, -2.0);
        let params = CleanParams {
            gain: 0.2,
            max_iterations: 300,
            threshold: 0.05,
            search_border: 0.05,
        };
        let comps = clean_checked(&mut dirty, &psf, &params);
        let flux = total_component_flux(&comps);
        assert!((flux + 2.0).abs() < 0.2, "negative flux recovered: {flux}");
    }

    #[test]
    fn empty_image_yields_no_components() {
        let psf = synthetic_psf(16);
        let mut dirty = Image::new(16);
        let comps = clean_checked(&mut dirty, &psf, &CleanParams::default());
        assert!(comps.is_empty());
    }

    #[test]
    fn window_corner_peaks_clip_the_psf_on_every_side() {
        let size = 64;
        let psf = synthetic_psf(size);
        // 0.25: the overlap rectangle covers the window exactly;
        // 0.05: window rows outside the overlap keep their cached maxima
        for search_border in [0.25f32, 0.05] {
            let lo = (size as f32 * search_border) as usize;
            let hi = size - lo - 1;
            let params = CleanParams {
                gain: 0.2,
                max_iterations: 60,
                threshold: 0.01,
                search_border,
            };
            let corners = [
                (lo, lo, 2.0f32),
                (hi, lo, -1.5),
                (lo, hi, 1.0),
                (hi, hi, 0.5),
            ];
            for (x, y, flux) in corners {
                let mut dirty = Image::new(size);
                add_source(&mut dirty, &psf, x, y, flux);
                window_only_checked(&dirty, &psf, &params);
                let comps = clean_checked(&mut dirty, &psf, &params);
                assert_eq!((comps[0].x, comps[0].y), (x, y));
            }
            let mut dirty = Image::new(size);
            for (x, y, flux) in corners {
                add_source(&mut dirty, &psf, x, y, flux);
            }
            window_only_checked(&dirty, &psf, &params);
            let comps = clean_checked(&mut dirty, &psf, &params);
            assert!(comps.len() >= 4);
        }
    }

    #[test]
    fn equal_peaks_resolve_row_major_first() {
        let psf = synthetic_psf(32);
        let params = CleanParams {
            gain: 0.3,
            max_iterations: 5,
            threshold: 0.0,
            search_border: 0.1,
        };
        // same row: lower x first; different rows: lower y first, also
        // when the later one has the opposite sign
        for (first, second, sign) in [
            ((10, 20), (25, 20), 1.0f32),
            ((25, 12), (8, 19), 1.0),
            ((25, 12), (8, 19), -1.0),
        ] {
            let mut dirty = Image::new(32);
            *dirty.at_mut(first.1, first.0) = 1.25;
            *dirty.at_mut(second.1, second.0) = 1.25 * sign;
            window_only_checked(&dirty, &psf, &params);
            let comps = clean_checked(&mut dirty, &psf, &params);
            assert_eq!((comps[0].x, comps[0].y), first);
            assert_eq!((comps[1].x, comps[1].y), second);
        }
    }

    #[test]
    fn search_border_clamps_to_a_two_pixel_window() {
        let size = 64;
        let psf = synthetic_psf(size);
        let mut dirty = Image::new(size);
        add_source(&mut dirty, &psf, 32, 31, 1.0);
        add_source(&mut dirty, &psf, 10, 12, 5.0); // outside the window
        let params = CleanParams {
            gain: 0.2,
            max_iterations: 40,
            threshold: 0.0,
            search_border: 0.9,
        };
        let comps = clean_checked(&mut dirty, &psf, &params);
        assert!(!comps.is_empty());
        let window = size / 2 - 1..size / 2 + 1;
        assert!(comps
            .iter()
            .all(|c| window.contains(&c.x) && window.contains(&c.y)));
    }

    #[test]
    fn major_cycle_shape_matches_the_scalar_loop() {
        // the benchmark's `major_cycle` minor-cycle settings at 256²
        let size = 256;
        let psf = synthetic_psf(size);
        let mut dirty = Image::new(size);
        add_source(&mut dirty, &psf, 100, 150, 3.0);
        add_source(&mut dirty, &psf, 171, 88, 2.0);
        add_source(&mut dirty, &psf, 130, 131, 1.0);
        let params = CleanParams {
            gain: 0.2,
            max_iterations: 300,
            threshold: 0.05,
            ..CleanParams::default()
        };
        window_only_checked(&dirty, &psf, &params);
        let comps = clean_checked(&mut dirty, &psf, &params);
        let flux = total_component_flux(&comps);
        assert!((flux - 6.0).abs() < 0.4, "recovered {flux}");
    }

    #[test]
    fn components_to_image_round_trip() {
        let comps = vec![
            CleanComponent {
                x: 3,
                y: 4,
                flux: 1.5,
            },
            CleanComponent {
                x: 3,
                y: 4,
                flux: 0.5,
            },
            CleanComponent {
                x: 7,
                y: 1,
                flux: -1.0,
            },
        ];
        let img = components_to_image(&comps, 16);
        assert_eq!(img.at(4, 3), 2.0);
        assert_eq!(img.at(1, 7), -1.0);
        assert_eq!(img.at(0, 0), 0.0);
    }
}
