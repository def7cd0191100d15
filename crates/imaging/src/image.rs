//! Grid ⇄ image conversions.
//!
//! Conventions (derived from the kernel/adder conventions pinned in
//! `idg-kernels`):
//!
//! * image pixel `X` sees direction `l = (X − G/2)·image_size/G`
//!   (FFT bins are integral, so no half-pixel offset at grid scale);
//! * a dirty image is `F⁻¹(grid)·G²/W` divided by the grid-scale
//!   spheroidal (the taper the gridder imposed in the image domain),
//!   where `W` is the sum of gridding weights (here: the number of
//!   gridded visibilities) — this normalization makes a `F` Jy point
//!   source peak at `F`;
//! * a model grid is `F(model/taper)` so that degridding it predicts
//!   the direct measurement-equation visibilities of the model.

use idg::fft::{fftshift2d, ifftshift2d, Direction, Fft2d};
use idg::types::{Cf32, Grid, Observation};
use idg_math::spheroidal_eta;

/// A real-valued Stokes-I image.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    size: usize,
    data: Vec<f32>,
}

impl Image {
    /// Allocate a zeroed image.
    pub fn new(size: usize) -> Self {
        Self {
            size,
            data: vec![0.0; size * size],
        }
    }

    /// Edge length in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, y: usize, x: usize) -> f32 {
        self.data[y * self.size + x]
    }

    /// Mutable pixel accessor.
    #[inline]
    pub fn at_mut(&mut self, y: usize, x: usize) -> &mut f32 {
        &mut self.data[y * self.size + x]
    }

    /// Raw pixels (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw pixels, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `(x, y, value)` of the absolute-maximum pixel.
    pub fn peak(&self) -> (usize, usize, f32) {
        let mut best = (0, 0, 0.0f32);
        for y in 0..self.size {
            for x in 0..self.size {
                let v = self.at(y, x);
                if v.abs() > best.2.abs() {
                    best = (x, y, v);
                }
            }
        }
        best
    }

    /// Root-mean-square pixel value.
    pub fn rms(&self) -> f64 {
        let s: f64 = self.data.iter().map(|v| (*v as f64) * (*v as f64)).sum();
        (s / self.data.len() as f64).sqrt()
    }

    /// RMS over the inner region, excluding a border of
    /// `border_fraction × size` pixels on each side — the convergence
    /// metric of the imaging cycle (the rim is taper-noise dominated).
    pub fn rms_inner(&self, border_fraction: f64) -> f64 {
        let border = ((self.size as f64 * border_fraction) as usize).min(self.size / 2 - 1);
        let mut s = 0.0f64;
        let mut n = 0usize;
        for y in border..self.size - border {
            for x in border..self.size - border {
                let v = self.at(y, x) as f64;
                s += v * v;
                n += 1;
            }
        }
        (s / n as f64).sqrt()
    }

    /// Direction cosine of pixel index `i` (x or y axis).
    pub fn pixel_to_lm(obs: &Observation, i: usize) -> f64 {
        (i as f64 - obs.grid_size as f64 / 2.0) * obs.image_size / obs.grid_size as f64
    }

    /// Nearest pixel index for a direction cosine.
    pub fn lm_to_pixel(obs: &Observation, lm: f64) -> usize {
        let p = lm * obs.grid_size as f64 / obs.image_size + obs.grid_size as f64 / 2.0;
        p.round().clamp(0.0, obs.grid_size as f64 - 1.0) as usize
    }
}

/// One axis of the grid-scale taper the gridder imposed. The taper is
/// separable — `ψ(η_y)·ψ(η_x)` with `η = 2(X − G/2)/G` — so callers
/// multiply two axis values per pixel instead of tabulating `G²` of
/// them, and clamp the product below a floor to avoid blowing up the
/// (astronomically uninteresting) image edge.
fn taper_axis(size: usize) -> Vec<f32> {
    (0..size)
        .map(|i| spheroidal_eta(2.0 * (i as f64 - size as f64 / 2.0) / size as f64) as f32)
        .collect()
}

/// One polarization plane of the grid to the image domain:
/// ifftshift → inverse FFT → fftshift.
fn plane_to_image(plane: &[Cf32], size: usize) -> Vec<Cf32> {
    let mut data = plane.to_vec();
    ifftshift2d(&mut data, size);
    let fft = Fft2d::<f32>::new(size);
    fft.process_grid(&mut data, Direction::Inverse);
    fftshift2d(&mut data, size);
    data
}

/// Produce the Stokes-I dirty image from a gridded visibility grid.
///
/// `weight_sum` is the number of visibilities that were gridded (the
/// plan's `nr_gridded_visibilities()`).
pub fn dirty_image(grid: &Grid<f32>, obs: &Observation, weight_sum: usize) -> Image {
    image_from_grid(grid, obs, weight_sum, true)
}

/// Shared grid→image pipeline; `mask_edge` zeroes the low-sensitivity
/// rim (wanted for science images, NOT for the PSF, whose sidelobe
/// values must stay available at every offset so CLEAN can subtract
/// them).
fn image_from_grid(
    grid: &Grid<f32>,
    obs: &Observation,
    weight_sum: usize,
    mask_edge: bool,
) -> Image {
    let (xx, yy) = dirty_image_planes(grid);
    let raw: Vec<f32> = (0..xx.len()).map(|i| 0.5 * (xx[i].re + yy[i].re)).collect();
    finalize(raw, obs, weight_sum, mask_edge)
}

/// The raw (un-normalized, complex) image-domain XX and YY planes of a
/// grid — the building block W-stacking combines with per-plane screens
/// before normalization.
pub fn dirty_image_planes(grid: &Grid<f32>) -> (Vec<Cf32>, Vec<Cf32>) {
    let size = grid.size();
    (
        plane_to_image(grid.plane(0), size),
        plane_to_image(grid.plane(3), size),
    )
}

/// Normalize and taper-correct an accumulated raw Stokes-I plane into a
/// science image (see [`dirty_image`] for the conventions).
pub fn finalize_dirty(raw: Vec<f32>, obs: &Observation, weight_sum: usize) -> Image {
    finalize(raw, obs, weight_sum, true)
}

fn finalize(mut raw: Vec<f32>, obs: &Observation, weight_sum: usize, mask_edge: bool) -> Image {
    assert!(weight_sum > 0, "cannot normalize an empty grid");
    let size = obs.grid_size;
    assert_eq!(raw.len(), size * size);
    let axis = taper_axis(size);
    let scale = (size * size) as f32 / weight_sum as f32;
    for (row, taper_y) in raw.chunks_exact_mut(size).zip(&axis) {
        for (v, taper_x) in row.iter_mut().zip(&axis) {
            let taper = (taper_y * taper_x).max(1e-2);
            // Near the taper edge the correction divides by small values,
            // amplifying the percent-level aliasing of the subgrid-sampled
            // taper. Production imagers avoid this zone by padding the grid
            // and keeping the inner fraction; science images mask it.
            *v = if mask_edge && taper < EDGE_MASK {
                0.0
            } else {
                *v * scale / taper
            };
        }
    }
    Image { size, data: raw }
}

/// Taper level below which dirty-image pixels are masked to zero
/// (ψ² ≈ 0.05 corresponds to |η| ≳ 0.85 along an axis).
const EDGE_MASK: f32 = 0.05;

/// Synthesize the point-spread function: the dirty image of unit
/// visibilities on the same uv sampling, *unmasked* so sidelobe values
/// exist at every offset CLEAN may need.
pub fn psf_image(
    proxy: &idg::Proxy,
    plan: &idg::Plan,
    uvw: &[idg::Uvw],
    aterms: &idg::telescope::ATerms,
) -> Result<Image, idg::types::IdgError> {
    let one = Cf32::new(1.0, 0.0);
    let unit = idg::Visibility {
        pols: [one, Cf32::zero(), Cf32::zero(), one],
    };
    let vis = vec![unit; proxy.observation().nr_visibilities()];
    let (grid, _) = proxy.grid(plan, uvw, &vis, aterms)?;
    Ok(image_from_grid(
        &grid,
        proxy.observation(),
        plan.nr_gridded_visibilities(),
        false,
    ))
}

/// The beam-weight image of a sampled A-term set at grid resolution.
///
/// A (real, scalar) beam `b` attenuates each visibility by `b_p·b_q ≈ b²`
/// in the measurement, and the gridder's *adjoint* A-term sandwich
/// applies the same factor again, so a unit point source responds with
/// `b⁴` in the dirty image. Recovering fluxes divides by this weight
/// map — the flat-gain correction every production imager applies. The
/// weight is `⟨A⟩⁴` with `⟨A⟩` the Stokes-I-projected Jones mean over
/// stations and A-term intervals (exact for identical scalar beams, an
/// approximation otherwise), bilinearly upsampled from subgrid to grid
/// resolution; values below `floor` are clamped (outside the beam the
/// image has no sensitivity to correct).
pub fn beam_weight_image(aterms: &idg::telescope::ATerms, obs: &Observation, floor: f32) -> Image {
    let n = aterms.subgrid_size();
    let count = (aterms.nr_intervals() * aterms.nr_stations()) as f32;
    // Stokes-I scalar response per subgrid pixel
    let mut mean = vec![0.0f32; n * n];
    for interval in 0..aterms.nr_intervals() {
        for station in 0..aterms.nr_stations() {
            let plane = aterms.plane(interval, station);
            for (i, j) in plane.iter().enumerate() {
                mean[i] += 0.5 * (j.xx.re + j.yy.re);
            }
        }
    }
    for v in &mut mean {
        *v /= count;
    }

    // bilinear upsample to grid resolution: grid pixel X sits at
    // subgrid coordinate x_f = l·Ñ/image + Ñ/2 − ½.
    let g = obs.grid_size;
    let mut weight = Image::new(g);
    for gy in 0..g {
        let m = Image::pixel_to_lm(obs, gy);
        let yf = (m / obs.image_size) * n as f64 + n as f64 / 2.0 - 0.5;
        let y0 = (yf.floor().clamp(0.0, (n - 1) as f64)) as usize;
        let y1 = (y0 + 1).min(n - 1);
        let ty = (yf - y0 as f64).clamp(0.0, 1.0) as f32;
        for gx in 0..g {
            let l = Image::pixel_to_lm(obs, gx);
            let xf = (l / obs.image_size) * n as f64 + n as f64 / 2.0 - 0.5;
            let x0 = (xf.floor().clamp(0.0, (n - 1) as f64)) as usize;
            let x1 = (x0 + 1).min(n - 1);
            let tx = (xf - x0 as f64).clamp(0.0, 1.0) as f32;
            let b = mean[y0 * n + x0] * (1.0 - ty) * (1.0 - tx)
                + mean[y0 * n + x1] * (1.0 - ty) * tx
                + mean[y1 * n + x0] * ty * (1.0 - tx)
                + mean[y1 * n + x1] * ty * tx;
            *weight.at_mut(gy, gx) = (b * b * b * b).max(floor);
        }
    }
    weight
}

/// Build a model grid whose degridding predicts the direct
/// measurement-equation visibilities of `model` (a Stokes-I image of
/// point-source fluxes): `grid = F(model/taper)` on XX and YY.
pub fn model_grid_from_image(model: &Image, obs: &Observation) -> Grid<f32> {
    assert_eq!(model.size(), obs.grid_size);
    let size = model.size();
    let axis = taper_axis(size);

    // transform in place in the XX plane, then duplicate it into YY
    let mut grid = Grid::<f32>::new(size);
    let plane = grid.plane_mut(0);
    let rows = plane
        .chunks_exact_mut(size)
        .zip(model.as_slice().chunks_exact(size));
    for ((out, values), taper_y) in rows.zip(&axis) {
        for ((o, v), taper_x) in out.iter_mut().zip(values).zip(&axis) {
            *o = Cf32::new(v / (taper_y * taper_x).max(1e-3), 0.0);
        }
    }
    ifftshift2d(plane, size);
    let fft = Fft2d::<f32>::new(size);
    fft.process_grid(plane, Direction::Forward);
    fftshift2d(plane, size);
    grid.as_mut_slice()
        .copy_within(0..size * size, 3 * size * size);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::{Backend, Proxy};
    use idg_telescope::{Dataset, IdentityATerm, Layout, PointSource, SkyModel};

    fn obs() -> Observation {
        Observation::builder()
            .stations(8)
            .timesteps(64)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(32)
            .image_size(0.05)
            .build()
            .unwrap()
    }

    fn dataset(sky: SkyModel) -> Dataset {
        let o = obs();
        let layout = Layout::uniform(o.nr_stations, 1200.0, 97);
        Dataset::simulate(o, &layout, sky, &IdentityATerm)
    }

    #[test]
    fn image_accessors_and_peak() {
        let mut img = Image::new(8);
        *img.at_mut(3, 5) = -2.5;
        *img.at_mut(1, 1) = 1.0;
        assert_eq!(img.peak(), (5, 3, -2.5));
        assert!(img.rms() > 0.0);
        assert_eq!(img.size(), 8);
    }

    #[test]
    fn pixel_lm_round_trip() {
        let o = obs();
        for i in [0usize, 100, 128, 200, 255] {
            let lm = Image::pixel_to_lm(&o, i);
            assert_eq!(Image::lm_to_pixel(&o, lm), i);
        }
        assert_eq!(Image::pixel_to_lm(&o, 128), 0.0, "center pixel is l=0");
    }

    #[test]
    fn center_source_flux_is_recovered() {
        let flux = 2.5;
        let ds = dataset(SkyModel::single_center(flux));
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let dirty = dirty_image(&grid, &ds.obs, plan.nr_gridded_visibilities());
        let (px, py, peak) = dirty.peak();
        assert_eq!((px, py), (128, 128), "peak at the phase center");
        assert!(
            (peak - flux as f32).abs() < 0.05 * flux as f32,
            "peak {peak} vs flux {flux}"
        );
    }

    #[test]
    fn off_center_source_localizes_correctly() {
        let src = PointSource {
            l: 0.008,
            m: -0.0115,
            flux: 1.0,
        };
        let ds = dataset(SkyModel { sources: vec![src] });
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let dirty = dirty_image(&grid, &ds.obs, plan.nr_gridded_visibilities());
        let (px, py, peak) = dirty.peak();
        let ex = Image::lm_to_pixel(&ds.obs, src.l);
        let ey = Image::lm_to_pixel(&ds.obs, src.m);
        assert!(
            (px as i64 - ex as i64).abs() <= 1 && (py as i64 - ey as i64).abs() <= 1,
            "peak at ({px},{py}), expected ({ex},{ey})"
        );
        assert!(peak > 0.7, "flux mostly recovered: {peak}");
    }

    #[test]
    fn psf_peaks_at_unity_at_center() {
        let ds = dataset(SkyModel::empty());
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let psf = psf_image(&proxy, &plan, &ds.uvw, &ds.aterms).expect("psf gridding");
        let (px, py, peak) = psf.peak();
        assert_eq!((px, py), (128, 128));
        assert!((peak - 1.0).abs() < 0.05, "psf peak {peak}");
    }

    #[test]
    fn model_grid_degrids_to_direct_prediction() {
        // delta model at an off-center pixel; degridding its model grid
        // must reproduce the measurement-equation visibilities of a
        // point source at that pixel's (l, m).
        let ds = dataset(SkyModel::empty());
        let proxy = Proxy::new(Backend::CpuReference, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let (px, py) = (150usize, 110usize);
        let flux = 1.8f32;
        let mut model = Image::new(ds.obs.grid_size);
        *model.at_mut(py, px) = flux;
        let grid = model_grid_from_image(&model, &ds.obs);

        let (pred, _) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();

        // direct prediction at the pixel's exact (l, m)
        let src = PointSource {
            l: Image::pixel_to_lm(&ds.obs, px),
            m: Image::pixel_to_lm(&ds.obs, py),
            flux: flux as f64,
        };
        let direct = idg::telescope::predict_visibilities(
            &ds.obs,
            &ds.uvw,
            &IdentityATerm,
            &SkyModel { sources: vec![src] },
        );

        let mut err_acc = 0.0f64;
        let mut mag_acc = 0.0f64;
        for (a, b) in pred.iter().zip(&direct) {
            err_acc += (a.pols[0] - b.pols[0]).abs() as f64;
            mag_acc += b.pols[0].abs() as f64;
        }
        let rel = err_acc / mag_acc;
        assert!(rel < 0.02, "mean relative prediction error {rel}");
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn empty_weight_sum_panics() {
        let o = obs();
        let grid = Grid::<f32>::new(o.grid_size);
        dirty_image(&grid, &o, 0);
    }
}
