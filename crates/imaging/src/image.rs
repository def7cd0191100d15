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
use idg::types::{Cf32, Grid, IdgError, Observation};
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

/// The Stokes-I spectrum of a grid, `½(XX + YY)`, read at the
/// ifftshifted index — the input of every image transform, with the
/// shift folded into the read instead of a plane copy.
pub(crate) fn stokes_i(grid: &Grid<f32>) -> impl Fn(usize, usize) -> Cf32 + Sync + '_ {
    let n = grid.size();
    let (xx, yy) = (grid.plane(0), grid.plane(3));
    // ifftshift: index k of the transform input is grid index (k + n/2) mod n
    let source = move |k: usize| {
        if k + n / 2 < n {
            k + n / 2
        } else {
            k + n / 2 - n
        }
    };
    move |ky, kx| {
        let i = source(ky) * n + source(kx);
        (xx[i] + yy[i]).scale(0.5)
    }
}

/// The raw Stokes-I image of a grid, `Re F⁻¹(½(XX + YY))`, un-normalized
/// and *not* fftshifted (image pixel `(y, x)` sits at raw index
/// `fftshift_source(n, y, x)`; [`finalize`] reads it there).
pub(crate) fn raw_image(grid: &Grid<f32>) -> Vec<f32> {
    Fft2d::<f32>::new(grid.size()).inverse_real(stokes_i(grid))
}

/// Produce the Stokes-I dirty image from a gridded visibility grid.
///
/// `weight_sum` is the number of visibilities that were gridded (the
/// plan's `nr_gridded_visibilities()`); zero panics.
pub fn dirty_image(grid: &Grid<f32>, obs: &Observation, weight_sum: usize) -> Image {
    finalize(raw_image(grid), obs, weight_sum, true)
}

/// `weight`, the gridded-visibility count an image is normalized by, or
/// the error a plan that gridded nothing is (before any pass runs).
pub(crate) fn nonzero_weight(weight: usize) -> Result<usize, IdgError> {
    if weight == 0 {
        return Err(IdgError::InvalidParameter(
            "plan: the plan has no gridded visibilities, so there is no image to normalize".into(),
        ));
    }
    Ok(weight)
}

/// Normalize and taper-correct an accumulated raw Stokes-I plane (the
/// layout of [`raw_image`]) into a science image (see [`dirty_image`]
/// for the conventions).
pub(crate) fn finalize_dirty(raw: Vec<f32>, obs: &Observation, weight_sum: usize) -> Image {
    finalize(raw, obs, weight_sum, true)
}

/// Normalize, taper-correct and fftshift a raw plane into an image.
/// `mask_edge` zeroes the low-sensitivity rim (wanted for science
/// images, NOT for the PSF, whose sidelobe values must stay available
/// at every offset so CLEAN can subtract them).
fn finalize(raw: Vec<f32>, obs: &Observation, weight_sum: usize, mask_edge: bool) -> Image {
    assert!(weight_sum > 0, "cannot normalize an empty grid");
    let size = obs.grid_size;
    assert_eq!(raw.len(), size * size);
    let axis = taper_axis(size);
    let scale = (size * size) as f32 / weight_sum as f32;
    // fftshift as a read index: image pixel (y, x) is raw pixel
    // ((y + h) mod n, (x + h) mod n), so each image row is the raw row's
    // two halves swapped
    let h = size - size / 2;
    let mut image = Image::new(size);
    for (y, (row, taper_y)) in image.data.chunks_exact_mut(size).zip(&axis).enumerate() {
        let src = &raw[(y + h) % size * size..][..size];
        let (left, right) = row.split_at_mut(size - h);
        let (axis_left, axis_right) = axis.split_at(size - h);
        for (dst, src, axis) in [(left, &src[h..], axis_left), (right, &src[..h], axis_right)] {
            for ((v, r), taper_x) in dst.iter_mut().zip(src).zip(axis) {
                let taper = (taper_y * taper_x).max(1e-2);
                // Near the taper edge the correction divides by small
                // values, amplifying the percent-level aliasing of the
                // subgrid-sampled taper. Production imagers avoid this zone
                // by padding the grid and keeping the inner fraction;
                // science images mask it.
                *v = if mask_edge && taper < EDGE_MASK {
                    0.0
                } else {
                    r * scale / taper
                };
            }
        }
    }
    image
}

/// Taper level below which dirty-image pixels are masked to zero
/// (ψ² ≈ 0.05 corresponds to |η| ≳ 0.85 along an axis).
const EDGE_MASK: f32 = 0.05;

/// Synthesize the point-spread function: the dirty image of unit
/// visibilities on the same uv sampling, *unmasked* so sidelobe values
/// exist at every offset CLEAN may need. A plan that grids no
/// visibility is an [`IdgError::InvalidParameter`].
pub fn psf_image(
    proxy: &idg::Proxy,
    plan: &idg::Plan,
    uvw: &[idg::Uvw],
    aterms: &idg::telescope::ATerms,
) -> Result<Image, IdgError> {
    let mut grid = Grid::<f32>::new(proxy.observation().grid_size);
    psf_image_into(&mut grid, proxy, plan, uvw, aterms)
}

/// [`psf_image`], gridding the unit visibilities onto `grid`, which
/// must be zero; `grid` holds the PSF's grid afterwards.
pub(crate) fn psf_image_into(
    grid: &mut Grid<f32>,
    proxy: &idg::Proxy,
    plan: &idg::Plan,
    uvw: &[idg::Uvw],
    aterms: &idg::telescope::ATerms,
) -> Result<Image, IdgError> {
    let weight = nonzero_weight(plan.nr_gridded_visibilities())?;
    let one = Cf32::new(1.0, 0.0);
    let unit = idg::Visibility {
        pols: [one, Cf32::zero(), Cf32::zero(), one],
    };
    let vis = vec![unit; proxy.observation().nr_visibilities()];
    proxy.grid_into(grid, plan, uvw, &vis, aterms)?;
    Ok(finalize(
        raw_image(grid),
        proxy.observation(),
        weight,
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
    let mut grid = Grid::<f32>::new(obs.grid_size);
    model_grid_into(&mut grid, model, obs);
    grid
}

/// [`model_grid_from_image`], built in place over whatever `grid` held:
/// every pixel of every polarization is overwritten.
pub(crate) fn model_grid_into(grid: &mut Grid<f32>, model: &Image, obs: &Observation) {
    assert_eq!(model.size(), obs.grid_size);
    assert_eq!(grid.size(), obs.grid_size);
    let size = model.size();
    let axis = taper_axis(size);

    // transform in place in the XX plane, duplicate it into YY, and zero
    // XY and YX
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
    let planes = grid.as_mut_slice();
    planes[size * size..3 * size * size].fill(Cf32::zero());
    planes.copy_within(0..size * size, 3 * size * size);
}

/// The image-domain XX and YY planes the way the tree made them before
/// `Fft2d::inverse_real`: each plane through ifftshift → complex inverse
/// `process_grid` → fftshift. Test oracle only.
#[cfg(test)]
pub(crate) fn two_transform_planes(grid: &Grid<f32>) -> [Vec<Cf32>; 2] {
    let size = grid.size();
    [0, 3].map(|p| {
        let mut data = grid.plane(p).to_vec();
        ifftshift2d(&mut data, size);
        Fft2d::<f32>::new(size).process_grid(&mut data, Direction::Inverse);
        fftshift2d(&mut data, size);
        data
    })
}

/// The grid→image pipeline before `Fft2d::inverse_real`, kept whole as
/// the oracle of the one-transform path: two complex transforms, the
/// real part of their mean, then normalization in place on the shifted
/// plane — no code shared with [`raw_image`] or [`finalize`].
#[cfg(test)]
fn image_from_grid(
    grid: &Grid<f32>,
    obs: &Observation,
    weight_sum: usize,
    mask_edge: bool,
) -> Image {
    let [xx, yy] = two_transform_planes(grid);
    let size = obs.grid_size;
    let mut data: Vec<f32> = xx
        .iter()
        .zip(&yy)
        .map(|(a, b)| 0.5 * (a.re + b.re))
        .collect();
    let axis = taper_axis(size);
    let scale = (size * size) as f32 / weight_sum as f32;
    for (row, taper_y) in data.chunks_exact_mut(size).zip(&axis) {
        for (v, taper_x) in row.iter_mut().zip(&axis) {
            let taper = (taper_y * taper_x).max(1e-2);
            *v = if mask_edge && taper < EDGE_MASK {
                0.0
            } else {
                *v * scale / taper
            };
        }
    }
    Image { size, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::{Backend, Proxy};
    use idg_telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, PointSource, SkyModel};

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

    /// `|got − expect| ≤ 1e-6 · max |expect|` at every pixel *before* the
    /// taper correction — i.e. scaled back by the factor `finalize`
    /// divided that pixel by. After it, the rim's 1/taper (up to 20×
    /// masked, 100× unmasked) amplifies any f32 transform's rounding: the
    /// oracle itself is up to 4.9e-6 × peak from an f64 transform there
    /// (EXPERIMENTS.md "One real-output transform").
    fn assert_matches_oracle(got: &Image, expect: &Image, what: &str) {
        let axis = taper_axis(expect.size());
        let peak = expect.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(peak > 0.0, "{what}: empty oracle image");
        let rows = got.as_slice().chunks_exact(got.size());
        let rows = rows.zip(expect.as_slice().chunks_exact(expect.size()));
        let mut worst = 0.0f32;
        for ((got, expect), taper_y) in rows.zip(&axis) {
            for ((a, b), taper_x) in got.iter().zip(expect).zip(&axis) {
                worst = worst.max((a - b).abs() * (taper_y * taper_x).max(1e-2));
            }
        }
        assert!(worst <= 1e-6 * peak, "{what}: {worst:e} of peak {peak:e}");
    }

    /// A grid with XX ≠ YY and XY ≠ 0: a random sky under a Gaussian
    /// beam, its visibilities given Stokes Q, U and V.
    fn polarized_grid(n: usize) -> (Proxy, idg::Plan, Dataset, Grid<f32>) {
        let mut o = obs();
        o.grid_size = n;
        let beam = GaussianBeam::new(&o, 0.6, 11);
        let sky = SkyModel::random(&o, 6, 0.5, 12);
        let layout = Layout::uniform(o.nr_stations, 1200.0, 97);
        let mut ds = Dataset::simulate(o, &layout, sky, &beam);
        for v in &mut ds.visibilities {
            let i = v.pols[0];
            let (xy, yx) = (Cf32::new(0.2, 0.3), Cf32::new(0.2, -0.3));
            v.pols = [i.scale(1.3), i * xy, i * yx, i.scale(0.7)];
        }
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(grid.plane(0) != grid.plane(3), "XX ≠ YY");
        assert!(grid.plane(1).iter().any(|v| v.abs() > 0.0), "XY ≠ 0");
        (proxy, plan, ds, grid)
    }

    /// The one real-output transform against the two complex transforms
    /// it replaced, odd and even `n`, edge mask on (dirty image) and off
    /// (the PSF's normalization, on the polarized grid and on the PSF).
    #[test]
    fn images_match_the_two_transform_oracle() {
        for n in [255usize, 256] {
            let (proxy, plan, ds, grid) = polarized_grid(n);
            let weight = plan.nr_gridded_visibilities();
            assert_matches_oracle(
                &dirty_image(&grid, &ds.obs, weight),
                &image_from_grid(&grid, &ds.obs, weight, true),
                &format!("dirty image, n = {n}"),
            );
            assert_matches_oracle(
                &finalize(raw_image(&grid), &ds.obs, weight, false),
                &image_from_grid(&grid, &ds.obs, weight, false),
                &format!("unmasked image, n = {n}"),
            );

            let one = Cf32::new(1.0, 0.0);
            let unit = idg::Visibility {
                pols: [one, Cf32::zero(), Cf32::zero(), one],
            };
            let vis = vec![unit; ds.obs.nr_visibilities()];
            let (psf_grid, _) = proxy.grid(&plan, &ds.uvw, &vis, &ds.aterms).unwrap();
            assert_matches_oracle(
                &psf_image(&proxy, &plan, &ds.uvw, &ds.aterms).unwrap(),
                &image_from_grid(&psf_grid, &ds.obs, weight, false),
                &format!("psf, n = {n}"),
            );
        }
    }

    /// Every visibility far outside the grid: the plan is valid and
    /// grids nothing, so there is no PSF to normalize — an error, not
    /// `finalize`'s panic.
    #[test]
    fn psf_of_a_plan_that_grids_nothing_is_an_error() {
        let mut ds = dataset(SkyModel::empty());
        for uvw in &mut ds.uvw {
            (uvw.u, uvw.v) = (1e9, 1e9);
        }
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert_eq!(plan.nr_gridded_visibilities(), 0);
        let err = psf_image(&proxy, &plan, &ds.uvw, &ds.aterms).expect_err("nothing gridded");
        assert!(
            matches!(&err, IdgError::InvalidParameter(m) if m.contains("no gridded visibilities")),
            "{err}"
        );
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

    /// Built in place over a polarized grid — every plane non-zero —
    /// the model grid is the freshly allocated one, bit for bit.
    #[test]
    fn model_grid_into_a_used_grid_equals_a_fresh_one() {
        let (_, _, ds, mut grid) = polarized_grid(256);
        assert!((0..4).all(|p| grid.plane(p).iter().any(|v| v.abs() > 0.0)));
        let mut model = Image::new(ds.obs.grid_size);
        *model.at_mut(110, 150) = 1.8;
        *model.at_mut(131, 97) = -0.4;
        model_grid_into(&mut grid, &model, &ds.obs);
        let bits = |g: &Grid<f32>| -> Vec<u32> {
            let samples = g.as_slice().iter();
            samples
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        let fresh = model_grid_from_image(&model, &ds.obs);
        assert!(bits(&grid) == bits(&fresh));
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn empty_weight_sum_panics() {
        let o = obs();
        let grid = Grid::<f32>::new(o.grid_size);
        dirty_image(&grid, &o, 0);
    }
}
