//! The kernel tables of one subgrid geometry: direction-cosine planes
//! and adder/splitter phasor tables.
//!
//! The kernels read two kinds of item-independent data: the per-pixel
//! direction cosines `l, m, n(l,m)` (identical for every work item of a
//! subgrid geometry — only the `(u₀,v₀,w₀)` offset varies) and the
//! adder/splitter phasor tables (`phase_correction`, the fftshift index
//! map, and the n×n product tables). Both depend on the subgrid size and
//! the field of view alone, so they are constants of an observation,
//! like the taper: a `Proxy` builds one [`KernelTables`] when it is
//! created and every kernel reads it as a field.
//!
//! Numerical contract: the tables are produced by *the same expressions,
//! in the same order* as the per-call code they replaced, so the
//! kernels' output bits do not depend on where the tables came from.

use crate::geometry::KernelGeometry;
use idg_fft::shift::fftshift_source;
use idg_types::{Cf32, Complex, Float, IdgError, Observation};

/// Per-axis phase-correction table: `corr[j] = e^{iπ(j−Ñ/2)(Ñ−1)/Ñ}` —
/// the half-pixel ramp that compensates the `x + 0.5` pixel-center
/// convention of the image-domain kernels.
pub fn phase_correction(n: usize) -> Vec<Cf32> {
    (0..n)
        .map(|j| {
            let p = j as f64 - n as f64 / 2.0;
            let phase = std::f64::consts::PI * p * (n as f64 - 1.0) / n as f64;
            Complex::new(f32::from_f64(phase.cos()), f32::from_f64(phase.sin()))
        })
        .collect()
}

/// Per-pixel direction cosines of one subgrid geometry, in both the f64
/// form (feeding the per-item φ₀ offset, still computed per item) and
/// the f32 narrowing the kernels consume directly.
#[derive(Debug)]
pub struct GeometryPlanes {
    /// `l(x)` per pixel (row-major), f64.
    pub l: Vec<f64>,
    /// `m(y)` per pixel, f64.
    pub m: Vec<f64>,
    /// `n(l,m)` per pixel, f64.
    pub n_term: Vec<f64>,
    /// `l` narrowed to f32 (exactly `f32::from_f64(l)`).
    pub lf: Vec<f32>,
    /// `m` narrowed to f32.
    pub mf: Vec<f32>,
    /// `n` narrowed to f32.
    pub nf: Vec<f32>,
}

impl GeometryPlanes {
    fn new(subgrid_size: usize, image_size: f64) -> Self {
        let n = subgrid_size;
        // Only `subgrid_size` and `image_size` feed pixel_to_lm/compute_n;
        // the grid fields are irrelevant here.
        let geom = KernelGeometry {
            subgrid_size: n,
            grid_size: 0,
            image_size,
            w_step: 0.0,
        };
        let n2 = n * n;
        let mut planes = GeometryPlanes {
            l: Vec::with_capacity(n2),
            m: Vec::with_capacity(n2),
            n_term: Vec::with_capacity(n2),
            lf: Vec::with_capacity(n2),
            mf: Vec::with_capacity(n2),
            nf: Vec::with_capacity(n2),
        };
        for y in 0..n {
            let m = geom.pixel_to_lm(y);
            for x in 0..n {
                let l = geom.pixel_to_lm(x);
                let n_term = KernelGeometry::compute_n(l, m);
                planes.l.push(l);
                planes.m.push(m);
                planes.n_term.push(n_term);
                planes.lf.push(f32::from_f64(l));
                planes.mf.push(f32::from_f64(m));
                planes.nf.push(f32::from_f64(n_term));
            }
        }
        planes
    }
}

/// Adder/splitter phasors and index maps for one subgrid size.
#[derive(Debug)]
pub struct PhasorTables {
    /// Per-axis half-pixel ramp, `corr[j] = e^{iπ(j−Ñ/2)(Ñ−1)/Ñ}`.
    pub corr: Vec<Cf32>,
    /// Adder factor table, `add[jy·Ñ+jx] = (corr[jy]·corr[jx])/Ñ²`.
    pub add: Vec<Cf32>,
    /// Splitter factor table, `split[jy·Ñ+jx] = corr[jy]*·corr[jx]*`.
    pub split: Vec<Cf32>,
    /// fftshift source index per axis: `shift[j]` is where destination
    /// index `j` reads from (same map for rows and columns).
    pub shift: Vec<usize>,
}

impl PhasorTables {
    fn new(subgrid_size: usize) -> Self {
        let n = subgrid_size;
        let corr = phase_correction(n);
        let scale = 1.0f32 / f32::from_usize(n * n);
        let mut add = Vec::with_capacity(n * n);
        let mut split = Vec::with_capacity(n * n);
        for jy in 0..n {
            let corr_y = corr[jy];
            let corr_y_conj = corr[jy].conj();
            for jx in 0..n {
                add.push((corr_y * corr[jx]).scale(scale));
                split.push(corr_y_conj * corr[jx].conj());
            }
        }
        let shift = (0..n).map(|j| fftshift_source(n, 0, j).1).collect();
        PhasorTables {
            corr,
            add,
            split,
            shift,
        }
    }
}

/// The kernel tables of one (subgrid size, image size): built once,
/// read by every kernel launch of the passes that share them.
///
/// Each kernel takes the tables through [`KernelTables::geometry`] or
/// [`KernelTables::phasors`], which hold them to the launch's own
/// geometry: tables built for another subgrid size or image size are a
/// typed error, never a silently different result. One set per `Proxy`
/// suffices — every launch of its passes, a streamed chunk's window
/// included, keeps the observation's subgrid size and image size.
#[derive(Debug)]
pub struct KernelTables {
    subgrid_size: usize,
    image_size: f64,
    geometry: GeometryPlanes,
    phasors: PhasorTables,
}

impl KernelTables {
    /// Build the tables of subgrids of `subgrid_size` pixels spanning
    /// `image_size` radians.
    pub fn new(subgrid_size: usize, image_size: f64) -> Self {
        Self {
            subgrid_size,
            image_size,
            geometry: GeometryPlanes::new(subgrid_size, image_size),
            phasors: PhasorTables::new(subgrid_size),
        }
    }

    /// The tables of `obs`'s subgrid geometry.
    pub fn for_observation(obs: &Observation) -> Self {
        Self::new(obs.subgrid_size, obs.image_size)
    }

    /// The direction-cosine planes, held to the launch's observation.
    ///
    /// # Errors
    /// [`IdgError::ShapeMismatch`] when the tables were built for
    /// another subgrid size, [`IdgError::InvalidParameter`] when for
    /// another image size (compared bit for bit).
    pub fn geometry(&self, obs: &Observation) -> Result<&GeometryPlanes, IdgError> {
        self.check_subgrid_size(obs.subgrid_size)?;
        if self.image_size.to_bits() != obs.image_size.to_bits() {
            return Err(IdgError::InvalidParameter(format!(
                "kernel tables built for image size {} rad, launch has {} rad",
                self.image_size, obs.image_size
            )));
        }
        Ok(&self.geometry)
    }

    /// The adder/splitter tables, held to the launch's subgrid size (the
    /// only geometry they depend on).
    ///
    /// # Errors
    /// [`IdgError::ShapeMismatch`] when the tables were built for
    /// another subgrid size.
    pub fn phasors(&self, subgrid_size: usize) -> Result<&PhasorTables, IdgError> {
        self.check_subgrid_size(subgrid_size)?;
        Ok(&self.phasors)
    }

    fn check_subgrid_size(&self, subgrid_size: usize) -> Result<(), IdgError> {
        if self.subgrid_size != subgrid_size {
            return Err(IdgError::ShapeMismatch {
                what: "kernel tables subgrid size",
                expected: subgrid_size,
                actual: self.subgrid_size,
            });
        }
        Ok(())
    }

    /// Always 0: nothing is looked up. Kept, with [`KernelTables::misses`],
    /// only because the repository benchmark reads both; ROADMAP item 1a's
    /// benchmark change deletes them.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Always 0: nothing is looked up (see [`KernelTables::hits`]).
    pub fn misses(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_planes_match_inline_formulas() {
        let n = 16usize;
        let image_size = 0.05f64;
        let planes = GeometryPlanes::new(n, image_size);
        let geom = KernelGeometry {
            subgrid_size: n,
            grid_size: 256,
            image_size,
            w_step: 0.0,
        };
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                let l = geom.pixel_to_lm(x);
                let m = geom.pixel_to_lm(y);
                let nt = KernelGeometry::compute_n(l, m);
                assert_eq!(planes.l[i].to_bits(), l.to_bits());
                assert_eq!(planes.m[i].to_bits(), m.to_bits());
                assert_eq!(planes.n_term[i].to_bits(), nt.to_bits());
                assert_eq!(planes.lf[i].to_bits(), f32::from_f64(l).to_bits());
                assert_eq!(planes.nf[i].to_bits(), f32::from_f64(nt).to_bits());
            }
        }
    }

    #[test]
    fn phasor_tables_match_inline_formulas() {
        let n = 12usize;
        let t = PhasorTables::new(n);
        let corr = phase_correction(n);
        let scale = 1.0f32 / (n * n) as f32;
        for jy in 0..n {
            for jx in 0..n {
                let add = (corr[jy] * corr[jx]).scale(scale);
                let split = corr[jy].conj() * corr[jx].conj();
                assert_eq!(t.add[jy * n + jx], add);
                assert_eq!(t.split[jy * n + jx], split);
            }
        }
        for j in 0..n {
            assert_eq!(t.shift[j], fftshift_source(n, 0, j).1);
            // the per-axis map is identical for rows and columns
            assert_eq!(t.shift[j], fftshift_source(n, j, 0).0);
        }
    }
}
