//! # idg-kernels — the IDG compute kernels
//!
//! Implementations of the paper's Algorithms 1 and 2 plus the surrounding
//! data movement:
//!
//! * [`mod@reference`] — scalar double-precision gridder/degridder, the gold
//!   standard every optimized path is validated against;
//! * [`gridder`] — the one optimized gridder body, a warp of pixels in
//!   lockstep (Sec. V-C b), shared by [`cpu`] and the device model;
//! * [`cpu`] — the optimized CPU kernels of Sec. V-B: single precision,
//!   the shared gridder at an L1-sized batch, a pixel-vectorized
//!   degridder (SoA staging, batched sincos via `idg-math` — the
//!   SVML/VML analogue — and Listing 1's reduction), thread-level
//!   parallelism over work items with rayon (the OpenMP analogue);
//! * [`adder`] — the adder (parallel over grid rows, Sec. V-B d) and the
//!   splitter (parallel over subgrids), including the half-pixel phase
//!   correction that accompanies the `x + 0.5` pixel-center convention;
//! * [`fft`] — batched subgrid FFTs;
//! * [`buffers`] — the contiguous subgrid array shared by all stages;
//! * [`cache`] — the pass-level [`KernelCache`] of item-independent
//!   geometry planes and adder/splitter phasor tables, shared across
//!   passes by the proxy.
//!
//! ## Geometry conventions (shared by every kernel in the workspace)
//!
//! * Image coordinates of subgrid pixel `x`:
//!   `l(x) = (x + 0.5 − Ñ/2)·image_size/Ñ` (and `m(y)` likewise);
//!   `n = (l²+m²)/(1+√(1−l²−m²))`.
//! * Gridding phase: `φ = 2π[(u−u₀)l + (v−v₀)m + (w−w₀)n]` with
//!   `(u,v,w)` in wavelengths, `u₀,v₀` the subgrid-center uv-coordinate
//!   and `w₀` the W-plane offset; degridding uses `−φ`. This is the
//!   conjugate of the measurement equation (Eq. 1), so gridding is the
//!   adjoint of prediction.
//! * The gridder applies the *adjoint* A-term sandwich `A_pᴴ · S · A_q`;
//!   the degridder applies the *forward* sandwich `A_p · S · A_qᴴ`.
//! * Subgrids hold image-domain pixels (DC at the center); the subgrid
//!   FFT runs unshifted and the adder/splitter fold the fftshift and the
//!   half-pixel phase ramp into their index/phase arithmetic.

#![deny(missing_docs)]
// Lint L2, numeric core: no silently narrowing `as` (f64 → f32, u64 →
// u32, …) in library code; narrow through `Float::from_f64`/`cast`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernels

pub mod adder;
pub mod buffers;
pub mod cache;
pub mod cpu;
pub mod fft;
pub mod geometry;
pub mod gridder;
pub mod reference;

pub use adder::{add_subgrids, split_subgrids};
pub use buffers::SubgridArray;
pub use cache::{GeometryKey, KernelCache, PhasorKey};
pub use cpu::{degridder_cpu, gridder_cpu};
pub use fft::{fft_subgrids, FftNorm};
pub use geometry::KernelGeometry;
pub use reference::{degridder_reference, gridder_reference};

use idg_telescope::ATerms;
use idg_types::{Observation, Uvw, Visibility};

/// Bytes of one 4-polarization complex-f32 quantity (visibility sample
/// or subgrid pixel) in the kernels' measured op tallies: 4 × 2 × 4 bytes.
pub const BYTES_POL4: u64 = 32;
/// Bytes of one staged uvw coordinate (3 × f32).
pub const BYTES_UVW: u64 = 12;

/// Borrowed inputs shared by the gridder and degridder kernels.
///
/// `uvw` and `visibilities` are full-observation buffers in
/// `[baseline][timestep]` / `[baseline][timestep][channel]` layout; work
/// items index into them.
pub struct KernelData<'a> {
    /// Observation parameters.
    pub obs: &'a Observation,
    /// uvw coordinates (meters).
    pub uvw: &'a [Uvw],
    /// Visibilities (input for gridding, output target for degridding).
    pub visibilities: &'a [Visibility<f32>],
    /// Sampled A-terms.
    pub aterms: &'a ATerms,
    /// Image-domain taper, `subgrid_size²` row-major values.
    pub taper: &'a [f32],
}

impl<'a> KernelData<'a> {
    /// Validate buffer shapes against the observation.
    pub fn validate(&self) -> Result<(), idg_types::IdgError> {
        let expect_uvw = self.obs.nr_baselines() * self.obs.nr_timesteps;
        if self.uvw.len() != expect_uvw {
            return Err(idg_types::IdgError::ShapeMismatch {
                what: "uvw",
                expected: expect_uvw,
                actual: self.uvw.len(),
            });
        }
        let expect_vis = self.obs.nr_visibilities();
        if self.visibilities.len() != expect_vis {
            return Err(idg_types::IdgError::ShapeMismatch {
                what: "visibilities",
                expected: expect_vis,
                actual: self.visibilities.len(),
            });
        }
        let n2 = self.obs.subgrid_size * self.obs.subgrid_size;
        if self.taper.len() != n2 {
            return Err(idg_types::IdgError::ShapeMismatch {
                what: "taper",
                expected: n2,
                actual: self.taper.len(),
            });
        }
        if self.aterms.subgrid_size() != self.obs.subgrid_size {
            return Err(idg_types::IdgError::ShapeMismatch {
                what: "aterms subgrid size",
                expected: self.obs.subgrid_size,
                actual: self.aterms.subgrid_size(),
            });
        }
        Ok(())
    }
}

/// The launch check of every gridder/degridder entry point, host and
/// device model alike: inputs consistent with the observation, one
/// observation-sized subgrid per work item, and every item *of* this
/// observation — [`WorkItem`](idg_plan::WorkItem)'s fields are public,
/// so a plan made for another observation (or edited by hand) reaches
/// the kernels from safe code. An item whose baseline, time range,
/// channel range, A-term slot or stations fall outside the observation
/// or the A-term cube, or two items that cover the same visibility, are
/// an [`IdgError::InvalidParameter`](idg_types::IdgError) naming the
/// item and the field. The kernels slice per item on the strength of
/// this check instead of bounds-checking per element.
///
/// `subgrids` is the launch's subgrid array; a device pass, which
/// allocates its subgrids job by job, checks its whole plan up front
/// with `None`.
pub fn check_launch(
    data: &KernelData<'_>,
    items: &[idg_plan::WorkItem],
    subgrids: Option<&SubgridArray>,
) -> Result<(), idg_types::IdgError> {
    checked_rows(data, items, subgrids).map(drop)
}

/// [`check_launch`], handing back what its overlap test sorted: the
/// `(first visibility index, item index)` of every (item, timestep)
/// row, in buffer order and pairwise disjoint. The optimized degridder
/// carves its output buffer along them.
pub(crate) fn checked_rows(
    data: &KernelData<'_>,
    items: &[idg_plan::WorkItem],
    subgrids: Option<&SubgridArray>,
) -> Result<Vec<(usize, usize)>, idg_types::IdgError> {
    use idg_types::IdgError;

    data.validate()?;
    if let Some(subgrids) = subgrids {
        if subgrids.count() != items.len() {
            return Err(IdgError::ShapeMismatch {
                what: "subgrid count",
                expected: items.len(),
                actual: subgrids.count(),
            });
        }
        if subgrids.size() != data.obs.subgrid_size {
            return Err(IdgError::ShapeMismatch {
                what: "subgrid size",
                expected: data.obs.subgrid_size,
                actual: subgrids.size(),
            });
        }
    }

    let (nr_time, nr_chan) = (data.obs.nr_timesteps, data.obs.nr_channels());
    let nr_baselines = data.obs.nr_baselines();
    let (nr_slots, nr_stations) = (data.aterms.nr_intervals(), data.aterms.nr_stations());
    let mut rows = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        // (field, first, count, limit): `first + count` must not pass
        // `limit`; an index is a range of one
        let (t, c, b) = (item.nr_timesteps, item.nr_channels, item.baseline);
        let ranges = [
            ("baseline_index", item.baseline_index, 1, nr_baselines),
            ("time_offset + nr_timesteps", item.time_offset, t, nr_time),
            (
                "channel_offset + nr_channels",
                item.channel_offset,
                c,
                nr_chan,
            ),
            ("aterm_index", item.aterm_index, 1, nr_slots),
            ("baseline.station1", b.station1, 1, nr_stations),
            ("baseline.station2", b.station2, 1, nr_stations),
        ];
        for (field, first, count, limit) in ranges {
            if first.checked_add(count).is_none_or(|end| end > limit) {
                return Err(IdgError::InvalidParameter(format!(
                    "work item {idx}: {field} out of range ({first} + {count} > {limit}); \
                     was the plan made for this observation?"
                )));
            }
        }
        if item.nr_channels == 0 {
            return Err(IdgError::InvalidParameter(format!(
                "work item {idx}: nr_channels must be at least 1"
            )));
        }
        let base = item.baseline_index * nr_time + item.time_offset;
        rows.extend(
            (0..item.nr_timesteps).map(|dt| ((base + dt) * nr_chan + item.channel_offset, idx)),
        );
    }

    // Rows are channel runs inside one (baseline, timestep), so two
    // overlap iff their index ranges do, and after sorting some
    // overlapping pair is adjacent.
    rows.sort_unstable();
    if let Some(w) = rows
        .windows(2)
        .find(|w| w[0].0 + items[w[0].1].nr_channels > w[1].0)
    {
        return Err(IdgError::InvalidParameter(format!(
            "work items {} and {} both cover visibility {}",
            w[0].1, w[1].1, w[1].0
        )));
    }
    Ok(rows)
}
