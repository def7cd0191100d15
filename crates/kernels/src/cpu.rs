//! Optimized CPU gridder and degridder (Sec. V-B of the paper).
//!
//! **Lanes are pixels** in both kernels, and work items are distributed
//! over cores with rayon (the OpenMP `parallel for` analogue):
//!
//! * **gridder** — [`gridder_cpu`] is the workspace's one gridder body,
//!   [`pixel_lane_gridder`], at the host's batch length: every pixel folds
//!   the staged visibilities into its own register accumulators, sixteen
//!   pixels in lockstep, its epilogue (A-term sandwich, taper) sixteen
//!   pixels at a time too. Threads own disjoint subgrids.
//! * **degridder** — per visibility, the `Ñ²` pixels of the subgrid are
//!   the elements of loops that each vectorise: the phasors of all
//!   pixels, then `reduce_4pol`: Listing 1's sweep, 16 FMAs per element
//!   across 8 accumulators (re/im × 4 polarisations), every sin/cos load
//!   shared by all four polarisations. Slices are zipped and cut once per
//!   item (`check_launch` validated the ranges), so no per-element bounds
//!   check. A phasor plane is either evaluated — the phases, then one
//!   `sincos_batch` call (`idg-math`'s SVML/VML analogue) — or *rotated*:
//!   the phase `−(ν/c)·2π·index + φ₀` is affine in frequency, so across
//!   evenly spaced channels (checked once per launch, relative tolerance
//!   1e-9) channel `k + 1`'s phasor is channel `k`'s times
//!   `e^{−iδ·index}`, one complex multiply per pixel. Per (item,
//!   timestep) an item of three or more such channels evaluates its first
//!   channel and the rotation, rotates the rest in place and re-anchors
//!   with a direct evaluation every `REANCHOR` (32) channels: two sincos
//!   per pixel and timestep, plus one per re-anchor, instead of one per
//!   channel. Fewer channels, or channels off the even grid, evaluate
//!   every channel, bit for bit the loop before the rotation. The
//!   corrected pixels (forward A-term sandwich, taper) and their phase
//!   offsets are staged once per item in structure-of-arrays form, real
//!   and imaginary parts separated (the paper's "load and transpose …
//!   into memory-aligned arrays"), sixteen pixels at a time through
//!   [`PixelStage`] — the helper the gridder's epilogue and the device
//!   degridder's pixel role share — bit for bit the per-pixel loop it
//!   replaced. The reduction's summation
//!   order is a contract — it and [`LANES`] decide the output's bits (see
//!   `reduce_4pol`; the tests pin output hashes, and on the per-channel
//!   shapes those predate the fused loops and the rotation). Threads own
//!   disjoint rows of the output buffer, carved before the parallel
//!   section.

use crate::buffers::SubgridArray;
use crate::geometry::KernelGeometry;
use crate::gridder::{pixel_lane_gridder, PixelStage, LANES};
use crate::tables::KernelTables;
use crate::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_math::{sincos_batch, Accuracy};
use idg_obs::{KernelCounters, KernelStage};
use idg_plan::WorkItem;
use idg_types::{Cf32, Float, IdgError, Visibility};
use rayon::prelude::*;

/// Per-worker degridder scratch buffers, reused across work items.
struct Scratch {
    /// Phases, then sin/cos planes, each `Ñ²` long.
    phases: Vec<f32>,
    /// Per-channel phase staging.
    chan_phases: Vec<f32>,
    sin: Vec<f32>,
    cos: Vec<f32>,
    /// The per-channel rotation `e^{−iδ·index}` of the current timestep.
    rot_sin: Vec<f32>,
    rot_cos: Vec<f32>,
    /// SoA staging: 4 pols × re/im.
    re: [Vec<f32>; 4],
    im: [Vec<f32>; 4],
    /// Per-item phase offsets φ₀ (the only geometry plane that varies
    /// per item — l/m/n come shared from the [`KernelTables`]).
    d: Vec<f32>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            phases: Vec::new(),
            chan_phases: Vec::new(),
            sin: Vec::new(),
            cos: Vec::new(),
            rot_sin: Vec::new(),
            rot_cos: Vec::new(),
            re: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            im: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            d: Vec::new(),
        }
    }

    fn resize(&mut self, len: usize) {
        self.phases.resize(len, 0.0);
        self.chan_phases.resize(len, 0.0);
        self.sin.resize(len, 0.0);
        self.cos.resize(len, 0.0);
        self.rot_sin.resize(len, 0.0);
        self.rot_cos.resize(len, 0.0);
        for p in 0..4 {
            self.re[p].resize(len, 0.0);
            self.im[p].resize(len, 0.0);
        }
        self.d.resize(len, 0.0);
    }
}

/// Visibilities the gridder stages per round — the `T_B × C_B` platform
/// parameter of Sec. V-B: large enough to amortize the per-batch
/// register load and store of every warp, small enough that the staged
/// batch (48 bytes per visibility) stays L1-resident while every pixel
/// consumes it. Not part of the bits (see [`crate::gridder`]).
const VIS_BATCH: usize = 512;

/// Channels between direct sincos anchors when the degridder rotates
/// phasors across channels: channel `k` of an item is anchored when
/// `k % REANCHOR == 0`, every other channel is its predecessor times the
/// item's per-pixel rotation. Chosen from the drift table of
/// EXPERIMENTS.md ("The host degridder rotates phasors"): above it the
/// error of a 1024-channel item grows with the run of rotations, below
/// it the extra anchors cost sincos without buying accuracy.
const REANCHOR: usize = 32;

/// Relative tolerance of the launch's even-spacing check: channel `c` is
/// on the grid when `|ν_c − (ν_0 + c·Δν)| ≤ SPACING_TOLERANCE·ν_c`, with
/// `Δν` the mean step. At 1e-9 the phase the rotation assumes differs
/// from the channel's own by under 1e-9 of the phase — below f32 rounding.
const SPACING_TOLERANCE: f64 = 1e-9;

/// `δ`, the phase-scale step between adjacent channels, when the
/// observation's channels are evenly spaced (within
/// [`SPACING_TOLERANCE`]); `None` otherwise.
fn channel_step(frequencies: &[f64]) -> Option<f32> {
    let (&first, &last) = (frequencies.first()?, frequencies.last()?);
    let step = (last - first) / (frequencies.len().max(2) - 1) as f64;
    let on_grid = |(c, f): (usize, &f64)| {
        (f - (first + c as f64 * step)).abs() <= SPACING_TOLERANCE * f.abs()
    };
    frequencies
        .iter()
        .enumerate()
        .all(on_grid)
        .then(|| f32::from_f64(KernelGeometry::phase_scale(step)))
}

/// The reduction of Listing 1 over one staged batch: for each of the
/// four polarisations, `Σₖ (re[p][k] + i·im[p][k]) · (cos[k] + i·sin[k])`
/// over `k < sin.len()` — 16 FMAs per element across 8 accumulators.
/// `cos` and the eight planes must be at least as long as `sin`.
///
/// Strict-FP reductions cannot be auto-vectorized (the compiler may not
/// reassociate float adds), so each accumulator is split into [`LANES`]
/// independent partial sums — one SIMD lane each, the effect of
/// Listing 1's `#pragma omp simd reduction`. All four polarisations
/// share one sweep, so a sin/cos chunk is loaded once for its 16 FMAs
/// and eight independent dependency chains hide the FMA latency.
///
/// **Summation order (part of the output's bits).** Per polarisation,
/// lane `l` accumulates the elements `k ≡ l (mod LANES)` of the full
/// chunks in increasing `k`, each as `vr·c`, then `−vi·s` (real) and
/// `vr·s`, then `vi·c` (imaginary); the lanes fold `0 → 15`; the
/// `len % LANES` tail elements follow in increasing `k` — which makes
/// [`LANES`] part of the contract too. A batch shorter than one chunk
/// never touches the lane arrays: their fold would contribute `+0.0`,
/// which is what the tail starts from.
#[inline]
fn reduce_4pol(sin: &[f32], cos: &[f32], re: [&[f32]; 4], im: [&[f32]; 4]) -> [(f32, f32); 4] {
    /// `pixel += vis · (cos + i·sin)` on one accumulator pair.
    #[inline(always)]
    fn cmac(ar: &mut f32, ai: &mut f32, vr: f32, vi: f32, s: f32, c: f32) {
        *ar = vr.mul_add(c, *ar);
        *ar = (-vi).mul_add(s, *ar);
        *ai = vr.mul_add(s, *ai);
        *ai = vi.mul_add(c, *ai);
    }

    /// `plane[..len]` as (full chunks, tail), cut to lengths the caller
    /// shares between planes so its loops index without bounds checks.
    #[inline(always)]
    fn cut(plane: &[f32], len: usize) -> (&[[f32; LANES]], &[f32]) {
        let (chunks, tail) = plane[..len].as_chunks::<LANES>();
        (&chunks[..len / LANES], &tail[..len % LANES])
    }

    let len = sin.len();
    let (nch, ntail) = (len / LANES, len % LANES);
    let ((s, s_tail), (c, c_tail)) = (cut(sin, len), cut(cos, len));
    // (spelled out: `re.map(..)` leaves an out-of-line `array::try_map`
    // call behind whose returned lengths the optimizer cannot see)
    let ((r0, r0_tail), (i0, i0_tail)) = (cut(re[0], len), cut(im[0], len));
    let ((r1, r1_tail), (i1, i1_tail)) = (cut(re[1], len), cut(im[1], len));
    let ((r2, r2_tail), (i2, i2_tail)) = (cut(re[2], len), cut(im[2], len));
    let ((r3, r3_tail), (i3, i3_tail)) = (cut(re[3], len), cut(im[3], len));

    let mut acc = [(0.0f32, 0.0f32); 4];
    if nch > 0 {
        // Eight named arrays (not `[[f32; LANES]; 8]`: an indexed 2-D
        // accumulator round-trips through the stack, EXPERIMENTS.md).
        let (mut a0r, mut a0i) = ([0.0f32; LANES], [0.0f32; LANES]);
        let (mut a1r, mut a1i) = ([0.0f32; LANES], [0.0f32; LANES]);
        let (mut a2r, mut a2i) = ([0.0f32; LANES], [0.0f32; LANES]);
        let (mut a3r, mut a3i) = ([0.0f32; LANES], [0.0f32; LANES]);
        for k in 0..nch {
            for l in 0..LANES {
                let (sl, cl) = (s[k][l], c[k][l]);
                cmac(&mut a0r[l], &mut a0i[l], r0[k][l], i0[k][l], sl, cl);
                cmac(&mut a1r[l], &mut a1i[l], r1[k][l], i1[k][l], sl, cl);
                cmac(&mut a2r[l], &mut a2i[l], r2[k][l], i2[k][l], sl, cl);
                cmac(&mut a3r[l], &mut a3i[l], r3[k][l], i3[k][l], sl, cl);
            }
        }
        acc = [
            (a0r.iter().sum(), a0i.iter().sum()),
            (a1r.iter().sum(), a1i.iter().sum()),
            (a2r.iter().sum(), a2i.iter().sum()),
            (a3r.iter().sum(), a3i.iter().sum()),
        ];
    }
    let [(mut a0r, mut a0i), (mut a1r, mut a1i), (mut a2r, mut a2i), (mut a3r, mut a3i)] = acc;
    for k in 0..ntail {
        let (sk, ck) = (s_tail[k], c_tail[k]);
        cmac(&mut a0r, &mut a0i, r0_tail[k], i0_tail[k], sk, ck);
        cmac(&mut a1r, &mut a1i, r1_tail[k], i1_tail[k], sk, ck);
        cmac(&mut a2r, &mut a2i, r2_tail[k], i2_tail[k], sk, ck);
        cmac(&mut a3r, &mut a3i, r3_tail[k], i3_tail[k], sk, ck);
    }
    [(a0r, a0i), (a1r, a1i), (a2r, a2i), (a3r, a3i)]
}

/// Lines 2–3 of Algorithm 2 for one item: its `n2` pixels of `subgrid`
/// under the forward A-term sandwich and the taper, staged SoA in
/// `scr.re`/`scr.im`, and their phase offsets φ₀ in `scr.d` — a warp of
/// [`LANES`] pixels at a time through [`PixelStage`].
fn stage_item(stage: &PixelStage<'_>, subgrid: &[Cf32], scr: &mut Scratch, n2: usize) {
    stage.offsets(0, &mut scr.d[..n2]);
    for i0 in (0..n2).step_by(LANES) {
        let live = LANES.min(n2 - i0);
        let px = stage.forward(i0, subgrid);
        let planes = scr.re.iter_mut().zip(&mut scr.im);
        for ((re, im), [pre, pim]) in planes.zip(px.as_chunks::<2>().0) {
            re[i0..i0 + live].copy_from_slice(&pre[..live]);
            im[i0..i0 + live].copy_from_slice(&pim[..live]);
        }
    }
}

/// Optimized gridder: [`pixel_lane_gridder`] staging `VIS_BATCH`
/// visibilities at a time, at the caller's sincos accuracy; numerically
/// validated against [`crate::gridder_reference`].
pub fn gridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    accuracy: Accuracy,
    tables: &KernelTables,
) -> Result<(), IdgError> {
    let tally = pixel_lane_gridder(data, items, subgrids, VIS_BATCH, accuracy, tables)?;
    idg_obs::add_kernel(KernelStage::Gridder, &tally);
    Ok(())
}

/// Optimized degridder: Algorithm 2 over all work items.
///
/// Parallel over work items; `vis_out` is pre-partitioned into disjoint
/// per-timestep rows (the plan never assigns one visibility to two
/// items), so each worker predicts straight into its own slices — no
/// per-item staging allocation, no sequential scatter afterwards.
///
/// When the observation's channels are evenly spaced and an item has at
/// least three, the phasors of its later channels are rotated from the
/// first one instead of evaluated (see the module docs): two
/// `sincos_batch` calls per (item, timestep), plus one per re-anchor.
pub fn degridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    accuracy: Accuracy,
    tables: &KernelTables,
) -> Result<(), IdgError> {
    degrid(data, items, subgrids, vis_out, accuracy, tables, REANCHOR)
}

/// [`degridder_cpu`] anchoring every `reanchor`-th channel of a rotated
/// item (the tests measure drift at other intervals).
fn degrid(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    accuracy: Accuracy,
    tables: &KernelTables,
    reanchor: usize,
) -> Result<(), IdgError> {
    let row_order = crate::checked_rows(data, items, Some(subgrids))?;
    if vis_out.len() != data.obs.nr_visibilities() {
        return Err(IdgError::ShapeMismatch {
            what: "visibility output buffer",
            expected: data.obs.nr_visibilities(),
            actual: vis_out.len(),
        });
    }

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let n2 = n * n;
    let nr_time = data.obs.nr_timesteps;
    let planes = tables.geometry(data.obs)?;
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();
    let step = channel_step(&data.obs.frequencies);

    // Carve vis_out into one mutable row slice per (item, timestep),
    // bundled per item: `row_order` is sorted by destination offset and
    // checked disjoint, so the buffer splits left-to-right with
    // `split_at_mut` and `dst - cursor` cannot underflow.
    let mut bundles: Vec<Vec<&mut [Visibility<f32>]>> = items
        .iter()
        .map(|item| Vec::with_capacity(item.nr_timesteps))
        .collect();
    let mut rest = vis_out;
    let mut cursor = 0usize;
    for (dst, idx) in row_order {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(dst - cursor);
        let (row, tail) = tail.split_at_mut(items[idx].nr_channels);
        bundles[idx].push(row);
        rest = tail;
        cursor = dst + items[idx].nr_channels;
    }

    let mut tallies = vec![KernelCounters::default(); items.len()];
    items
        .par_iter()
        .enumerate()
        .zip(bundles.into_par_iter())
        .zip(tallies.par_iter_mut())
        .for_each_init(Scratch::new, |scr, (((s_idx, item), mut rows), slot)| {
            scr.resize(n2);
            // Measured op tally (see gridder_cpu): the staging pass
            // reads the subgrid and both A-term planes once.
            let mut tally = KernelCounters {
                invocations: 1,
                dram_bytes: 3 * n2 as u64 * BYTES_POL4,
                ..KernelCounters::default()
            };
            let stage = PixelStage::new(data, planes, &geom, item);
            stage_item(&stage, subgrids.subgrid(s_idx), scr, n2);

            let base = item.baseline_index * nr_time + item.time_offset;
            let uvw = &data.uvw[base..base + item.nr_timesteps];
            let item_scales = &scales[item.channel_offset..][..item.nr_channels];
            let pixel_re: [&[f32]; 4] = std::array::from_fn(|p| &scr.re[p][..n2]);
            let pixel_im: [&[f32]; 4] = std::array::from_fn(|p| &scr.im[p][..n2]);
            // fewer than three channels save no sincos by rotating
            let rotation = step.filter(|_| item.nr_channels >= 3);

            for (uvw_m, out_row) in uvw.iter().zip(rows.iter_mut()) {
                tally.dram_bytes += BYTES_UVW;
                // per-pixel meter-valued phase index (3 FMAs each)
                for ((ph, lf), (mf, nf)) in scr.phases[..n2]
                    .iter_mut()
                    .zip(&planes.lf[..n2])
                    .zip(planes.mf[..n2].iter().zip(&planes.nf[..n2]))
                {
                    *ph = uvw_m.u.mul_add(*lf, uvw_m.v.mul_add(*mf, uvw_m.w * nf));
                }
                if let Some(step) = rotation {
                    // the phasor one channel on is this one times
                    // e^{−iδ·index}
                    for (cp, ph) in scr.chan_phases[..n2].iter_mut().zip(&scr.phases[..n2]) {
                        *cp = -step * ph;
                    }
                    let (rs, rc) = (&mut scr.rot_sin, &mut scr.rot_cos);
                    sincos_batch(&scr.chan_phases[..n2], rs, rc, accuracy);
                    tally.sincos_pairs += n2 as u64;
                    tally.fmas += n2 as u64; // rotation phase per pixel
                }
                for (c, (scale, out)) in item_scales.iter().zip(out_row.iter_mut()).enumerate() {
                    if rotation.is_some() && !c.is_multiple_of(reanchor) {
                        for ((s, co), (rs, rc)) in scr.sin[..n2]
                            .iter_mut()
                            .zip(&mut scr.cos[..n2])
                            .zip(scr.rot_sin[..n2].iter().zip(&scr.rot_cos[..n2]))
                        {
                            let (s0, c0) = (*s, *co);
                            *co = c0.mul_add(*rc, -(s0 * rs));
                            *s = s0.mul_add(*rc, c0 * rs);
                        }
                        // a complex multiply: 4 real multiplies, 2 fused
                        tally.fmas += 4 * n2 as u64;
                    } else {
                        // degridding phase = −(scale·index − offset)
                        for ((cp, ph), offset) in scr.chan_phases[..n2]
                            .iter_mut()
                            .zip(&scr.phases[..n2])
                            .zip(&scr.d[..n2])
                        {
                            *cp = (-scale).mul_add(*ph, *offset);
                        }
                        sincos_batch(&scr.chan_phases[..n2], &mut scr.sin, &mut scr.cos, accuracy);
                        tally.sincos_pairs += n2 as u64;
                        tally.fmas += n2 as u64; // phase mul_add per pixel
                    }
                    let acc = reduce_4pol(&scr.sin[..n2], &scr.cos, pixel_re, pixel_im);
                    // 4 pols × 4 mul_adds, then staged pixel + geometry +
                    // accumulator traffic
                    tally.fmas += 16 * n2 as u64;
                    tally.shared_bytes += n2 as u64 * (BYTES_POL4 + 16 + BYTES_UVW);
                    tally.visibilities += 1;
                    tally.dram_bytes += BYTES_POL4; // predicted vis written once
                    *out = Visibility {
                        pols: acc.map(|(re, im)| idg_types::Cf32::new(re, im)),
                    };
                }
            }
            *slot = tally;
        });
    idg_obs::add_kernel(KernelStage::Degridder, &tallies.iter().sum());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{degridder_reference, gridder_reference};
    use idg_plan::Plan;
    use idg_telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset(aterm_kind: u8) -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(24)
            .channels(5, 150e6, 2e6) // odd channel count: exercises remainders
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 17);
        let sky = SkyModel::random(&obs, 5, 0.6, 23);
        match aterm_kind {
            0 => Dataset::simulate(obs, &layout, sky, &IdentityATerm),
            _ => {
                let beam = GaussianBeam::new(&obs, 0.8, 31);
                Dataset::simulate(obs, &layout, sky, &beam)
            }
        }
    }

    fn taper(n: usize) -> Vec<f32> {
        idg_math::spheroidal_2d(n)
    }

    fn assert_subgrids_close(a: &SubgridArray, b: &SubgridArray, tol: f32) {
        let scale = b.as_slice().iter().map(|c| c.abs()).fold(1.0f32, f32::max);
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                (*x - *y).abs() / scale < tol,
                "pixel {i}: {x} vs {y} (scale {scale})"
            );
        }
    }

    #[test]
    fn gridder_matches_reference_identity_aterms() {
        let ds = dataset(0);
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut fast, Accuracy::Medium, &tables).expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn gridder_matches_reference_beam_aterms() {
        let ds = dataset(1);
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut fast, Accuracy::Medium, &tables).expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn degridder_matches_reference() {
        let ds = dataset(1);
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        // grid something non-trivial first, then degrid it both ways
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");

        let mut fast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let mut gold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(
            &data,
            &plan.items,
            &subgrids,
            &mut fast,
            Accuracy::Medium,
            &tables,
        )
        .expect("kernel run");
        degridder_reference(&data, &plan.items, &subgrids, &mut gold).expect("kernel run");

        let scale = gold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1.0f32, f32::max);
        for (i, (a, b)) in fast.iter().zip(&gold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 3e-4,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    #[test]
    fn fast_accuracy_stays_close_to_medium() {
        let ds = dataset(0);
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut med = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut med, Accuracy::Medium, &tables).expect("kernel run");
        gridder_cpu(&data, &plan.items, &mut fast, Accuracy::Fast, &tables).expect("kernel run");
        assert_subgrids_close(&fast, &med, 1e-3);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let ds = dataset(0);
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut a = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut b = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut a, Accuracy::Medium, &tables).expect("kernel run");
        gridder_cpu(&data, &plan.items, &mut b, Accuracy::Medium, &tables).expect("kernel run");
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "per-item accumulation order is fixed"
        );
    }

    /// Both tail-handling regimes of the optimized kernels against the
    /// reference on the same plan.
    fn assert_tail_conformance(ds: &Dataset) {
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut fast, Accuracy::Medium, &tables).expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);

        let mut vfast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let mut vgold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(
            &data,
            &plan.items,
            &gold,
            &mut vfast,
            Accuracy::Medium,
            &tables,
        )
        .expect("kernel run");
        degridder_reference(&data, &plan.items, &gold, &mut vgold).expect("kernel run");
        let scale = vgold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1.0f32, f32::max);
        for (i, (a, b)) in vfast.iter().zip(&vgold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 3e-4,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    /// 5 timesteps × 3 channels = 15 visibilities per work item: one
    /// partial gridder batch, far below VIS_BATCH.
    fn sub_lane_dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(3)
            .timesteps(5)
            .channels(3, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(5)
            .image_size(0.04)
            .build()
            .unwrap();
        assert!(obs.aterm_interval * obs.nr_channels() < VIS_BATCH);
        let layout = Layout::uniform(3, 700.0, 53);
        let sky = SkyModel::random(&obs, 3, 0.5, 59);
        let beam = GaussianBeam::new(&obs, 0.8, 61);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    /// 120 timesteps × 5 channels = 600 visibilities per work item:
    /// the gridder stages one full VIS_BATCH, cut mid-timestep (512 =
    /// 102 × 5 + 2), plus an 88-visibility remainder.
    fn straddling_dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(3)
            .timesteps(120)
            .channels(5, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(20)
            .kernel_size(7)
            .aterm_interval(120)
            .image_size(0.05)
            .build()
            .unwrap();
        let vis_per_item = obs.aterm_interval * obs.nr_channels();
        assert!(vis_per_item > VIS_BATCH && !vis_per_item.is_multiple_of(VIS_BATCH));
        let layout = Layout::uniform(3, 900.0, 67);
        let sky = SkyModel::random(&obs, 4, 0.6, 71);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    /// 1 channel × 8 timesteps = 8 visibilities per work item (the
    /// `sparse_snapshot` shape): every gridder batch is shorter than a
    /// warp is wide.
    fn eight_visibility_dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(1, 150e6, 1e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 900.0, 83);
        let sky = SkyModel::random(&obs, 3, 0.6, 89);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    /// `channels` channels 2 MHz apart from 150 MHz, 4 stations, 16
    /// timesteps in two A-term intervals, a Gaussian beam; `nudge` Hz
    /// added to channel 3 (when there is one) takes the channels off
    /// the even grid.
    fn channel_dataset(channels: usize, nudge: f64) -> Dataset {
        let mut obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(channels, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        if let Some(f) = obs.frequencies.get_mut(3) {
            *f += nudge;
        }
        let layout = Layout::uniform(4, 900.0, 97);
        let sky = SkyModel::random(&obs, 3, 0.6, 101);
        let beam = GaussianBeam::new(&obs, 0.8, 103);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    /// One baseline parked at u = v = 256 m with w = 1 µm on a w-step
    /// that puts it in w-plane 1, its visibilities purely real. On the
    /// subgrid's anti-diagonal (l = −m) u₀·l and v₀·m cancel exactly and
    /// the f32 phase index is exactly 0 (256·m is exact), so the phase
    /// is −φ₀ itself; and w₀·n there lies far below the rounding of
    /// v₀·m, so φ₀'s f64 evaluation order decides its bits — and with
    /// them the imaginary part of every such pixel.
    fn cancelling_offset_dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(2)
            .timesteps(4)
            .channels(1, 150e6, 1e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(4)
            .image_size(0.05)
            .w_step(5e-7)
            .build()
            .unwrap();
        let layout = Layout::uniform(2, 10.0, 127);
        let sky = SkyModel::random(&obs, 1, 0.6, 131);
        let mut ds = Dataset::simulate(obs, &layout, sky, &IdentityATerm);
        ds.uvw.fill(idg_types::Uvw {
            u: 256.0,
            v: 256.0,
            w: 1e-6,
        });
        for v in &mut ds.visibilities {
            v.pols = [Cf32::new(1.0, 0.0); 4];
        }
        ds
    }

    fn vis_bits(vis: &[Visibility<f32>]) -> Vec<u32> {
        let samples = vis.iter().flat_map(|v| v.pols);
        samples
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    #[test]
    fn degridders_read_no_visibilities() {
        // a degrid launch carries an empty visibility slice: both host
        // degridders predict the same bits as with a full zero buffer
        let ds = dataset(1);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let full = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&full, &plan.items, &mut subgrids).expect("kernel run");
        let zeros = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let launch = |visibilities: &[Visibility<f32>]| {
            let data = KernelData {
                visibilities,
                ..full
            };
            let mut fast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
            let mut gold = fast.clone();
            let tables = KernelTables::for_observation(&ds.obs);
            degridder_cpu(
                &data,
                &plan.items,
                &subgrids,
                &mut fast,
                Accuracy::Medium,
                &tables,
            )
            .expect("kernel run");
            degridder_reference(&data, &plan.items, &subgrids, &mut gold).expect("kernel run");
            [vis_bits(&fast), vis_bits(&gold)]
        };
        let ([fast, gold], [fast_zeros, gold_zeros]) = (launch(&[]), launch(&zeros));
        assert!(fast == fast_zeros, "degridder_cpu");
        assert!(gold == gold_zeros, "degridder_reference");
    }

    #[test]
    fn gridders_reject_a_visibility_buffer_of_the_wrong_length() {
        let ds = dataset(0);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let expected = ds.obs.nr_visibilities();
        let mut long = ds.visibilities.clone();
        long.push(Visibility::zero());
        for (what, vis) in [
            ("short", &ds.visibilities[1..]),
            ("long", &long[..]),
            ("empty", &[][..]),
        ] {
            let data = KernelData {
                obs: &ds.obs,
                uvw: &ds.uvw,
                visibilities: vis,
                aterms: &ds.aterms,
                taper: &tp,
            };
            let is_typed = |r: Result<(), IdgError>| {
                r == Err(IdgError::ShapeMismatch {
                    what: "visibilities",
                    expected,
                    actual: vis.len(),
                })
            };
            let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
            let tables = KernelTables::for_observation(&ds.obs);
            let cpu = gridder_cpu(&data, &plan.items, &mut subgrids, Accuracy::Medium, &tables);
            assert!(is_typed(cpu), "gridder_cpu, {what}");
            let reference = gridder_reference(&data, &plan.items, &mut subgrids);
            assert!(is_typed(reference), "gridder_reference, {what}");
        }
    }

    #[test]
    fn tails_shorter_than_a_simd_lane_match_reference() {
        assert_tail_conformance(&sub_lane_dataset());
    }

    #[test]
    fn items_straddling_vis_batch_match_reference() {
        assert_tail_conformance(&straddling_dataset());
    }

    /// The per-polarisation reduction `reduce_4pol` replaced, kept as its
    /// oracle: polarisations outside the sweep, two lane arrays each.
    fn reduce_4pol_per_pol(
        sin: &[f32],
        cos: &[f32],
        re: [&[f32]; 4],
        im: [&[f32]; 4],
    ) -> [(f32, f32); 4] {
        let len = sin.len();
        let mut acc = [(0.0f32, 0.0f32); 4];
        let full = len - len % LANES;
        for p in 0..4 {
            let (vr, vi) = (&re[p][..len], &im[p][..len]);
            let (s, c) = (&sin[..len], &cos[..len]);
            let mut ar = [0.0f32; LANES];
            let mut ai = [0.0f32; LANES];
            for (((vr_c, vi_c), s_c), c_c) in vr[..full]
                .chunks_exact(LANES)
                .zip(vi[..full].chunks_exact(LANES))
                .zip(s[..full].chunks_exact(LANES))
                .zip(c[..full].chunks_exact(LANES))
            {
                for lane in 0..LANES {
                    ar[lane] = vr_c[lane].mul_add(c_c[lane], ar[lane]);
                    ar[lane] = (-vi_c[lane]).mul_add(s_c[lane], ar[lane]);
                    ai[lane] = vr_c[lane].mul_add(s_c[lane], ai[lane]);
                    ai[lane] = vi_c[lane].mul_add(c_c[lane], ai[lane]);
                }
            }
            let mut ar_sum: f32 = ar.iter().sum();
            let mut ai_sum: f32 = ai.iter().sum();
            for k in full..len {
                ar_sum = vr[k].mul_add(c[k], ar_sum);
                ar_sum = (-vi[k]).mul_add(s[k], ar_sum);
                ai_sum = vr[k].mul_add(s[k], ai_sum);
                ai_sum = vi[k].mul_add(c[k], ai_sum);
            }
            acc[p] = (ar_sum, ai_sum);
        }
        acc
    }

    /// The scalar per-pixel prologue the lane-wise one replaced, as it
    /// stood (the oracle of `stage_item`).
    fn stage_item_per_pixel(
        data: &KernelData<'_>,
        item: &WorkItem,
        subgrid: &[Cf32],
        scr: &mut Scratch,
        tables: &KernelTables,
    ) {
        let geom = KernelGeometry::new(data.obs);
        let n = geom.subgrid_size;
        let planes = tables.geometry(data.obs).unwrap();
        let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
        let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
        let (u0, v0, w0) = geom.subgrid_center_uvw(item);
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                scr.d[i] = f32::from_f64(
                    2.0 * std::f64::consts::PI
                        * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]),
                );

                let raw = idg_types::Jones::from_pols([
                    subgrid[(y) * n + x],
                    subgrid[(n + y) * n + x],
                    subgrid[(2 * n + y) * n + x],
                    subgrid[(3 * n + y) * n + x],
                ]);
                let taper = data.taper[i];
                let px = ap_plane[i]
                    .sandwich(raw, aq_plane[i])
                    .scale(taper)
                    .to_pols();
                for p in 0..4 {
                    scr.re[p][i] = px[p].re;
                    scr.im[p][i] = px[p].im;
                }
            }
        }
    }

    #[test]
    fn lane_prologue_equals_the_per_pixel_one_bit_for_bit() {
        for (what, ds) in crate::gridder::tests::stage_cases() {
            let n2 = ds.obs.subgrid_size * ds.obs.subgrid_size;
            let tables = KernelTables::for_observation(&ds.obs);
            let planes = tables.geometry(&ds.obs).unwrap();
            let geom = KernelGeometry::new(&ds.obs);
            let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
            let tp = taper(ds.obs.subgrid_size);
            let data = KernelData {
                obs: &ds.obs,
                uvw: &ds.uvw,
                visibilities: &ds.visibilities,
                aterms: &ds.aterms,
                taper: &tp,
            };
            let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
            gridder_cpu(&data, &plan.items, &mut subgrids, Accuracy::Medium, &tables).unwrap();
            for (s_idx, item) in plan.items.iter().enumerate() {
                let subgrid = subgrids.subgrid(s_idx);
                let (mut lane, mut scalar) = (Scratch::new(), Scratch::new());
                lane.resize(n2);
                scalar.resize(n2);
                // every staged value must be written: start from NaN
                for plane in lane.re.iter_mut().chain(&mut lane.im).chain([&mut lane.d]) {
                    plane.fill(f32::NAN);
                }
                stage_item(
                    &PixelStage::new(&data, planes, &geom, item),
                    subgrid,
                    &mut lane,
                    n2,
                );
                stage_item_per_pixel(&data, item, subgrid, &mut scalar, &tables);
                let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for p in 0..4 {
                    assert_eq!(
                        to_bits(&lane.re[p]),
                        to_bits(&scalar.re[p]),
                        "{what}: re {p}"
                    );
                    assert_eq!(
                        to_bits(&lane.im[p]),
                        to_bits(&scalar.im[p]),
                        "{what}: im {p}"
                    );
                }
                assert_eq!(to_bits(&lane.d), to_bits(&scalar.d), "{what}: φ₀");
            }
        }
    }

    #[test]
    fn fused_reduction_is_bit_identical_to_the_per_polarisation_one() {
        // seeded planes in [-1, 1) salted with signed zeros (a sum's
        // sign of zero depends on the order it was formed in)
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut plane = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    match state >> 61 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0,
                    }
                })
                .collect()
        };
        const MAX: usize = 600 + 7;
        let (sin, cos) = (plane(MAX), plane(MAX));
        let re: [Vec<f32>; 4] = std::array::from_fn(|_| plane(MAX));
        let im: [Vec<f32>; 4] = std::array::from_fn(|_| plane(MAX));
        let bits = |acc: [(f32, f32); 4]| acc.map(|(re, im)| (re.to_bits(), im.to_bits()));

        for len in (0..=40).chain([255, 256, 500, 511, 512, 513, 576, 600]) {
            for off in [0, 7] {
                let window = off..off + len;
                let re: [&[f32]; 4] = std::array::from_fn(|p| &re[p][window.clone()]);
                let im: [&[f32]; 4] = std::array::from_fn(|p| &im[p][window.clone()]);
                let (sin, cos) = (&sin[window.clone()], &cos[window.clone()]);
                assert_eq!(
                    bits(reduce_4pol(sin, cos, re, im)),
                    bits(reduce_4pol_per_pol(sin, cos, re, im)),
                    "len {len}, offset {off}"
                );
            }
        }
        // an all-negative-zero batch shorter than a chunk: the lane
        // arrays the short path skips would have folded to +0.0
        let (neg, pos) = ([-0.0f32; 8], [0.0f32; 8]);
        let acc = reduce_4pol(&pos, &pos, [&neg; 4], [&pos; 4]);
        assert_eq!(
            bits(acc),
            bits(reduce_4pol_per_pol(&pos, &pos, [&neg; 4], [&pos; 4]))
        );
    }

    /// FNV-1a over the bit patterns of a complex buffer.
    fn fnv(values: impl Iterator<Item = idg_types::Cf32>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in [v.re, v.im]
                .into_iter()
                .flat_map(|f| f.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Output hashes of one shape: `gridder_cpu`'s subgrid array, then
    /// `degridder_cpu`'s visibility buffer predicted from the
    /// *reference* gridder's subgrids (so a gridder change cannot hide
    /// behind a degridder one).
    fn output_hashes(ds: &Dataset, accuracy: Accuracy) -> [u64; 2] {
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let tables = KernelTables::for_observation(&ds.obs);
        let mut gridded = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut gridded, accuracy, &tables).expect("kernel run");
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        let mut predicted = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(&data, &plan.items, &gold, &mut predicted, accuracy, &tables)
            .expect("kernel run");
        [
            fnv(gridded.as_slice().iter().copied()),
            fnv(predicted.iter().flat_map(|v| v.pols)),
        ]
    }

    /// One baseline of `channels` channels 1 MHz apart from 150 MHz over
    /// 4 timesteps: short enough that the planner makes it one work item
    /// carrying every channel.
    fn one_item_dataset(channels: usize) -> Dataset {
        let obs = Observation::builder()
            .stations(2)
            .timesteps(4)
            .channels(channels, 150e6, 1e6)
            .grid_size(256)
            .subgrid_size(24)
            .kernel_size(5)
            .aterm_interval(4)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(2, 10.0, 107);
        let sky = SkyModel::random(&obs, 4, 0.6, 109);
        let beam = GaussianBeam::new(&obs, 0.8, 113);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    /// Relative L2 error of [`degrid`] at `reanchor` against
    /// `degridder_reference` on the one work item of `ds`.
    fn rotation_error(ds: &Dataset, reanchor: usize) -> f64 {
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        assert_eq!(plan.items.len(), 1);
        assert_eq!(plan.items[0].nr_channels, ds.obs.nr_channels());
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut subgrids = SubgridArray::new(1, ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");
        let mut fast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let mut gold = fast.clone();
        let tables = KernelTables::for_observation(&ds.obs);
        degrid(
            &data,
            &plan.items,
            &subgrids,
            &mut fast,
            Accuracy::Medium,
            &tables,
            reanchor,
        )
        .expect("kernel run");
        degridder_reference(&data, &plan.items, &subgrids, &mut gold).expect("kernel run");
        let (mut err, mut norm) = (0.0f64, 0.0f64);
        for (a, b) in fast
            .iter()
            .flat_map(|v| v.pols)
            .zip(gold.iter().flat_map(|v| v.pols))
        {
            err += f64::from((a - b).abs()).powi(2);
            norm += f64::from(b.abs()).powi(2);
        }
        (err / norm).sqrt()
    }

    #[test]
    fn rotated_channels_stay_close_to_the_reference() {
        // The drift table of EXPERIMENTS.md ("The host degridder rotates
        // phasors"): the error against the f64 reference of one work item
        // per channel count, anchored every `reanchor` channels (1: a
        // sincos per channel, the loop before the rotation; MAX: the
        // first channel only). `--nocapture` prints it. Each pin is the
        // error at REANCHOR, rounded up.
        let reanchors = [1, 8, 16, 32, 64, 256, usize::MAX];
        let pins = [(16, 7e-8), (64, 9e-8), (256, 1e-7), (1024, 1e-7)];
        let header = reanchors.map(|r| match r {
            usize::MAX => "    never".to_string(),
            r => format!("{r:>9}"),
        });
        println!("channels / reanchor {}", header.join(""));
        for (channels, pin) in pins {
            let ds = one_item_dataset(channels);
            let errs = reanchors.map(|r| format!("{:>9.2e}", rotation_error(&ds, r)));
            println!("{channels:>19} {}", errs.join(""));
            let err = rotation_error(&ds, REANCHOR);
            assert!(err <= pin, "{channels} channels: {err:.3e} > {pin:.1e}");
        }
    }

    #[test]
    fn kernel_outputs_are_pinned_to_the_bit() {
        // [gridder, degridder] hashes at Medium, then at Fast: a
        // tolerance test cannot see a changed summation order, these
        // can. The degridder constants of the first four shapes were
        // re-blessed when the degridder began rotating phasors across
        // evenly spaced channels. The last four take a sincos per
        // channel (one or two channels, or one channel nudged off the
        // even grid) and keep the bits from before the rotation: the
        // `8-visibility items` constant was computed at 3435907 (the
        // per-polarisation reduction and indexed phase loops), before
        // its inner loops were rewritten, the other three at the
        // rotation's parent. The gridder constants are the
        // shared body's (`crate::gridder`, one chain per pixel), blessed
        // when it replaced the visibility-lane form; the device model's
        // own pins (`gpusim/src/kernels.rs`), which predate the lockstep
        // rewrite, hold the same code from the other wrapper. Medium and
        // Fast hash alike: they share polynomials and their range
        // reductions round apart a few times per million below
        // |phase| = 100 (`idg_math::sincos`) — never on these shapes.
        // The gridder array is hashed in plan order: the gridder
        // constants of the shapes that span more than one A-term
        // interval were re-blessed when the plan began ordering its
        // items by interval, each the parent's output over its items
        // stable-sorted by `aterm_index` (no kernel bit moved).
        let cases: [(&str, Dataset, [u64; 4]); 9] = [
            (
                "identity",
                dataset(0),
                [
                    0x5d20_261a_8f10_0a15,
                    0x5911_c7f1_2e91_3a7d,
                    0x5d20_261a_8f10_0a15,
                    0x5911_c7f1_2e91_3a7d,
                ],
            ),
            (
                "beam",
                dataset(1),
                [
                    0xec91_6e69_746c_da65,
                    0x7e74_e15f_1d51_bc89,
                    0xec91_6e69_746c_da65,
                    0x7e74_e15f_1d51_bc89,
                ],
            ),
            (
                "15-visibility items",
                sub_lane_dataset(),
                [
                    0x4d6b_cf29_3575_02c1,
                    0x9f07_fa1a_fa0c_bea1,
                    0x4d6b_cf29_3575_02c1,
                    0x9f07_fa1a_fa0c_bea1,
                ],
            ),
            (
                "600-visibility items",
                straddling_dataset(),
                [
                    0xa6af_2725_5332_6509,
                    0xb2dd_f3b5_6570_b549,
                    0xa6af_2725_5332_6509,
                    0xb2dd_f3b5_6570_b549,
                ],
            ),
            (
                "8-visibility items",
                eight_visibility_dataset(),
                [
                    0x8c4f_635c_8b7d_6769,
                    0x0e8b_57be_885d_a5a1,
                    0x8c4f_635c_8b7d_6769,
                    0x0e8b_57be_885d_a5a1,
                ],
            ),
            (
                "1 channel",
                channel_dataset(1, 0.0),
                [
                    0x864b_4139_318c_2b15,
                    0x64c0_60e3_8cd8_0d71,
                    0x864b_4139_318c_2b15,
                    0x64c0_60e3_8cd8_0d71,
                ],
            ),
            (
                "2 channels",
                channel_dataset(2, 0.0),
                [
                    0x435b_d7e7_784c_3f4d,
                    0x69f0_20c1_5d77_3241,
                    0x435b_d7e7_784c_3f4d,
                    0x69f0_20c1_5d77_3241,
                ],
            ),
            (
                "channel off the even grid",
                channel_dataset(8, 1e3),
                [
                    0x61b5_5afd_8709_fd9d,
                    0xea9b_9a37_de6c_9d55,
                    0x61b5_5afd_8709_fd9d,
                    0xea9b_9a37_de6c_9d55,
                ],
            ),
            (
                "cancelling phase offsets",
                cancelling_offset_dataset(),
                [
                    0xa85e_b578_116b_16e5,
                    0x0cb4_b907_ab77_ca85,
                    0xa85e_b578_116b_16e5,
                    0x0cb4_b907_ab77_ca85,
                ],
            ),
        ];
        for (name, ds, pinned) in &cases {
            let [gm, dm] = output_hashes(ds, Accuracy::Medium);
            let [gf, df] = output_hashes(ds, Accuracy::Fast);
            assert_eq!([gm, dm, gf, df], *pinned, "{name}");
        }
    }
}
