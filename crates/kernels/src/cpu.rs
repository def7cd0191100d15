//! Optimized CPU gridder and degridder (Sec. V-B of the paper).
//!
//! **Lanes are pixels** in both kernels, and work items are distributed
//! over cores with rayon (the OpenMP `parallel for` analogue):
//!
//! * **gridder** — [`gridder_cpu`] is the workspace's one gridder body,
//!   [`pixel_lane_gridder`], at the host's batch length: every pixel folds
//!   the staged visibilities into its own register accumulators, sixteen
//!   pixels in lockstep. Threads own disjoint subgrids.
//! * **degridder** — per visibility, the `Ñ²` pixels of the subgrid are
//!   the elements of three loops that each vectorise: the phases of all
//!   pixels (zipped slices cut once per item — `check_launch` validated
//!   the ranges — so no per-element bounds check), one `sincos_batch`
//!   call (`idg-math`'s SVML/VML analogue), and `reduce_4pol`: Listing
//!   1's sweep, 16 FMAs per element across 8 accumulators (re/im × 4
//!   polarisations), every sin/cos load shared by all four
//!   polarisations. The corrected pixels are staged once per item in
//!   structure-of-arrays form, real and imaginary parts separated (the
//!   paper's "load and transpose … into memory-aligned arrays"). The
//!   reduction's summation order is a contract — it and [`LANES`] decide
//!   the output's bits (see `reduce_4pol`; the tests pin output hashes
//!   taken before the loops were fused). Threads own disjoint rows of
//!   the output buffer, carved before the parallel section.

use crate::buffers::SubgridArray;
use crate::cache::{GeometryKey, KernelCache};
use crate::geometry::KernelGeometry;
use crate::gridder::{pixel_lane_gridder, LANES};
use crate::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_math::{sincos_batch, Accuracy};
use idg_obs::{KernelCounters, KernelStage};
use idg_plan::WorkItem;
use idg_types::{Float, IdgError, Jones, Visibility};
use rayon::prelude::*;

/// Per-worker degridder scratch buffers, reused across work items.
struct Scratch {
    /// Phases, then sin/cos planes, each `Ñ²` long.
    phases: Vec<f32>,
    /// Per-channel phase staging.
    chan_phases: Vec<f32>,
    sin: Vec<f32>,
    cos: Vec<f32>,
    /// SoA staging: 4 pols × re/im.
    re: [Vec<f32>; 4],
    im: [Vec<f32>; 4],
    /// Per-item phase offsets φ₀ (the only geometry plane that varies
    /// per item — l/m/n come shared from the [`KernelCache`]).
    d: Vec<f32>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            phases: Vec::new(),
            chan_phases: Vec::new(),
            sin: Vec::new(),
            cos: Vec::new(),
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

/// Optimized gridder: [`pixel_lane_gridder`] staging [`VIS_BATCH`]
/// visibilities at a time, at the caller's sincos accuracy; numerically
/// validated against [`crate::gridder_reference`].
pub fn gridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    accuracy: Accuracy,
    cache: &KernelCache,
) -> Result<(), IdgError> {
    let tally = pixel_lane_gridder(data, items, subgrids, VIS_BATCH, accuracy, cache)?;
    idg_obs::add_kernel(KernelStage::Gridder, &tally);
    Ok(())
}

/// Optimized degridder: Algorithm 2 over all work items.
///
/// Parallel over work items; `vis_out` is pre-partitioned into disjoint
/// per-timestep rows (the plan never assigns one visibility to two
/// items), so each worker predicts straight into its own slices — no
/// per-item staging allocation, no sequential scatter afterwards.
pub fn degridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    accuracy: Accuracy,
    cache: &KernelCache,
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
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();

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
            let subgrid = subgrids.subgrid(s_idx);
            let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
            let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
            let (u0, v0, w0) = geom.subgrid_center_uvw(item);

            // Measured op tally (see gridder_cpu): the staging pass
            // reads the subgrid and both A-term planes once.
            let mut tally = KernelCounters {
                invocations: 1,
                dram_bytes: (n2 + ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4,
                ..KernelCounters::default()
            };

            // Lines 2–3 of Algorithm 2: forward A-term sandwich + taper,
            // staged SoA, together with per-pixel geometry (l, m, n, φ₀).
            for y in 0..n {
                for x in 0..n {
                    let i = y * n + x;
                    scr.d[i] = f32::from_f64(
                        2.0 * std::f64::consts::PI
                            * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]),
                    );

                    let raw = Jones::from_pols([
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

            let base = item.baseline_index * nr_time + item.time_offset;
            let uvw = &data.uvw[base..base + item.nr_timesteps];
            let item_scales = &scales[item.channel_offset..][..item.nr_channels];
            let pixel_re: [&[f32]; 4] = std::array::from_fn(|p| &scr.re[p][..n2]);
            let pixel_im: [&[f32]; 4] = std::array::from_fn(|p| &scr.im[p][..n2]);

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
                for (scale, out) in item_scales.iter().zip(out_row.iter_mut()) {
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
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn gridder_matches_reference_beam_aterms() {
        let ds = dataset(1);
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
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn degridder_matches_reference() {
        let ds = dataset(1);
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
            &KernelCache::new(),
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
        gridder_cpu(
            &data,
            &plan.items,
            &mut med,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Fast,
            &KernelCache::new(),
        )
        .expect("kernel run");
        assert_subgrids_close(&fast, &med, 1e-3);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let ds = dataset(0);
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
        gridder_cpu(
            &data,
            &plan.items,
            &mut a,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_cpu(
            &data,
            &plan.items,
            &mut b,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "per-item accumulation order is fixed"
        );
    }

    /// Both tail-handling regimes of the optimized kernels against the
    /// reference on the same plan.
    fn assert_tail_conformance(ds: &Dataset) {
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
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
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
            &KernelCache::new(),
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
        let cache = KernelCache::new();
        let mut gridded = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(&data, &plan.items, &mut gridded, accuracy, &cache).expect("kernel run");
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        let mut predicted = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(&data, &plan.items, &gold, &mut predicted, accuracy, &cache)
            .expect("kernel run");
        [
            fnv(gridded.as_slice().iter().copied()),
            fnv(predicted.iter().flat_map(|v| v.pols)),
        ]
    }

    #[test]
    fn kernel_outputs_are_pinned_to_the_bit() {
        // [gridder, degridder] hashes at Medium, then at Fast: a
        // tolerance test cannot see a changed summation order, these
        // can. The degridder constants were computed at 3435907 (the
        // per-polarisation reduction and indexed phase loops), before
        // its inner loops were rewritten. The gridder constants are the
        // shared body's (`crate::gridder`, one chain per pixel), blessed
        // when it replaced the visibility-lane form; the device model's
        // own pins (`gpusim/src/kernels.rs`), which predate the lockstep
        // rewrite, hold the same code from the other wrapper. Medium and
        // Fast hash alike: they share polynomials and their range
        // reductions round apart a few times per million below
        // |phase| = 100 (`idg_math::sincos`) — never on these shapes.
        let cases: [(&str, Dataset, [u64; 4]); 5] = [
            (
                "identity",
                dataset(0),
                [
                    0x4554_4d45_202b_8035,
                    0xf7b5_90d7_ce06_48b5,
                    0x4554_4d45_202b_8035,
                    0xf7b5_90d7_ce06_48b5,
                ],
            ),
            (
                "beam",
                dataset(1),
                [
                    0xeb0f_c2b4_5983_8675,
                    0xd5e7_0554_76df_28b1,
                    0xeb0f_c2b4_5983_8675,
                    0xd5e7_0554_76df_28b1,
                ],
            ),
            (
                "15-visibility items",
                sub_lane_dataset(),
                [
                    0x4d6b_cf29_3575_02c1,
                    0x3149_0f7c_5d31_62c1,
                    0x4d6b_cf29_3575_02c1,
                    0x3149_0f7c_5d31_62c1,
                ],
            ),
            (
                "600-visibility items",
                straddling_dataset(),
                [
                    0xa6af_2725_5332_6509,
                    0xf62e_0614_f6de_8139,
                    0xa6af_2725_5332_6509,
                    0xf62e_0614_f6de_8139,
                ],
            ),
            (
                "8-visibility items",
                eight_visibility_dataset(),
                [
                    0xa986_a985_2ef7_8239,
                    0x0e8b_57be_885d_a5a1,
                    0xa986_a985_2ef7_8239,
                    0x0e8b_57be_885d_a5a1,
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
