//! The gridder inner loop — one body for `CpuOptimized` and the device
//! model (Sec. V-C b of the paper).
//!
//! One work item is one thread block; every pixel of its subgrid is one
//! thread that folds the staged visibilities into register accumulators
//! and writes once at the end.
//!
//! **Lanes are pixels.** A GPU runs the threads of a block a warp at a
//! time, in lockstep: one instruction, [`LANES`] threads. The host does
//! the same with SIMD: a warp is [`LANES`] consecutive pixels whose
//! registers are the lanes of `[f32; LANES]` arrays. A warp loads its
//! eight accumulator planes (re/im × 4 polarisations), steps through the
//! staged batch broadcasting one visibility at a time to all lanes
//! (phase, `sincos`, four complex FMAs per lane), and stores them back.
//! The last warp of a subgrid may be partial; its dead lanes compute on
//! zeros, are never read back and count nothing.
//!
//! **The chain-order contract (part of the output's bits).** Every pixel
//! owns one accumulation chain over *all* visibilities of its work item,
//! in (timestep, channel) order, and no two chains ever meet: each step
//! is `phase_index = u·l + (v·m + w·n)` and the phase `mul_add` nested as
//! written in [`fold_batch`], `sincos(phase, accuracy)`, then the four
//! FMAs of `Cf32::mul_acc` per polarisation in its order. The batch
//! length only cuts a chain into consecutive pieces that continue from
//! the same register, and the lane width only decides which chains run
//! side by side — so neither can move a bit, and the two callers differ
//! in nothing else: the host stages [`crate::cpu::gridder_cpu`]'s
//! L1-sized batch at the accuracy it is asked for, the device model its
//! shared-memory capacity at `Accuracy::Fast` (`--use_fast_math`).

use crate::buffers::{pixel_index, SubgridArray};
use crate::cache::{GeometryKey, KernelCache};
use crate::geometry::KernelGeometry;
use crate::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_math::{sincos, Accuracy};
use idg_obs::KernelCounters;
use idg_plan::WorkItem;
use idg_types::{Cf32, Float, IdgError, Jones, Uvw};
use rayon::prelude::*;

/// Threads that run in lockstep, one per SIMD lane: one 512-bit or two
/// 256-bit vectors of f32. Not part of the gridder's bits (see the
/// module doc; 8, 16 and 32 measure alike, EXPERIMENTS.md "Device-model
/// kernels") — but the host degridder's `reduce_4pol` splits each sum
/// into this many partial sums, and *its* bits do depend on it.
pub const LANES: usize = 16;

/// `N` registers of one warp: one f32 per lane each.
pub type LaneRegs<const N: usize> = [[f32; LANES]; N];

/// `acc += phasor · q` on one lane's accumulator pair: [`Cf32::mul_acc`],
/// whose four FMAs and their order are part of the chain contract.
#[inline(always)]
pub fn cmac(ar: &mut f32, ai: &mut f32, phasor: Cf32, q: Cf32) {
    let mut acc = Cf32::new(*ar, *ai);
    acc.mul_acc(phasor, q);
    (*ar, *ai) = (acc.re, acc.im);
}

/// The four polarisations thread `t` holds in its accumulators.
pub fn thread_pols(regs: &[LaneRegs<8>], t: usize) -> [Cf32; 4] {
    let (warp, lane) = (&regs[t / LANES], t % LANES);
    std::array::from_fn(|p| Cf32::new(warp[2 * p][lane], warp[2 * p + 1][lane]))
}

/// One visibility of the staged batch.
struct StagedVis {
    uvw: Uvw,
    freq_scale: f32,
    pols: [Cf32; 4],
}

/// Per-worker state, reused across work items (`for_each_init`).
#[derive(Default)]
struct Scratch {
    /// Per warp of pixels: the accumulators (re, im of each polarisation),
    /// held across batches.
    regs: Vec<LaneRegs<8>>,
    /// Per warp of pixels: l, m, n and the item's phase offset φ₀.
    geo: Vec<LaneRegs<4>>,
    /// The staged batch (the device's shared memory).
    staged: Vec<StagedVis>,
}

/// One warp of pixels folds one staged batch into its registers — the
/// gridder lane loop, the only one in the workspace. `accuracy` must
/// arrive as a constant: the lane loop is then straight-line (`sincos` is
/// `#[inline]` and branchless below `High`) and LLVM vectorises it whole.
#[inline(always)]
fn fold_batch(regs: &mut LaneRegs<8>, geo: &LaneRegs<4>, staged: &[StagedVis], accuracy: Accuracy) {
    let [l, m, nt, off] = geo;
    // eight named arrays, as in `reduce_4pol`: staying in registers must
    // not hang on an index loop unrolling
    let [mut a0r, mut a0i, mut a1r, mut a1i, mut a2r, mut a2i, mut a3r, mut a3i] = *regs;
    for sv in staged {
        let (u, v, w, scale) = (sv.uvw.u, sv.uvw.v, sv.uvw.w, sv.freq_scale);
        let [q0, q1, q2, q3] = sv.pols;
        for lane in 0..LANES {
            let phase_index = u.mul_add(l[lane], v.mul_add(m[lane], w * nt[lane]));
            let phase = scale.mul_add(phase_index, -off[lane]);
            let (s, c) = sincos(phase, accuracy);
            let phasor = Cf32::new(c, s);
            cmac(&mut a0r[lane], &mut a0i[lane], phasor, q0);
            cmac(&mut a1r[lane], &mut a1i[lane], phasor, q1);
            cmac(&mut a2r[lane], &mut a2i[lane], phasor, q2);
            cmac(&mut a3r[lane], &mut a3i[lane], phasor, q3);
        }
    }
    *regs = [a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i];
}

/// Algorithm 1 over all work items with the thread-per-pixel mapping,
/// parallel over items with rayon, staging `batch_len` visibilities at a
/// time; returns the launch's measured op tally, which the caller
/// records under `KernelStage::Gridder` (lint L3 holds both callers,
/// [`crate::cpu::gridder_cpu`] and the device model's `gridder_gpu`, to
/// it).
///
/// Each pixel's value is one chain over all visibilities of its work
/// item in (timestep, channel) order — see the module doc.
pub fn pixel_lane_gridder(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    batch_len: usize,
    accuracy: Accuracy,
    cache: &KernelCache,
) -> Result<KernelCounters, IdgError> {
    crate::check_launch(data, items, Some(subgrids))?;
    if batch_len == 0 {
        // would never advance the staging loop
        return Err(IdgError::InvalidParameter(
            "gridder staged-batch length is zero".into(),
        ));
    }

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let n2 = n * n;
    let nr_warps = n2.div_ceil(LANES);
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();
    // shared per-pixel direction cosines: one lookup per launch
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    // per-channel phase scale 2π·ν/c as f32 (phases stay < ~10⁴ rad)
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();

    // one thread block per work item; blocks are independent
    let mut tallies = vec![KernelCounters::default(); items.len()];
    items
        .par_iter()
        .zip(subgrids.as_mut_slice().par_chunks_exact_mut(4 * n2))
        .zip(tallies.par_iter_mut())
        .for_each_init(Scratch::default, |scr, ((item, subgrid), tally_slot)| {
            let (u0, v0, w0) = geom.subgrid_center_uvw(item);
            let base = item.baseline_index * nr_time + item.time_offset;
            let item_chan = item.nr_channels;
            let tc = item.nr_timesteps * item_chan;

            // Measured op tally for this block, incremented beside the
            // staging and inner sincos/accumulate loops with their real
            // trip counts; the uvw track is read once per timestep.
            // Stored per block and summed once per launch (rayon
            // workers have no session to record into).
            let mut tally = KernelCounters {
                invocations: 1,
                dram_bytes: item.nr_timesteps as u64 * BYTES_UVW,
                ..KernelCounters::default()
            };

            // "registers": per-pixel accumulators held across batches
            scr.regs.clear();
            scr.regs.resize(nr_warps, [[0.0; LANES]; 8]);
            // each thread's pixel geometry: l/m/n from the cached
            // planes, the phase offset per item; dead lanes stay zero
            scr.geo.clear();
            scr.geo.resize(nr_warps, [[0.0; LANES]; 4]);
            for i in 0..n2 {
                let off = f32::from_f64(
                    2.0 * std::f64::consts::PI
                        * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]),
                );
                let (geo, lane) = (&mut scr.geo[i / LANES], i % LANES);
                geo[0][lane] = planes.lf[i];
                geo[1][lane] = planes.mf[i];
                geo[2][lane] = planes.nf[i];
                geo[3][lane] = off;
            }

            let staged = &mut scr.staged;
            let mut k0 = 0usize;
            while k0 < tc {
                let k1 = (k0 + batch_len).min(tc);
                // cooperative load + transpose into the staged batch
                staged.clear();
                for k in k0..k1 {
                    let (dt, ci) = (k / item_chan, k % item_chan);
                    let c = item.channel_offset + ci;
                    staged.push(StagedVis {
                        uvw: data.uvw[base + dt],
                        freq_scale: scales[c],
                        pols: data.visibilities[(base + dt) * nr_chan + c].pols,
                    });
                }
                // each visibility is staged exactly once across batches
                tally.visibilities += staged.len() as u64;
                tally.dram_bytes += staged.len() as u64 * BYTES_POL4;

                // __syncthreads(); every warp of threads iterates the
                // staged batch, one broadcast element per step
                for (warp, (regs, geo)) in scr.regs.iter_mut().zip(&scr.geo).enumerate() {
                    match accuracy {
                        Accuracy::Fast => fold_batch(regs, geo, staged, Accuracy::Fast),
                        Accuracy::Medium => fold_batch(regs, geo, staged, Accuracy::Medium),
                        Accuracy::High => fold_batch(regs, geo, staged, Accuracy::High),
                    }
                    // the threads that exist, each over the whole batch
                    let pairs = (LANES.min(n2 - warp * LANES) * staged.len()) as u64;
                    tally.sincos_pairs += pairs;
                    tally.fmas += 17 * pairs; // phase + 4 cmul-acc
                    tally.shared_bytes += pairs * (BYTES_POL4 + BYTES_UVW);
                }
                k0 = k1;
            }

            // epilogue: A-term sandwich + taper, coalesced store
            let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
            let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
            tally.dram_bytes += (ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4;
            for i in 0..n2 {
                let (y, x) = (i / n, i % n);
                let pix = Jones::from_pols(thread_pols(&scr.regs, i));
                let corrected = ap_plane[i]
                    .hermitian()
                    .mul(pix)
                    .mul(aq_plane[i])
                    .scale(data.taper[i]);
                for (p, v) in corrected.to_pols().into_iter().enumerate() {
                    subgrid[pixel_index(n, p, y, x)] = v;
                }
                tally.dram_bytes += BYTES_POL4; // output pixel written once
            }
            *tally_slot = tally;
        });
    Ok(tallies.iter().sum())
}
