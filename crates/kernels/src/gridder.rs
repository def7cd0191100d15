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
//! zeros, are never read back and count nothing. A warp's l, m and n are
//! constants of the launch; only its phase offsets φ₀ are set per item.
//!
//! **The pixel stage runs a warp at a time too.** The epilogue — the
//! adjoint A-term sandwich and the taper (Line 17 of Algorithm 1) — reads
//! each warp's accumulator planes as they are and stores sixteen-pixel
//! runs per polarisation plane; the degridders' prologue (Lines 2–3 of
//! Algorithm 2) is its mirror image. Both, and every φ₀, go through one
//! helper, [`PixelStage`]. Each lane runs the per-pixel arithmetic the
//! scalar stage ran, in its order, so the lane width moves no bit there
//! either (the scalar stages are kept as test oracles).
//!
//! **The chain-order contract (part of the output's bits).** Every pixel
//! owns one accumulation chain over *all* visibilities of its work item,
//! in (timestep, channel) order, and no two chains ever meet: each step
//! is `phase_index = u·l + (v·m + w·n)` and the phase `mul_add` nested as
//! written in `fold_batch`, `sincos(phase, accuracy)`, then the four
//! FMAs of `Cf32::mul_acc` per polarisation in its order. The batch
//! length only cuts a chain into consecutive pieces that continue from
//! the same register, and the lane width only decides which chains run
//! side by side — so neither can move a bit, and the two callers differ
//! in nothing else: the host stages [`crate::cpu::gridder_cpu`]'s
//! L1-sized batch at the accuracy it is asked for, the device model its
//! shared-memory capacity at `Accuracy::Fast` (`--use_fast_math`).

use crate::buffers::SubgridArray;
use crate::geometry::KernelGeometry;
use crate::tables::{GeometryPlanes, KernelTables};
use crate::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_math::{sincos, Accuracy};
use idg_obs::KernelCounters;
use idg_plan::WorkItem;
use idg_types::{Cf32, Float, IdgError, Jones, Uvw};
use rayon::prelude::*;

/// Threads that run in lockstep, one per SIMD lane: one 512-bit vector
/// of f32 on an AVX-512 host (with `.cargo/config.toml`'s
/// `-prefer-256-bit`; LLVM's own tuning there splits it in two), two
/// 256-bit vectors on an AVX2 host. Not part of the gridder's bits (see the
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
    /// Per warp of pixels: the item's phase offsets φ₀.
    off: Vec<[f32; LANES]>,
    /// The staged batch (the device's shared memory).
    staged: Vec<StagedVis>,
}

/// Pixels `i0..i0 + LANES` of a per-pixel plane as one warp's lanes;
/// lanes past the plane's end are `T::default()` (zero).
#[inline(always)]
fn lanes<T: Copy + Default>(plane: &[T], i0: usize) -> [T; LANES] {
    let mut out = [T::default(); LANES];
    for (o, v) in out.iter_mut().zip(plane.get(i0..).unwrap_or_default()) {
        *o = *v;
    }
    out
}

/// The Jones matrix in lane `lane` of eight lane planes (re, im of xx,
/// xy, yx, yy — the accumulator order of [`LaneRegs<8>`]).
#[inline(always)]
fn jones_at(regs: &LaneRegs<8>, lane: usize) -> Jones<f32> {
    let [xxr, xxi, xyr, xyi, yxr, yxi, yyr, yyi] = regs;
    Jones::new(
        Cf32::new(xxr[lane], xxi[lane]),
        Cf32::new(xyr[lane], xyi[lane]),
        Cf32::new(yxr[lane], yxi[lane]),
        Cf32::new(yyr[lane], yyi[lane]),
    )
}

/// The image-domain stage of one work item, a warp of [`LANES`] pixels
/// at a time: the A-term sandwich and the taper — the gridder's epilogue
/// ([`Self::adjoint`], Line 17 of Algorithm 1) and the degridders'
/// prologue ([`Self::forward`], Lines 2–3 of Algorithm 2) — and the
/// item's phase offsets φ₀ ([`Self::offsets`]), the one geometry plane
/// that varies per item.
///
/// Every lane runs the per-pixel expression of the scalar stage it
/// replaced, in its order (`Jones::hermitian`, `mul`, `mul`, `scale`
/// for the gridder; `Jones::sandwich`, `scale` for the degridders; φ₀ in
/// f64, narrowed once), so its bits are the scalar stage's, whatever the
/// warp. Dead lanes of a subgrid's last warp compute on zeros and are
/// never stored.
pub struct PixelStage<'a> {
    ap: &'a [Jones<f32>],
    aq: &'a [Jones<f32>],
    taper: &'a [f32],
    planes: &'a GeometryPlanes,
    center: (f64, f64, f64),
}

impl<'a> PixelStage<'a> {
    /// The stage of `item`: its stations' A-term planes, the taper and
    /// its subgrid's centre `(u₀, v₀, w₀)`; `planes` are the launch's
    /// direction cosines ([`KernelTables::geometry`]). `item` must have
    /// passed [`crate::check_launch`].
    pub fn new(
        data: &KernelData<'a>,
        planes: &'a GeometryPlanes,
        geom: &KernelGeometry,
        item: &WorkItem,
    ) -> Self {
        Self {
            ap: data.aterms.plane(item.aterm_index, item.baseline.station1),
            aq: data.aterms.plane(item.aterm_index, item.baseline.station2),
            taper: data.taper,
            planes,
            center: geom.subgrid_center_uvw(item),
        }
    }

    /// φ₀ = 2π·(u₀·l + v₀·m + w₀·n) of pixels `i0..`, narrowed to f32,
    /// into `out` (as many as both hold; the rest of `out` is untouched).
    #[inline]
    pub fn offsets(&self, i0: usize, out: &mut [f32]) {
        let (u0, v0, w0) = self.center;
        let l = self.planes.l.get(i0..).unwrap_or_default();
        let m = self.planes.m.get(i0..).unwrap_or_default();
        let n = self.planes.n_term.get(i0..).unwrap_or_default();
        for (o, ((l, m), n)) in out.iter_mut().zip(l.iter().zip(m).zip(n)) {
            *o = f32::from_f64(2.0 * std::f64::consts::PI * (u0 * l + v0 * m + w0 * n));
        }
    }

    /// The gridder's epilogue for the warp of pixels `i0..`: the adjoint
    /// sandwich `A_pᴴ · S · A_q` and the taper of the accumulators `pix`,
    /// stored as one run of up to [`LANES`] pixels in each polarisation
    /// plane of `subgrid` (`[pol][y][x]`).
    #[inline]
    pub fn adjoint(&self, i0: usize, pix: &LaneRegs<8>, subgrid: &mut [Cf32]) {
        let mut px = *pix;
        self.sandwich(i0, &mut px, true);
        let n2 = self.taper.len();
        for (plane, [re, im]) in subgrid.chunks_exact_mut(n2).zip(px.as_chunks::<2>().0) {
            let run = plane.get_mut(i0..).unwrap_or_default();
            for (out, (re, im)) in run.iter_mut().zip(re.iter().zip(im)) {
                *out = Cf32::new(*re, *im);
            }
        }
    }

    /// The degridders' prologue for the warp of pixels `i0..`: the raw
    /// pixels of `subgrid` (`[pol][y][x]`) under the forward sandwich
    /// `A_p · S · A_qᴴ` and the taper, as eight lane planes (re, im of
    /// each polarisation).
    #[inline]
    pub fn forward(&self, i0: usize, subgrid: &[Cf32]) -> LaneRegs<8> {
        let mut px = [[0.0; LANES]; 8];
        let n2 = self.taper.len();
        for (plane, [re, im]) in subgrid.chunks_exact(n2).zip(px.as_chunks_mut::<2>().0) {
            let run = plane.get(i0..).unwrap_or_default();
            for (v, (re, im)) in run.iter().zip(re.iter_mut().zip(im)) {
                (*re, *im) = (v.re, v.im);
            }
        }
        self.sandwich(i0, &mut px, false);
        px
    }

    /// The sandwich and the taper of one warp, in place.
    #[inline(always)]
    fn sandwich(&self, i0: usize, pix: &mut LaneRegs<8>, adjoint: bool) {
        let (ap, aq, taper) = (
            lanes(self.ap, i0),
            lanes(self.aq, i0),
            lanes(self.taper, i0),
        );
        let src = *pix;
        // eight named arrays, as in `fold_batch`
        let [mut a0r, mut a0i, mut a1r, mut a1i, mut a2r, mut a2i, mut a3r, mut a3i] =
            [[0.0; LANES]; 8];
        for lane in 0..LANES {
            let s = jones_at(&src, lane);
            let (p, q) = (ap[lane], aq[lane]);
            let c = if adjoint {
                p.hermitian().mul(s).mul(q)
            } else {
                p.sandwich(s, q)
            }
            .scale(taper[lane]);
            (a0r[lane], a0i[lane]) = (c.xx.re, c.xx.im);
            (a1r[lane], a1i[lane]) = (c.xy.re, c.xy.im);
            (a2r[lane], a2i[lane]) = (c.yx.re, c.yx.im);
            (a3r[lane], a3i[lane]) = (c.yy.re, c.yy.im);
        }
        *pix = [a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i];
    }
}

/// One warp of pixels folds one staged batch into its registers — the
/// gridder lane loop, the only one in the workspace. `accuracy` must
/// arrive as a constant: the lane loop is then straight-line (`sincos` is
/// `#[inline]` and branchless below `High`) and LLVM vectorises it whole.
#[inline(always)]
fn fold_batch(
    regs: &mut LaneRegs<8>,
    lmn: &LaneRegs<3>,
    off: &[f32; LANES],
    staged: &[StagedVis],
    accuracy: Accuracy,
) {
    let [l, m, nt] = lmn;
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
/// time; returns the launch's measured op tally, which both callers,
/// [`crate::cpu::gridder_cpu`] and the device model's `gridder_gpu`,
/// record under `KernelStage::Gridder` (a dropped record fails
/// `Proxy::validate_measured` on every clean observed pass).
///
/// Each pixel's value is one chain over all visibilities of its work
/// item in (timestep, channel) order — see the module doc.
pub fn pixel_lane_gridder(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    batch_len: usize,
    accuracy: Accuracy,
    tables: &KernelTables,
) -> Result<KernelCounters, IdgError> {
    grid_items(data, items, subgrids, batch_len, accuracy, tables, epilogue)
}

/// The gridder's epilogue: an item's folded accumulators into its
/// subgrid, a warp at a time through [`PixelStage::adjoint`].
fn epilogue(stage: &PixelStage<'_>, regs: &[LaneRegs<8>], subgrid: &mut [Cf32]) {
    for (w, pix) in regs.iter().enumerate() {
        stage.adjoint(w * LANES, pix, subgrid);
    }
}

/// [`pixel_lane_gridder`] with its epilogue given (the tests hand it the
/// scalar per-pixel one).
fn grid_items(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    batch_len: usize,
    accuracy: Accuracy,
    tables: &KernelTables,
    epilogue: fn(&PixelStage<'_>, &[LaneRegs<8>], &mut [Cf32]),
) -> Result<KernelCounters, IdgError> {
    crate::check_launch(data, items, Some(subgrids))?;
    data.validate_visibilities()?;
    if batch_len == 0 {
        // would never advance the staging loop
        return Err(IdgError::InvalidParameter(
            "gridder staged-batch length is zero".into(),
        ));
    }

    let geom = KernelGeometry::new(data.obs);
    let n2 = geom.subgrid_size * geom.subgrid_size;
    let nr_warps = n2.div_ceil(LANES);
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();
    let planes = tables.geometry(data.obs)?;
    // per-channel phase scale 2π·ν/c as f32 (phases stay < ~10⁴ rad)
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();
    // each thread's l, m, n: constants of the launch; dead lanes zero
    let lmn: Vec<LaneRegs<3>> = (0..nr_warps)
        .map(|w| {
            let i0 = w * LANES;
            [
                lanes(&planes.lf, i0),
                lanes(&planes.mf, i0),
                lanes(&planes.nf, i0),
            ]
        })
        .collect();

    // one thread block per work item; blocks are independent
    let mut tallies = vec![KernelCounters::default(); items.len()];
    items
        .par_iter()
        .zip(subgrids.as_mut_slice().par_chunks_exact_mut(4 * n2))
        .zip(tallies.par_iter_mut())
        .for_each_init(Scratch::default, |scr, ((item, subgrid), tally_slot)| {
            let stage = PixelStage::new(data, planes, &geom, item);
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
            // each thread's phase offset, per item; dead lanes stay zero
            scr.off.clear();
            scr.off.resize(nr_warps, [0.0; LANES]);
            for (w, off) in scr.off.iter_mut().enumerate() {
                stage.offsets(w * LANES, off);
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
                let warps = scr.regs.iter_mut().zip(lmn.iter().zip(&scr.off));
                for (warp, (regs, (lmn, off))) in warps.enumerate() {
                    match accuracy {
                        Accuracy::Fast => fold_batch(regs, lmn, off, staged, Accuracy::Fast),
                        Accuracy::Medium => fold_batch(regs, lmn, off, staged, Accuracy::Medium),
                        Accuracy::High => fold_batch(regs, lmn, off, staged, Accuracy::High),
                    }
                    // the threads that exist, each over the whole batch
                    let pairs = (LANES.min(n2 - warp * LANES) * staged.len()) as u64;
                    tally.sincos_pairs += pairs;
                    tally.fmas += 17 * pairs; // phase + 4 cmul-acc
                    tally.shared_bytes += pairs * (BYTES_POL4 + BYTES_UVW);
                }
                k0 = k1;
            }

            // epilogue: A-term sandwich + taper, coalesced store; both
            // A-term planes are read and every output pixel written once
            epilogue(&stage, &scr.regs, subgrid);
            tally.dram_bytes += 3 * n2 as u64 * BYTES_POL4;
            *tally_slot = tally;
        });
    Ok(tallies.iter().sum())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::buffers::pixel_index;
    use idg_plan::Plan;
    use idg_telescope::{
        ATermModel, Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel, StationGains,
    };
    use idg_types::{Complex, Observation};

    /// A direction-dependent beam with polarisation leakage: all four
    /// entries non-zero, and different per station and interval.
    struct LeakyBeam;

    impl ATermModel for LeakyBeam {
        fn evaluate(&self, interval: usize, station: usize, l: f64, m: f64) -> Jones<f64> {
            let s = (7 * interval + station) as f64;
            let g = Complex::new((-(l * l + m * m) * 300.0).exp(), 0.1 * (s + 20.0 * l).sin());
            Jones::new(
                g,
                Complex::new(0.12, 0.05 + 0.01 * s) * g,
                Complex::new(-0.08, 0.03 - 0.5 * m) * g,
                Complex::new(0.9, -0.1 * s * m) * g,
            )
        }
    }

    /// The pixel-stage test shapes: subgrid sizes 16, 18 (324 pixels: a
    /// last warp of 4 lanes), 20, 24 and 32; identity, Gaussian-beam,
    /// station-gain and leaky full-Jones A-terms; items of one
    /// visibility (one timestep per A-term interval, one channel) and of
    /// up to 16 × 5 = 80.
    pub(crate) fn stage_cases() -> Vec<(String, Dataset)> {
        let mut cases = Vec::new();
        for subgrid in [16, 18, 20, 24, 32] {
            for (aterm, kind) in ["identity", "Gaussian beam", "station gains", "leaky beam"]
                .into_iter()
                .enumerate()
            {
                for (interval, channels) in [(1, 1), (16, 5)] {
                    let obs = Observation::builder()
                        .stations(4)
                        .timesteps(2 * interval)
                        .channels(channels, 150e6, 2e6)
                        .grid_size(256)
                        .subgrid_size(subgrid)
                        .kernel_size(5)
                        .aterm_interval(interval)
                        .image_size(0.05)
                        .build()
                        .unwrap();
                    let seed = (100 * subgrid + 10 * aterm + interval) as u64;
                    let layout = Layout::uniform(4, 900.0, seed);
                    let sky = SkyModel::random(&obs, 3, 0.6, seed + 1);
                    let model: Box<dyn ATermModel> = match aterm {
                        0 => Box::new(IdentityATerm),
                        1 => Box::new(GaussianBeam::new(&obs, 0.8, seed + 2)),
                        2 => Box::new(StationGains::random(4, 2, seed + 3)),
                        _ => Box::new(LeakyBeam),
                    };
                    let what = format!("{subgrid}² pixels, {kind}, {interval}×{channels} vis/item");
                    cases.push((what, Dataset::simulate(obs, &layout, sky, model.as_ref())));
                }
            }
        }
        cases
    }

    /// The scalar per-pixel epilogue the lane-wise one replaced, as it
    /// stood: gather one `Jones` per pixel, sandwich, taper, scatter its
    /// four polarisations (the oracle of [`PixelStage::adjoint`]).
    fn epilogue_per_pixel(stage: &PixelStage<'_>, regs: &[LaneRegs<8>], subgrid: &mut [Cf32]) {
        let n = stage.taper.len().isqrt();
        for i in 0..n * n {
            let (y, x) = (i / n, i % n);
            let pix = Jones::from_pols(thread_pols(regs, i));
            let corrected = stage.ap[i]
                .hermitian()
                .mul(pix)
                .mul(stage.aq[i])
                .scale(stage.taper[i]);
            for (p, v) in corrected.to_pols().into_iter().enumerate() {
                subgrid[pixel_index(n, p, y, x)] = v;
            }
        }
    }

    fn bits(values: &[Cf32]) -> Vec<(u32, u32)> {
        values
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn lane_epilogue_equals_the_per_pixel_one_bit_for_bit() {
        for (what, ds) in stage_cases() {
            let n = ds.obs.subgrid_size;
            let tables = KernelTables::for_observation(&ds.obs);
            let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
            let taper = idg_math::spheroidal_2d(n);
            let data = KernelData {
                obs: &ds.obs,
                uvw: &ds.uvw,
                visibilities: &ds.visibilities,
                aterms: &ds.aterms,
                taper: &taper,
            };
            for accuracy in [Accuracy::Medium, Accuracy::Fast] {
                let mut lane = SubgridArray::new(plan.nr_subgrids(), n);
                let mut scalar = SubgridArray::new(plan.nr_subgrids(), n);
                let lane_tally =
                    pixel_lane_gridder(&data, &plan.items, &mut lane, 512, accuracy, &tables)
                        .unwrap();
                let scalar_tally = grid_items(
                    &data,
                    &plan.items,
                    &mut scalar,
                    512,
                    accuracy,
                    &tables,
                    epilogue_per_pixel,
                )
                .unwrap();
                let what = format!("{what}, {accuracy:?}");
                let most = plan
                    .items
                    .iter()
                    .map(|i| i.nr_timesteps * i.nr_channels)
                    .max();
                assert!(
                    matches!(most, Some(1) | Some(17..)),
                    "{what}: {most:?} vis/item"
                );
                assert_eq!(bits(lane.as_slice()), bits(scalar.as_slice()), "{what}");
                assert_eq!(lane_tally, scalar_tally, "{what}");
            }
        }
    }
}
