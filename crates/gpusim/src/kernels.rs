//! GPU-mapped gridder and degridder kernels, executed by the device
//! model.
//!
//! These functions execute the *exact parallel decomposition* of
//! Sec. V-C on host threads:
//!
//! * **gridder** — one thread block per work item; threads are mapped
//!   onto pixels (collapsed y/x loops); the visibility batch is staged
//!   into a shared-memory buffer bounded by the device's per-block
//!   shared capacity; every thread accumulates its pixel's four
//!   polarizations in registers and writes once at the end (coalesced);
//! * **degridder** — threads take two roles: in the *pixel role* they
//!   cooperatively produce a batch of corrected pixels (A-term sandwich,
//!   taper, geometry) in shared memory; in the *visibility role* each
//!   thread folds the staged batch into its visibility's register
//!   accumulators; the role switch repeats per pixel batch.
//!
//! Arithmetic uses `Accuracy::Fast` — the `--use_fast_math` analogue —
//! and accumulates in the same order as the reference kernels, so the
//! results are directly comparable (tests assert closeness to
//! `idg-kernels`' reference output).

use crate::device::Device;
use idg_kernels::buffers::{pixel_index, SubgridArray};
use idg_kernels::cache::{GeometryKey, KernelCache};
use idg_kernels::geometry::KernelGeometry;
use idg_kernels::KernelData;
use idg_math::{sincos, Accuracy};
use idg_obs::{KernelCounters, KernelStage};
use idg_perf::{degridder_counts, gridder_counts, OpCounts};
use idg_plan::WorkItem;
use idg_types::{Cf32, IdgError, Jones, Uvw, Visibility};
use rayon::prelude::*;

/// Bytes of one 4-pol complex-f32 quantity (visibility or pixel).
const BYTES_POL4: u64 = 32;
/// Bytes of one staged uvw coordinate (3 × f32).
const BYTES_UVW: u64 = 12;

/// One staged visibility in the gridder's shared buffer.
#[derive(Copy, Clone)]
struct SharedVis {
    uvw: Uvw,
    freq_scale: f32,
    pols: [Cf32; 4],
    phase_ref: f32, // reserved: per-channel φ-offset base (unused; offsets are per-pixel)
}

/// Per-thread gridder state, reused across work items (`for_each_init`):
/// register accumulators, per-item phase offsets and the shared-memory
/// staging buffer.
struct GridderScratch {
    regs: Vec<[Cf32; 4]>,
    offs: Vec<f32>,
    shared: Vec<SharedVis>,
}

/// Per-thread degridder state, reused across work items: register
/// accumulators plus the shared-memory pixel/geometry batch.
struct DegridderScratch {
    regs: Vec<[Cf32; 4]>,
    sh_pix: Vec<[Cf32; 4]>,
    sh_geo: Vec<(f32, f32, f32, f32)>,
}

/// Execute the gridder with the GPU thread-block mapping; returns the
/// operation counters of the launch, or a typed error when the launch
/// configuration is inconsistent with its inputs.
pub fn gridder_gpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    device: &Device,
    cache: &KernelCache,
) -> Result<OpCounts, IdgError> {
    idg_kernels::check_launch(data, items, Some(subgrids))?;

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let n2 = n * n;
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();
    let block_size = device.gridder_block_size;
    let batch_size = device.gridder_batch_size();
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| KernelGeometry::phase_scale(*f) as f32)
        .collect();

    // one thread block per work item; blocks are independent
    let mut tallies = vec![KernelCounters::default(); items.len()];
    items
        .par_iter()
        .zip(subgrids.as_mut_slice().par_chunks_exact_mut(4 * n2))
        .zip(tallies.par_iter_mut())
        .for_each_init(
            || GridderScratch {
                regs: Vec::new(),
                offs: Vec::new(),
                shared: Vec::new(),
            },
            |scr, ((item, subgrid), tally_slot)| {
                let (u0, v0, w0) = geom.subgrid_center_uvw(item);
                let base = item.baseline_index * nr_time + item.time_offset;
                let item_chan = item.nr_channels;
                let tc = item.nr_timesteps * item_chan;

                // Measured op tally for this block, incremented beside the
                // staging and inner sincos/accumulate loops with their real
                // trip counts; the uvw track is read once per timestep.
                // Stored per block and recorded once per launch (rayon
                // workers have no session to record into).
                let mut tally = KernelCounters {
                    invocations: 1,
                    dram_bytes: item.nr_timesteps as u64 * BYTES_UVW,
                    ..KernelCounters::default()
                };

                // "registers": per-pixel accumulators held across batches
                scr.regs.resize(n2, [Cf32::zero(); 4]);
                scr.regs[..n2].fill([Cf32::zero(); 4]);
                // per-item phase offsets (l/m/n come from the cached planes)
                scr.offs.resize(n2, 0.0);
                for i in 0..n2 {
                    scr.offs[i] = (2.0
                        * std::f64::consts::PI
                        * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]))
                        as f32;
                }

                // shared-memory staging buffer, capacity-limited
                let shared = &mut scr.shared;
                shared.clear();
                shared.reserve(batch_size.min(tc));

                let mut k0 = 0usize;
                while k0 < tc {
                    let k1 = (k0 + batch_size).min(tc);
                    // cooperative load + transpose into shared memory
                    shared.clear();
                    for k in k0..k1 {
                        let (dt, ci) = (k / item_chan, k % item_chan);
                        let c = item.channel_offset + ci;
                        shared.push(SharedVis {
                            uvw: data.uvw[base + dt],
                            freq_scale: scales[c],
                            pols: data.visibilities[(base + dt) * nr_chan + c].pols,
                            phase_ref: 0.0,
                        });
                    }
                    // each visibility is staged exactly once across batches
                    tally.visibilities += shared.len() as u64;
                    tally.dram_bytes += shared.len() as u64 * BYTES_POL4;

                    // __syncthreads(); threads iterate the staged batch
                    for tid in 0..block_size {
                        let mut i = tid;
                        while i < n2 {
                            let (l, m, nt, off) =
                                (planes.lf[i], planes.mf[i], planes.nf[i], scr.offs[i]);
                            let acc = &mut scr.regs[i];
                            for sv in shared.iter() {
                                let phase_index =
                                    sv.uvw.u.mul_add(l, sv.uvw.v.mul_add(m, sv.uvw.w * nt));
                                let phase = sv.freq_scale.mul_add(phase_index, -off) + sv.phase_ref;
                                let (s, c) = sincos(phase, Accuracy::Fast);
                                let phasor = Cf32::new(c, s);
                                for p in 0..4 {
                                    acc[p].mul_acc(phasor, sv.pols[p]);
                                }
                            }
                            tally.sincos_pairs += shared.len() as u64;
                            tally.fmas += 17 * shared.len() as u64; // phase + 4 cmul-acc
                            tally.shared_bytes += shared.len() as u64 * (BYTES_POL4 + BYTES_UVW);
                            i += block_size;
                        }
                    }
                    k0 = k1;
                }

                // epilogue: A-term sandwich + taper, coalesced store
                let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
                let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
                tally.dram_bytes += (ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4;
                for i in 0..n2 {
                    let (y, x) = (i / n, i % n);
                    let pix = Jones::from_pols(scr.regs[i]);
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
            },
        );
    idg_obs::add_kernel(KernelStage::Gridder, &tallies.iter().sum());

    Ok(gridder_counts(items, n))
}

/// Execute the degridder with the dual-role GPU mapping; returns the
/// operation counters of the launch, or a typed error when the launch
/// configuration is inconsistent with its inputs.
pub fn degridder_gpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    device: &Device,
    cache: &KernelCache,
) -> Result<OpCounts, IdgError> {
    idg_kernels::check_launch(data, items, Some(subgrids))?;
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
    let nr_chan = data.obs.nr_channels();
    let block_size = device.degridder_block_size;
    let batch_size = device.degridder_batch_size().min(n2);
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| KernelGeometry::phase_scale(*f) as f32)
        .collect();

    let mut tallies = vec![KernelCounters::default(); items.len()];
    let results: Vec<(&WorkItem, Vec<Visibility<f32>>)> = items
        .par_iter()
        .enumerate()
        .zip(tallies.par_iter_mut())
        .map_init(
            || DegridderScratch {
                regs: Vec::new(),
                sh_pix: Vec::new(),
                sh_geo: Vec::new(),
            },
            |scr, ((s_idx, item), tally_slot)| {
                let subgrid = subgrids.subgrid(s_idx);
                let (u0, v0, w0) = geom.subgrid_center_uvw(item);
                let base = item.baseline_index * nr_time + item.time_offset;
                let item_chan = item.nr_channels;
                let tc = item.nr_timesteps * item_chan;
                let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
                let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);

                // Measured op tally (see gridder_gpu). The uvw track and
                // both A-term planes are read once per item.
                let mut tally = KernelCounters {
                    invocations: 1,
                    dram_bytes: item.nr_timesteps as u64 * BYTES_UVW
                        + (ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4,
                    ..KernelCounters::default()
                };

                // "registers": per-visibility accumulators across batches
                scr.regs.resize(tc, [Cf32::zero(); 4]);
                scr.regs[..tc].fill([Cf32::zero(); 4]);
                // shared memory: one batch of corrected pixels + geometry
                scr.sh_pix.resize(batch_size, [Cf32::zero(); 4]);
                scr.sh_geo.resize(batch_size, (0.0, 0.0, 0.0, 0.0));

                let mut i0 = 0usize;
                while i0 < n2 {
                    let i1 = (i0 + batch_size).min(n2);
                    // pixel role: threads fill the shared batch (second
                    // mapping of Sec. V-C c: collapse y/x, apply Lines 2–3;
                    // l/m/n come from the cached planes)
                    for (slot, i) in (i0..i1).enumerate() {
                        let (y, x) = (i / n, i % n);
                        let off = (2.0
                            * std::f64::consts::PI
                            * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]))
                            as f32;
                        scr.sh_geo[slot] = (planes.lf[i], planes.mf[i], planes.nf[i], off);
                        let raw = Jones::from_pols([
                            subgrid[pixel_index(n, 0, y, x)],
                            subgrid[pixel_index(n, 1, y, x)],
                            subgrid[pixel_index(n, 2, y, x)],
                            subgrid[pixel_index(n, 3, y, x)],
                        ]);
                        scr.sh_pix[slot] = ap_plane[i]
                            .sandwich(raw, aq_plane[i])
                            .scale(data.taper[i])
                            .to_pols();
                    }
                    // each pixel is staged exactly once across batches
                    tally.dram_bytes += (i1 - i0) as u64 * BYTES_POL4;

                    // __syncthreads(); visibility role: each thread folds the
                    // batch into its visibilities (first mapping)
                    for tid in 0..block_size {
                        let mut k = tid;
                        while k < tc {
                            let (dt, ci) = (k / item_chan, k % item_chan);
                            let uvw_m = data.uvw[base + dt];
                            let scale = scales[item.channel_offset + ci];
                            let acc = &mut scr.regs[k];
                            for slot in 0..(i1 - i0) {
                                let (l, m, nt, off) = scr.sh_geo[slot];
                                let phase_index =
                                    uvw_m.u.mul_add(l, uvw_m.v.mul_add(m, uvw_m.w * nt));
                                let phase = (-scale).mul_add(phase_index, off);
                                let (s, cc) = sincos(phase, Accuracy::Fast);
                                let phasor = Cf32::new(cc, s);
                                for p in 0..4 {
                                    acc[p].mul_acc(phasor, scr.sh_pix[slot][p]);
                                }
                            }
                            tally.sincos_pairs += (i1 - i0) as u64;
                            tally.fmas += 17 * (i1 - i0) as u64; // phase + 4 cmul-acc
                            tally.shared_bytes += (i1 - i0) as u64 * (BYTES_POL4 + 16 + BYTES_UVW);
                            k += block_size;
                        }
                    }
                    i0 = i1;
                }

                // every register accumulator becomes one predicted visibility
                tally.visibilities += tc as u64;
                tally.dram_bytes += tc as u64 * BYTES_POL4;

                let out: Vec<Visibility<f32>> = scr.regs[..tc]
                    .iter()
                    .map(|pols| Visibility { pols: *pols })
                    .collect();
                *tally_slot = tally;
                (item, out)
            },
        )
        .collect();
    idg_obs::add_kernel(KernelStage::Degridder, &tallies.iter().sum());

    // scatter per (timestep, channel-group) — blocks are disjoint
    for (item, block) in results {
        let base = item.baseline_index * nr_time + item.time_offset;
        let item_chan = item.nr_channels;
        for dt in 0..item.nr_timesteps {
            let dst = (base + dt) * nr_chan + item.channel_offset;
            vis_out[dst..dst + item_chan]
                .copy_from_slice(&block[dt * item_chan..(dt + 1) * item_chan]);
        }
    }

    Ok(degridder_counts(items, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use idg_kernels::{degridder_reference, gridder_reference};
    use idg_plan::Plan;
    use idg_telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset(with_beam: bool) -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(24)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 41);
        let sky = SkyModel::random(&obs, 5, 0.6, 43);
        if with_beam {
            let beam = GaussianBeam::new(&obs, 0.8, 47);
            Dataset::simulate(obs, &layout, sky, &beam)
        } else {
            Dataset::simulate(obs, &layout, sky, &IdentityATerm)
        }
    }

    fn close_subgrids(a: &SubgridArray, b: &SubgridArray, tol: f32) {
        let scale = b.as_slice().iter().map(|c| c.abs()).fold(1.0f32, f32::max);
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((*x - *y).abs() / scale < tol, "pixel {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gpu_gridder_matches_reference_on_both_devices() {
        let ds = dataset(true);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");

        for device in [Device::pascal(), Device::fiji()] {
            let mut sim = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
            let counts =
                gridder_gpu(&data, &plan.items, &mut sim, &device, &KernelCache::new()).unwrap();
            close_subgrids(&sim, &gold, 5e-4);
            assert_eq!(counts.rho(), 17.0);
            assert!(counts.visibilities > 0);
        }
    }

    #[test]
    fn gpu_degridder_matches_reference() {
        let ds = dataset(true);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");

        let mut gold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_reference(&data, &plan.items, &subgrids, &mut gold).expect("kernel run");

        let device = Device::pascal();
        let mut sim = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let counts = degridder_gpu(
            &data,
            &plan.items,
            &subgrids,
            &mut sim,
            &device,
            &KernelCache::new(),
        )
        .unwrap();
        assert_eq!(counts.rho(), 17.0);

        let scale = gold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1.0f32, f32::max);
        for (i, (a, b)) in sim.iter().zip(&gold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 1e-3,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    #[test]
    fn small_shared_memory_still_correct() {
        // Force multiple batches per work item: shrink shared memory so
        // the staging loop runs several rounds.
        let ds = dataset(false);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut tiny = Device::pascal();
        tiny.shared_mem_per_block = 1024; // ~11 visibilities per batch
        assert!(tiny.gridder_batch_size() < 16);

        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        let mut sim = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_gpu(&data, &plan.items, &mut sim, &tiny, &KernelCache::new()).unwrap();
        close_subgrids(&sim, &gold, 5e-4);
    }

    #[test]
    fn counts_match_perf_formulas() {
        let ds = dataset(false);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut sg = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let counts = gridder_gpu(
            &data,
            &plan.items,
            &mut sg,
            &Device::pascal(),
            &KernelCache::new(),
        )
        .unwrap();
        let expect = idg_perf::gridder_counts(&plan.items, ds.obs.subgrid_size);
        assert_eq!(counts, expect);
    }

    /// The obs-measured counters (incremented at the real call sites)
    /// must equal the analytic model to the integer, for both kernels.
    #[test]
    fn measured_counters_match_analytic_model() {
        let ds = dataset(true);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let n = ds.obs.subgrid_size;
        let taper = idg_math::spheroidal_2d(n);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };

        let session = idg_obs::Session::begin("gridding");
        let mut sg = SubgridArray::new(plan.nr_subgrids(), n);
        gridder_gpu(
            &data,
            &plan.items,
            &mut sg,
            &Device::pascal(),
            &KernelCache::new(),
        )
        .unwrap();
        let mut vis = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_gpu(
            &data,
            &plan.items,
            &sg,
            &mut vis,
            &Device::pascal(),
            &KernelCache::new(),
        )
        .unwrap();
        let trace = session.finish();

        let g_expect = idg_perf::gridder_counts(&plan.items, n);
        let g = trace.metrics.gridder;
        assert_eq!(g.sincos_pairs, g_expect.sincos_pairs);
        assert_eq!(g.fmas, g_expect.fmas);
        assert_eq!(g.dram_bytes, g_expect.dram_bytes);
        assert_eq!(g.shared_bytes, g_expect.shared_bytes);
        assert_eq!(g.visibilities, g_expect.visibilities);
        assert_eq!(g.invocations, plan.items.len() as u64);

        let d_expect = idg_perf::degridder_counts(&plan.items, n);
        let d = trace.metrics.degridder;
        assert_eq!(d.sincos_pairs, d_expect.sincos_pairs);
        assert_eq!(d.fmas, d_expect.fmas);
        assert_eq!(d.dram_bytes, d_expect.dram_bytes);
        assert_eq!(d.shared_bytes, d_expect.shared_bytes);
        assert_eq!(d.visibilities, d_expect.visibilities);
    }
}
