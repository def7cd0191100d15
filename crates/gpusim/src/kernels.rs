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
//!   polarizations in registers and writes once at the end (coalesced).
//!   This is `idg-kernels`' one gridder body, [`pixel_lane_gridder`] —
//!   the host's `gridder_cpu` runs the same code at another batch length;
//! * **degridder** — threads take two roles: in the *pixel role* they
//!   cooperatively produce a batch of corrected pixels (A-term sandwich,
//!   taper, geometry) in shared memory; in the *visibility role* each
//!   thread folds the staged batch into its visibility's register
//!   accumulators; the role switch repeats per pixel batch.
//!
//! **Lanes are threads.** A GPU runs the threads of a block a warp at a
//! time, in lockstep: one instruction, [`LANES`] threads. The host does
//! the same with SIMD: a warp here is [`LANES`] consecutive threads whose
//! registers are the lanes of `[f32; LANES]` arrays — pixels in the
//! gridder, visibilities in the degridder. A warp loads its eight
//! accumulator planes (re/im × 4 polarisations), steps through the staged
//! batch broadcasting one shared-memory element at a time to all lanes
//! (phase, `sincos`, four complex FMAs per lane), and stores them back.
//! The last warp of a block may be partial; its dead lanes compute on
//! zeros, are never read back and count nothing.
//!
//! **The chain-order contracts (part of the output's bits).** Every
//! thread owns one accumulation chain and no two chains ever meet:
//!
//! * a gridder thread folds *all* visibilities of its work item into its
//!   pixel, in (timestep, channel) order (`idg_kernels::gridder`);
//! * a degridder thread folds *all* pixels of the subgrid into its
//!   visibility, in row-major pixel order;
//!
//! each step as `phase_index = u·l + (v·m + w·n)` and the phase `mul_add`
//! nested as written below, `sincos(phase, Accuracy::Fast)` — the
//! `--use_fast_math` analogue — then the four FMAs of `Cf32::mul_acc` per
//! polarisation in its order. Batch size only cuts a chain into
//! consecutive pieces that continue from the same register; block size
//! and warp width only decide which chains run side by side. So no launch
//! configuration, and no order of visiting warps, can move a bit — the
//! tests pin output hashes taken while threads still ran one at a time
//! and check them equal across devices. The results stay directly
//! comparable to the reference kernels (tests assert closeness to
//! `idg-kernels`' reference output).

use crate::device::Device;
use idg_kernels::buffers::{pixel_index, SubgridArray};
use idg_kernels::cache::{GeometryKey, KernelCache};
use idg_kernels::geometry::KernelGeometry;
use idg_kernels::gridder::{cmac, pixel_lane_gridder, thread_pols, LaneRegs, LANES};
use idg_kernels::{KernelData, BYTES_POL4, BYTES_UVW};
use idg_math::{sincos, Accuracy};
use idg_obs::{KernelCounters, KernelStage};
use idg_perf::{degridder_counts, gridder_counts, OpCounts};
use idg_plan::WorkItem;
use idg_types::{Cf32, IdgError, Jones, Visibility};
use rayon::prelude::*;

/// Per-worker degridder state, reused across work items.
#[derive(Default)]
struct DegridderScratch {
    /// Per warp of visibilities: the accumulators, held across batches.
    regs: Vec<LaneRegs<8>>,
    /// Per warp of visibilities: u, v, w and the channel's phase scale.
    vis: Vec<LaneRegs<4>>,
    /// Shared memory: one batch of corrected pixels and their geometry.
    sh_pix: Vec<[Cf32; 4]>,
    sh_geo: Vec<(f32, f32, f32, f32)>,
}

/// A launch needs a thread to run and shared memory for one staged
/// element: a zero block size would compute nothing and still report the
/// work done, a zero batch would never advance the staging loop.
pub(crate) fn check_device(device: &Device, gridding: bool) -> Result<(), IdgError> {
    let (block_field, block_size, staged, batch_size) = if gridding {
        let (block, batch) = (device.gridder_block_size, device.gridder_batch_size());
        ("gridder_block_size", block, "visibility", batch)
    } else {
        let (block, batch) = (device.degridder_block_size, device.degridder_batch_size());
        ("degridder_block_size", block, "pixel", batch)
    };
    if block_size == 0 {
        return Err(IdgError::InvalidParameter(format!(
            "device {block_field} is zero: a thread block needs a thread"
        )));
    }
    if batch_size == 0 {
        return Err(IdgError::InvalidParameter(format!(
            "device shared_mem_per_block = {} bytes is too small for one staged {staged}",
            device.shared_mem_per_block
        )));
    }
    Ok(())
}

/// Execute the gridder with the GPU thread-block mapping —
/// [`pixel_lane_gridder`] staging what the device's shared memory holds,
/// at the fast-math sincos; returns the operation counters of the launch,
/// or a typed error when the launch configuration is inconsistent with
/// its inputs.
pub fn gridder_gpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    device: &Device,
    cache: &KernelCache,
) -> Result<OpCounts, IdgError> {
    check_device(device, true)?;
    let batch_size = device.gridder_batch_size();
    let tally = pixel_lane_gridder(data, items, subgrids, batch_size, Accuracy::Fast, cache)?;
    idg_obs::add_kernel(KernelStage::Gridder, &tally);
    Ok(gridder_counts(items, data.obs.subgrid_size))
}

/// Execute the degridder with the dual-role GPU mapping; returns the
/// operation counters of the launch, or a typed error when the launch
/// configuration is inconsistent with its inputs.
///
/// Each visibility's value is one chain over all pixels of its subgrid
/// in row-major order — see the module doc.
pub fn degridder_gpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    device: &Device,
    cache: &KernelCache,
) -> Result<OpCounts, IdgError> {
    idg_kernels::check_launch(data, items, Some(subgrids))?;
    check_device(device, false)?;
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
            DegridderScratch::default,
            |scr, ((s_idx, item), tally_slot)| {
                let subgrid = subgrids.subgrid(s_idx);
                let (u0, v0, w0) = geom.subgrid_center_uvw(item);
                let base = item.baseline_index * nr_time + item.time_offset;
                let item_chan = item.nr_channels;
                let tc = item.nr_timesteps * item_chan;
                let nr_warps = tc.div_ceil(LANES);
                let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
                let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);

                // Measured op tally (see `pixel_lane_gridder`). The uvw track and
                // both A-term planes are read once per item.
                let mut tally = KernelCounters {
                    invocations: 1,
                    dram_bytes: item.nr_timesteps as u64 * BYTES_UVW
                        + (ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4,
                    ..KernelCounters::default()
                };

                // "registers": per-visibility accumulators across batches
                scr.regs.clear();
                scr.regs.resize(nr_warps, [[0.0; LANES]; 8]);
                // each thread's visibility coordinates, loaded once per
                // item; dead lanes stay zero
                scr.vis.clear();
                scr.vis.resize(nr_warps, [[0.0; LANES]; 4]);
                for k in 0..tc {
                    let (dt, ci) = (k / item_chan, k % item_chan);
                    let uvw_m = data.uvw[base + dt];
                    let (vis, lane) = (&mut scr.vis[k / LANES], k % LANES);
                    vis[0][lane] = uvw_m.u;
                    vis[1][lane] = uvw_m.v;
                    vis[2][lane] = uvw_m.w;
                    vis[3][lane] = scales[item.channel_offset + ci];
                }
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

                    // __syncthreads(); visibility role: every warp of
                    // threads folds the batch into its visibilities (first
                    // mapping), one broadcast pixel per step
                    let (sh_geo, sh_pix) = (&scr.sh_geo[..i1 - i0], &scr.sh_pix[..i1 - i0]);
                    for (warp, (regs, vis)) in scr.regs.iter_mut().zip(&scr.vis).enumerate() {
                        let [u, v, w, scale] = vis;
                        // eight named arrays (see `idg_kernels::gridder`)
                        let [mut a0r, mut a0i, mut a1r, mut a1i, mut a2r, mut a2i, mut a3r, mut a3i] =
                            *regs;
                        for (&(l, m, nt, off), &[q0, q1, q2, q3]) in sh_geo.iter().zip(sh_pix) {
                            for lane in 0..LANES {
                                let phase_index =
                                    u[lane].mul_add(l, v[lane].mul_add(m, w[lane] * nt));
                                let phase = (-scale[lane]).mul_add(phase_index, off);
                                let (s, c) = sincos(phase, Accuracy::Fast);
                                let phasor = Cf32::new(c, s);
                                cmac(&mut a0r[lane], &mut a0i[lane], phasor, q0);
                                cmac(&mut a1r[lane], &mut a1i[lane], phasor, q1);
                                cmac(&mut a2r[lane], &mut a2i[lane], phasor, q2);
                                cmac(&mut a3r[lane], &mut a3i[lane], phasor, q3);
                            }
                        }
                        *regs = [a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i];
                        // the threads that exist, each over the whole batch
                        let pairs = (LANES.min(tc - warp * LANES) * (i1 - i0)) as u64;
                        tally.sincos_pairs += pairs;
                        tally.fmas += 17 * pairs; // phase + 4 cmul-acc
                        tally.shared_bytes += pairs * (BYTES_POL4 + 16 + BYTES_UVW);
                    }
                    i0 = i1;
                }

                // every register accumulator becomes one predicted visibility
                tally.visibilities += tc as u64;
                tally.dram_bytes += tc as u64 * BYTES_POL4;

                let out: Vec<Visibility<f32>> = (0..tc)
                    .map(|k| Visibility {
                        pols: thread_pols(&scr.regs, k),
                    })
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

    /// `Device`'s launch fields are public, so a launch that cannot run
    /// must come back as a typed error naming the field: a zero batch used
    /// to spin in the staging loop forever, a zero block size to return
    /// all-zero output as done. On a helper thread under a deadline, so a
    /// regression fails instead of hanging the suite.
    #[test]
    fn a_device_that_cannot_launch_is_rejected_not_run() {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let ds = dataset(false);
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
            // a PASCAL with (shared memory, gridder block, degridder block)
            let pascal_with = |shared, gridder_block, degridder_block| {
                let mut device = Device::pascal();
                device.shared_mem_per_block = shared;
                device.gridder_block_size = gridder_block;
                device.degridder_block_size = degridder_block;
                device
            };
            // (the field the error names, the device, refused by the
            // gridder, refused by the degridder): 180 bytes hold one
            // staged visibility (176) but not one staged pixel (192)
            let cases = [
                (
                    "shared_mem_per_block",
                    pascal_with(128, 192, 128),
                    true,
                    true,
                ),
                (
                    "shared_mem_per_block",
                    pascal_with(180, 192, 128),
                    false,
                    true,
                ),
                (
                    "gridder_block_size",
                    pascal_with(48 << 10, 0, 128),
                    true,
                    false,
                ),
                (
                    "degridder_block_size",
                    pascal_with(48 << 10, 192, 0),
                    false,
                    true,
                ),
            ];
            let cache = KernelCache::new();
            let model = idg_types::Grid::<f32>::new(ds.obs.grid_size);
            for (field, device, no_gridder, no_degridder) in cases {
                let exec = crate::GpuExecutor::new(device.clone(), 4);
                let mut subgrids = SubgridArray::new(plan.nr_subgrids(), n);
                let mut vis = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
                let gridder = gridder_gpu(&data, &plan.items, &mut subgrids, &device, &cache);
                let degridder =
                    degridder_gpu(&data, &plan.items, &subgrids, &mut vis, &device, &cache);
                for (what, result, refused) in [
                    ("gridder_gpu", gridder.map(drop), no_gridder),
                    (
                        "GpuExecutor::grid",
                        exec.grid(&data, &plan).map(drop),
                        no_gridder,
                    ),
                    ("degridder_gpu", degridder.map(drop), no_degridder),
                    (
                        "GpuExecutor::degrid",
                        exec.degrid(&data, &plan, &model).map(drop),
                        no_degridder,
                    ),
                ] {
                    match result {
                        Err(IdgError::InvalidParameter(msg)) if refused => {
                            assert!(msg.contains(field), "{what}: {msg} does not name {field}");
                        }
                        Ok(()) if !refused => {}
                        other => panic!("{what} with a degenerate {field}: {other:?}"),
                    }
                }
            }
            let _ = tx.send(());
        });
        let done = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_ne!(
            done,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "a degenerate device hung the launch"
        );
        handle.join().expect("rejection checks panicked");
    }

    /// A seeded 6-station observation with `channels` channels and one
    /// A-term slot per `slot` of its `2·slot` (at least 16) timesteps, so
    /// a work item stages at most `slot · channels` visibilities.
    fn shaped(channels: usize, slot: usize, subgrid: usize, with_beam: bool) -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps((2 * slot).max(16))
            .channels(channels, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(subgrid)
            .kernel_size(5)
            .aterm_interval(slot)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 17 + channels as u64);
        let sky = SkyModel::random(&obs, 5, 0.6, 23 + subgrid as u64);
        if with_beam {
            let beam = GaussianBeam::new(&obs, 0.8, 31);
            Dataset::simulate(obs, &layout, sky, &beam)
        } else {
            Dataset::simulate(obs, &layout, sky, &IdentityATerm)
        }
    }

    /// The shapes the bit pins run on. Between them: Gaussian-beam and
    /// identity A-terms; pixel counts that are and are not a multiple of
    /// a warp (18² = 324); visibility counts per item that are not
    /// (5 × 13, 7 × 13, 3 × 13) and one below a single warp (1 × 8).
    fn pinned_shapes() -> [(&'static str, Dataset); 6] {
        [
            ("beam, 4 ch x 8 steps, 16^2", shaped(4, 8, 16, true)),
            ("identity, 5 ch x 13 steps, 18^2", shaped(5, 13, 18, false)),
            ("beam, 8 ch x 12 steps, 20^2", shaped(8, 12, 20, true)),
            ("identity, 3 ch x 13 steps, 24^2", shaped(3, 13, 24, false)),
            ("identity, 1 ch x 8 steps, 16^2", shaped(1, 8, 16, false)),
            ("beam, 7 ch x 13 steps, 18^2", shaped(7, 13, 18, true)),
        ]
    }

    /// The paper's two launch configurations plus a PASCAL whose shared
    /// memory holds five staged visibilities or pixels, so every item
    /// runs many batches.
    fn launch_configurations() -> [Device; 3] {
        let mut tiny = Device::pascal();
        tiny.shared_mem_per_block = 1024;
        assert_eq!(tiny.gridder_batch_size(), 5);
        assert_eq!(tiny.degridder_batch_size(), 5);
        [Device::pascal(), Device::fiji(), tiny]
    }

    /// FNV-1a over the bit patterns of a complex buffer.
    fn fnv(values: impl Iterator<Item = Cf32>) -> u64 {
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

    /// Output hashes of one shape on one device: `gridder_gpu`'s subgrid
    /// array, then `degridder_gpu`'s visibility buffer predicted from the
    /// *reference* gridder's subgrids (so a gridder change cannot hide
    /// behind a degridder one).
    fn output_hashes(ds: &Dataset, device: &Device) -> [u64; 2] {
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
        let cache = KernelCache::new();
        let mut gridded = SubgridArray::new(plan.nr_subgrids(), n);
        gridder_gpu(&data, &plan.items, &mut gridded, device, &cache).unwrap();
        let mut gold = SubgridArray::new(plan.nr_subgrids(), n);
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        let mut predicted = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_gpu(&data, &plan.items, &gold, &mut predicted, device, &cache).unwrap();
        [
            fnv(gridded.as_slice().iter().copied()),
            fnv(predicted.iter().flat_map(|v| v.pols)),
        ]
    }

    #[test]
    fn device_kernel_outputs_are_pinned_to_the_bit() {
        // [gridder, degridder] hashes per shape. The constants were
        // computed on the parent commit (4c1abf0, one thread at a time,
        // scalar sincos, AoS accumulators) before the inner loops were
        // rewritten to run a warp in lockstep: a tolerance test cannot see
        // a changed summation order, these can. One batch per item
        // (PASCAL) and many (five staged elements) must both hit them.
        let pinned: [[u64; 2]; 6] = [
            [0x0c43_7c7a_f317_0fc1, 0x54d3_ed09_aa9c_9965],
            [0x8f6d_7ad3_e734_9e55, 0x1cd2_33a1_fcef_3629],
            [0x06f3_b2ea_131c_a435, 0x2ac5_52dd_356e_d779],
            [0xbfdf_423d_e8bb_2995, 0xa999_cdec_51fc_7e81],
            [0x428f_0a66_209c_a6cd, 0x159b_f22c_1f45_834d],
            [0xce46_0676_236c_7c49, 0x6e7a_3c3b_8042_4f6d],
        ];
        let [pascal, _, tiny] = launch_configurations();
        for ((name, ds), want) in pinned_shapes().iter().zip(pinned) {
            assert_eq!(output_hashes(ds, &pascal), want, "{name}, one batch");
            assert_eq!(output_hashes(ds, &tiny), want, "{name}, many batches");
        }
    }

    /// One gridder body under both wrappers: the host's `gridder_cpu` at
    /// the device's sincos accuracy equals `gridder_gpu` bit for bit on
    /// every launch configuration — the staged-batch length (512 on the
    /// host; 279, 372 and 5 here) does not reach the bits through either.
    #[test]
    fn host_and_device_gridders_are_one_body() {
        for (name, ds) in &pinned_shapes() {
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
            let cache = KernelCache::new();
            let mut host = SubgridArray::new(plan.nr_subgrids(), n);
            idg_kernels::gridder_cpu(&data, &plan.items, &mut host, Accuracy::Fast, &cache)
                .expect("kernel run");
            for device in launch_configurations() {
                let mut sim = SubgridArray::new(plan.nr_subgrids(), n);
                gridder_gpu(&data, &plan.items, &mut sim, &device, &cache).unwrap();
                assert_eq!(
                    fnv(host.as_slice().iter().copied()),
                    fnv(sim.as_slice().iter().copied()),
                    "{name}: batch of {}",
                    device.gridder_batch_size()
                );
            }
        }
    }

    /// Batch and block size only regroup chains that never meet — each
    /// pixel's sum over the item's visibilities, each visibility's sum
    /// over the subgrid's pixels — so no launch configuration can move a
    /// bit. This is the property that lets a warp run in lockstep.
    #[test]
    fn output_bits_do_not_depend_on_the_launch_configuration() {
        let [pascal, fiji, tiny] = launch_configurations();
        for (name, ds) in &pinned_shapes() {
            let want = output_hashes(ds, &pascal);
            assert_eq!(output_hashes(ds, &fiji), want, "{name}: FIJI");
            assert_eq!(output_hashes(ds, &tiny), want, "{name}: 1 KiB shared");
        }
    }
}
