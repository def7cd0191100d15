//! The traced run: every layer timed from outside, in pipeline order.
//!
//! Each repetition wraps calls into the layers' existing public
//! functions in spans of the benchmark's own recorder: the three kernel
//! calls of a grid and of a degrid pass (the body of `Proxy::grid` /
//! `Proxy::degrid` replayed), the imaging step (for `major_cycle` the
//! body of `ImagingCycle::run` replayed from the public `idg-imaging`
//! functions) and, on `device_stream`, the device-model, fleet and
//! streamed passes. The same passes run untraced in the same
//! repetitions, which gives the denominators of the `core.*`, `obs.*`
//! and `trace.*` ratios. A per-layer time is the median over the
//! repetitions of the layer's summed span durations.

use crate::json::Json;
use crate::metrics::Values;
use crate::run::{closing_checks, Outcome, Tally};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{rms_descends, same_vis, simulate, timed, Bench, Kind, CLEAN, MAJOR_CYCLES};
use idg::fft::{Direction, Fft2d};
use idg::kernels::{
    add_subgrids, degridder_cpu, fft_subgrids, gridder_cpu, split_subgrids, FftNorm, KernelData,
    SubgridArray,
};
use idg::math::{sincos_batch, Accuracy};
use idg::perf::{degridder_counts, gridder_counts};
use idg::{Backend, ExecutionReport, Grid, IdgError, Plan, Proxy, Visibility};
use idg_imaging::clean::components_to_image;
use idg_imaging::{dirty_image, hogbom_clean, model_grid_from_image, psf_image, CleanComponent};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Repetitions of the traced pipeline (and of its untraced twin): at
/// least 3, otherwise as many as fit in `--seconds`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;

/// The body of `Proxy::grid` on the CPU back-end, layer by layer.
fn layered_grid(rec: &mut Recorder, host: &Proxy, bench: &Bench) -> Result<Grid<f32>, IdgError> {
    let ds = &bench.ds;
    let items = &bench.plan.items;
    rec.span("core.grid", |rec| {
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: host.taper(),
        };
        let cache = host.kernel_cache();
        let mut subgrids = SubgridArray::new(items.len(), ds.obs.subgrid_size);
        rec.span("kernels.gridder", |_| {
            gridder_cpu(&data, items, &mut subgrids, Accuracy::Medium, cache)
        })?;
        rec.span("kernels.subgrid_fft", |_| {
            fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
        });
        let mut grid = Grid::<f32>::new(ds.obs.grid_size);
        rec.span("kernels.adder", |_| {
            add_subgrids(&mut grid, items, &subgrids, cache)
        })?;
        Ok(grid)
    })
}

/// The body of `Proxy::degrid` on the CPU back-end, layer by layer.
fn layered_degrid(
    rec: &mut Recorder,
    host: &Proxy,
    bench: &Bench,
    grid: &Grid<f32>,
) -> Result<Vec<Visibility<f32>>, IdgError> {
    let ds = &bench.ds;
    let items = &bench.plan.items;
    rec.span("core.degrid", |rec| {
        let zeros = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &zeros,
            aterms: &ds.aterms,
            taper: host.taper(),
        };
        let cache = host.kernel_cache();
        let mut subgrids = SubgridArray::new(items.len(), ds.obs.subgrid_size);
        rec.span("kernels.splitter", |_| {
            split_subgrids(grid, items, &mut subgrids, cache)
        })?;
        rec.span("kernels.subgrid_ifft", |_| {
            fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        });
        let mut vis = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        rec.span("kernels.degridder", |_| {
            degridder_cpu(&data, items, &subgrids, &mut vis, Accuracy::Medium, cache)
        })?;
        Ok(vis)
    })
}

/// The body of `ImagingCycle::run`, call by call. Returns the residual
/// rms per cycle and the number of CLEAN components, which must equal
/// the library's own.
fn replayed_cycle(rec: &mut Recorder, bench: &Bench) -> Result<(Vec<f64>, usize), IdgError> {
    let ds = &bench.ds;
    let (proxy, plan, obs) = (&bench.proxy, &bench.plan, &ds.obs);
    let weight = plan.nr_gridded_visibilities();
    // `psf_image` runs its own grid pass, which cannot be split off from
    // outside; `imaging.self_s` charges it at this run's median pass.
    let psf = rec.span("imaging.psf", |_| {
        psf_image(proxy, plan, &ds.uvw, &ds.aterms)
    })?;
    let mut components: Vec<CleanComponent> = Vec::new();
    let mut residual_vis = ds.visibilities.clone();
    let mut residual_rms = Vec::new();
    for _ in 0..MAJOR_CYCLES {
        let (grid, _) = rec.span("core.proxy_grid", |_| {
            proxy.grid(plan, &ds.uvw, &residual_vis, &ds.aterms)
        })?;
        let mut working = rec.span("imaging.dirty_image", |_| dirty_image(&grid, obs, weight));
        residual_rms.push(working.rms_inner(0.1));
        let found = rec.span("imaging.clean", |_| {
            hogbom_clean(&mut working, &psf, &CLEAN)
        });
        if found.is_empty() {
            break;
        }
        for c in found {
            match components.iter_mut().find(|e| e.x == c.x && e.y == c.y) {
                Some(existing) => existing.flux += c.flux,
                None => components.push(c),
            }
        }
        let model_grid = rec.span("imaging.model_grid", |_| {
            model_grid_from_image(&components_to_image(&components, obs.grid_size), obs)
        });
        let (predicted, _) = rec.span("core.proxy_degrid", |_| {
            proxy.degrid(plan, &model_grid, &ds.uvw, &ds.aterms)
        })?;
        residual_vis = ds
            .visibilities
            .iter()
            .zip(&predicted)
            .map(|(d, p)| d.sub(*p))
            .collect();
    }
    let (grid, _) = rec.span("core.proxy_grid", |_| {
        proxy.grid(plan, &ds.uvw, &residual_vis, &ds.aterms)
    })?;
    let residual = rec.span("imaging.dirty_image", |_| dirty_image(&grid, obs, weight));
    residual_rms.push(residual.rms_inner(0.1));
    Ok((residual_rms, components.len()))
}

/// `sincos_batch` at `Accuracy::Medium` on 512-element batches, one
/// thread, for about 0.2 s: the per-thread sincos ceiling of this host,
/// in 10⁹ pairs per second.
fn sincos_ceiling() -> f64 {
    let xs: Vec<f32> = (0..512).map(|i| (i as f32) * 19.37 - 4000.0).collect();
    let (mut sin, mut cos) = (vec![0.0f32; 512], vec![0.0f32; 512]);
    let started = Instant::now();
    let mut batches = 0u64;
    while started.elapsed().as_secs_f64() < 0.2 {
        for _ in 0..256 {
            sincos_batch(
                std::hint::black_box(&xs),
                &mut sin,
                &mut cos,
                Accuracy::Medium,
            );
            std::hint::black_box((&sin, &cos));
        }
        batches += 256;
    }
    (batches * 512) as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// Median wall of the workload's grid entry point with the process
/// pinned to one CPU (`taskset -c`, so `available_parallelism()` is 1):
/// the single-threaded baseline. `Err` carries the reason it could not
/// be measured (no `taskset`, no allowed-CPU list).
fn pinned_grid_s(exe: &Path, kind: Kind, seed: u64) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| {
            let first = list.trim().split([',', '-']).next()?;
            first.parse::<u32>().ok()
        })
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let output = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(["--pinned-grid", "--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !output.status.success() {
        return Err(format!("pinned child exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("pinned_grid_s "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| "pinned child printed no result".to_string())
}

/// The pinned child's side of [`pinned_grid_s`].
pub fn pinned_child(kind: Kind, seed: u64) -> Result<(), IdgError> {
    let (bench, _) = Bench::warmed_up(kind, seed)?;
    let mut secs = Vec::new();
    for _ in 0..MIN_REPS {
        let (grid, s) = timed(|| bench.grid());
        grid?;
        secs.push(s);
    }
    println!("pinned_grid_s {}", median(&secs));
    Ok(())
}

/// The traced run of one workload. Returns the per-layer values and the
/// Chrome trace.
pub fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    exe: &Path,
) -> Result<(Outcome, Json), IdgError> {
    let (bench, warm_grid) = Bench::warmed_up(kind, seed)?;
    // lookups of the set-up's cold grid + degrid pass
    let (cold_hits, cold_misses) = {
        let cache = bench.proxy.kernel_cache();
        (cache.hits(), cache.misses())
    };
    let ds = &bench.ds;
    let plan = &bench.plan;

    // The CPU proxy whose pass the kernel layers replay: the workload's
    // own, or on `device_stream` a warmed-up `CpuOptimized` twin.
    let twin;
    let host = if bench.stream.is_some() {
        twin = Proxy::new(Backend::CpuOptimized, ds.obs.clone())?;
        let (grid, _) = twin.grid(plan, &ds.uvw, &ds.visibilities, &ds.aterms)?;
        twin.degrid(plan, &grid, &ds.uvw, &ds.aterms)?;
        &twin
    } else {
        &bench.proxy
    };
    let single = Proxy::new(Backend::GpuPascal, ds.obs.clone())?;

    let mut rec = Recorder::new(kind.name());
    let mut tally = Tally::default();
    let (mut pass_grid_s, mut pass_degrid_s, mut cycle_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut clean_components = 0;
    let mut stream_report: Option<ExecutionReport> = None;
    let mut fleet_report: Option<ExecutionReport> = None;
    let mut sincos_measured = 0u64;

    let started = Instant::now();
    for rep in 0..MAX_REPS {
        if rep >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        rec.begin_rep(rep);

        // untraced twins of the traced passes below
        let pass = tally.op(
            "Proxy::grid",
            || host.grid(plan, &ds.uvw, &ds.visibilities, &ds.aterms),
            |_| true,
        );
        let pass_grid = pass.map(|((grid, _), secs)| {
            pass_grid_s.push(secs);
            grid
        });
        let pass = tally.op(
            "Proxy::degrid",
            || host.degrid(plan, &warm_grid, &ds.uvw, &ds.aterms),
            |_| true,
        );
        let pass_vis = pass.map(|((vis, _), secs)| {
            pass_degrid_s.push(secs);
            vis
        });

        // inputs
        rec.span("telescope.simulate", |_| simulate(kind, seed))?;
        rec.span("plan.create", |_| Plan::create(&ds.obs, &ds.uvw))?;

        // kernel layers of one grid and one degrid pass
        let grid = layered_grid(&mut rec, host, &bench)?;
        tally.check(
            "layered grid pass bit-identical to Proxy::grid",
            pass_grid.is_some_and(|g| g.as_slice() == grid.as_slice()),
        );
        let vis = layered_degrid(&mut rec, host, &bench, &warm_grid)?;
        tally.check(
            "layered degrid pass bit-identical to Proxy::degrid",
            pass_vis.is_some_and(|p| same_vis(&p, &vis)),
        );

        // one grid-sized FFT, planned per call as `dirty_image` does
        let mut plane = grid.plane(0).to_vec();
        rec.span("fft.grid_fft", |_| {
            Fft2d::<f32>::new(ds.obs.grid_size).process_grid(&mut plane, Direction::Inverse);
        });
        // free the pass outputs before the imaging step allocates its own
        drop((grid, vis, plane));

        // time to image
        if kind == Kind::MajorCycle {
            let cycle = tally.op(
                "ImagingCycle::run",
                || bench.cycle(),
                |report| rms_descends(&report.residual_rms),
            );
            let (rms, components) =
                rec.span("imaging.time_to_image", |rec| replayed_cycle(rec, &bench))?;
            clean_components = components;
            tally.check(
                "replayed cycle reproduces ImagingCycle::run",
                cycle.is_some_and(|(report, secs)| {
                    cycle_s.push(secs);
                    report.residual_rms == rms && report.components.len() == components
                }),
            );
        } else {
            rec.span("imaging.time_to_image", |rec| {
                let grid = rec.span("core.proxy_grid", |_| bench.grid())?;
                rec.span("imaging.dirty_image", |_| bench.dirty(&grid));
                Ok::<(), IdgError>(())
            })?;
        }

        // the layers added on top of the paper's: device model, fleet,
        // stream scheduler
        if let Some(cfg) = &bench.stream {
            rec.span("gpusim.grid", |_| {
                single.grid(plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            })?;
            rec.span("gpusim.degrid", |_| {
                single.degrid(plan, &warm_grid, &ds.uvw, &ds.aterms)
            })?;
            let (_, report) = rec.span("gpusim.fleet2_grid", |_| {
                bench
                    .proxy
                    .grid(plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            })?;
            fleet_report = Some(report);
            let (_, report) = rec.span("stream.grid", |_| {
                bench
                    .proxy
                    .grid_streamed(cfg, &ds.uvw, &ds.visibilities, &ds.aterms)
            })?;
            stream_report = Some(report);
            rec.span("stream.degrid", |_| bench.degrid(&warm_grid))?;
        }

        // the same grid entry point under an `idg-obs` session
        let report = rec.span("obs.grid_observed", |_| match &bench.stream {
            Some(cfg) => {
                bench
                    .proxy
                    .grid_streamed_observed(cfg, &ds.uvw, &ds.visibilities, &ds.aterms)
            }
            None => bench
                .proxy
                .grid_observed(plan, &ds.uvw, &ds.visibilities, &ds.aterms),
        });
        match report {
            Ok((_, report, _)) => {
                sincos_measured = report.metrics.map_or(0, |m| m.pass_kernel().sincos_pairs);
            }
            Err(e) => tally.check(&format!("observed grid pass: {e}"), false),
        }
    }

    let layer = |name: &str| median(&rec.rep_totals(name));
    let mut v = Values::default();

    // telescope, plan
    v.set("telescope.simulate_s", layer("telescope.simulate"));
    v.set("plan.create_s", layer("plan.create"));
    v.set("plan.subgrids", plan.nr_subgrids() as f64);
    v.set(
        "plan.vis_per_subgrid",
        bench.nr_vis() / plan.nr_subgrids().max(1) as f64,
    );
    v.set(
        "plan.gridded_frac",
        bench.nr_vis() / ds.obs.nr_visibilities() as f64,
    );

    // kernels
    let (gridder_s, degridder_s) = (layer("kernels.gridder"), layer("kernels.degridder"));
    v.set("kernels.gridder_s", gridder_s);
    v.set("kernels.degridder_s", degridder_s);
    v.set("kernels.subgrid_fft_s", layer("kernels.subgrid_fft"));
    v.set("kernels.subgrid_ifft_s", layer("kernels.subgrid_ifft"));
    v.set("kernels.adder_s", layer("kernels.adder"));
    v.set("kernels.splitter_s", layer("kernels.splitter"));
    let counts = gridder_counts(&plan.items, ds.obs.subgrid_size);
    let degrid_counts = degridder_counts(&plan.items, ds.obs.subgrid_size);
    v.set("kernels.gridder_sincos", counts.sincos_pairs as f64);
    v.set("kernels.gridder_fma", counts.fmas as f64);
    // computed from the analytic byte count, not measured traffic
    v.set("kernels.gridder_ops_per_byte", counts.intensity_dram());
    let gridder_rate = counts.sincos_pairs as f64 / gridder_s / 1e9;
    v.set("kernels.gridder_gsincos_per_s", gridder_rate);
    v.set(
        "kernels.degridder_gsincos_per_s",
        degrid_counts.sincos_pairs as f64 / degridder_s / 1e9,
    );
    let ceiling = sincos_ceiling();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    v.set("math.sincos_gpairs_per_s", ceiling);
    v.set(
        "kernels.gridder_sincos_ceiling_frac",
        gridder_rate / (threads as f64 * ceiling),
    );

    // fft, imaging
    v.set("fft.grid_fft_s", layer("fft.grid_fft"));
    v.set("imaging.psf_s", layer("imaging.psf"));
    v.set("imaging.dirty_image_s", layer("imaging.dirty_image"));
    v.set("imaging.clean_s", layer("imaging.clean"));
    v.set("imaging.model_grid_s", layer("imaging.model_grid"));
    v.set("imaging.clean_components", clean_components as f64);
    let proxy_grid_calls = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.proxy_grid")
        .map(|s| s.duration())
        .collect::<Vec<_>>();
    let psf_inner_pass = if kind == Kind::MajorCycle {
        median(&proxy_grid_calls)
    } else {
        0.0
    };
    v.set(
        "imaging.self_s",
        layer("imaging.time_to_image")
            - layer("core.proxy_grid")
            - layer("core.proxy_degrid")
            - psf_inner_pass,
    );

    // core: the pass around the kernel layers
    let (pass_grid, pass_degrid) = (median(&pass_grid_s), median(&pass_degrid_s));
    let grid_layers = gridder_s + layer("kernels.subgrid_fft") + layer("kernels.adder");
    let degrid_layers = degridder_s + layer("kernels.subgrid_ifft") + layer("kernels.splitter");
    v.set("core.grid_pass_s", pass_grid);
    v.set("core.degrid_pass_s", pass_degrid);
    v.set("core.layers_sum_frac", grid_layers / pass_grid);
    v.set("core.grid_self_s", pass_grid - grid_layers);
    v.set("core.degrid_self_s", pass_degrid - degrid_layers);

    // gpusim, stream: `device_stream` only
    let mut entry_grid = pass_grid;
    if let (Some(stream), Some(fleet)) = (&stream_report, &fleet_report) {
        let (single_grid, fleet_grid) = (layer("gpusim.grid"), layer("gpusim.fleet2_grid"));
        entry_grid = layer("stream.grid");
        v.set("gpusim.grid_wall_s", single_grid);
        v.set("gpusim.degrid_wall_s", layer("gpusim.degrid"));
        v.set("gpusim.sim_overhead_x", single_grid / pass_grid);
        v.set("gpusim.fleet2_grid_wall_s", fleet_grid);
        v.set("gpusim.fleet_overhead_x", fleet_grid / single_grid);
        // modeled by the device model, not measured
        v.set("gpusim.modeled_makespan_s", fleet.total_seconds);
        v.set("gpusim.retries", stream.nr_retries as f64);
        v.set("gpusim.fallback_jobs", stream.fallback_jobs.len() as f64);
        v.set(
            "gpusim.redispatched_jobs",
            stream.fleet.as_ref().map_or(0, |f| f.redispatched_jobs) as f64,
        );
        v.set("stream.grid_wall_s", entry_grid);
        v.set("stream.degrid_wall_s", layer("stream.degrid"));
        v.set("stream.overhead_x", entry_grid / fleet_grid);
        if let Some(stats) = &stream.stream {
            v.set("stream.chunks", stats.nr_chunks as f64);
            v.set("stream.backpressure_waits", stats.backpressure_waits as f64);
            v.set("stream.failed_chunks", stats.failed_chunks as f64);
            tally.check("no failed chunk", stats.failed_chunks == 0);
        }
        tally.check(
            "clean device run: no retry, fallback or re-dispatch",
            stream.nr_retries == 0 && stream.fallback_jobs.is_empty(),
        );
    }

    // rayon: parallel speed-up over the one-CPU baseline
    match pinned_grid_s(exe, kind, seed) {
        Ok(pinned) => v.set("rayon.parallel_speedup", pinned / entry_grid),
        Err(reason) => eprintln!("rayon.parallel_speedup: not measured ({reason}); reads 0"),
    }

    // obs: cost when on, and the counter contract
    v.set("obs.on_overhead_x", layer("obs.grid_observed") / entry_grid);
    v.set("obs.sincos_measured", sincos_measured as f64);
    tally.check(
        "obs.sincos_measured equals kernels.gridder_sincos",
        sincos_measured == counts.sincos_pairs,
    );

    // trace: replaying a pass from outside against the pass itself
    let mut traced_s = layer("core.grid") + layer("core.degrid");
    let mut untraced_s = pass_grid + pass_degrid;
    if kind == Kind::MajorCycle {
        traced_s += layer("imaging.time_to_image");
        untraced_s += median(&cycle_s);
    }
    v.set("trace.overhead_frac", traced_s / untraced_s - 1.0);

    let (grid_err, degrid_err) = closing_checks(&bench, &warm_grid, cold_misses, &mut tally)?;
    v.set("kernels.gridder_rel_err", grid_err);
    v.set("kernels.degridder_rel_err", degrid_err);
    v.set("kernels.cache_hits", cold_hits as f64);
    v.set("kernels.cache_misses", cold_misses as f64);

    let trace = rec.chrome_trace();
    Ok((
        Outcome {
            tally,
            values: v,
            samples: Vec::new(),
            max_rel_err: grid_err.max(degrid_err),
        },
        trace,
    ))
}
