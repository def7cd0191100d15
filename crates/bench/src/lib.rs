//! # idg-bench — the benchmark harness
//!
//! One binary per table/figure of the paper's evaluation section (see
//! DESIGN.md §4 for the index). The binaries print the same rows/series
//! the paper reports and write CSV files under `results/`. Wall-clock
//! numbers for their own sake come from the repo benchmark
//! (`benchmark/`), not from here: the only timings in this crate are
//! the measured host cells the figures print beside the model.
//!
//! The workload is the paper's benchmark data set (Sec. VI-A: SKA1-low
//! layout, 24² subgrids on a 2048² grid, 16 channels, A-terms every 256
//! steps) at a configurable scale: `IDG_BENCH_SCALE` divides the station
//! count (default 10 → 15 stations; 1 = the full 150-station,
//! 8192-time-step set, which needs a large machine).

#![deny(missing_docs)]

use idg::telescope::Dataset;
use idg::{Backend, ExecutionReport, Plan, Proxy};
use idg_perf::{
    degridder_counts, gridder_counts, modeled_kernel_seconds, Architecture, EnergyModel, OpCounts,
};
use std::io::Write;

/// The benchmark scale from `IDG_BENCH_SCALE` (default 10).
pub fn bench_scale() -> usize {
    std::env::var("IDG_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Build the benchmark data set at the requested scale.
pub fn benchmark_dataset(scale: usize) -> Dataset {
    Dataset::representative(scale, 42).expect("representative dataset")
}

/// One back-end's measured/modeled gridding + degridding pass.
pub struct BackendRun {
    /// Row label ("HASWELL (modeled)", "host CPU (measured)", …).
    pub name: String,
    /// Gridding pass report.
    pub gridding: ExecutionReport,
    /// Degridding pass report.
    pub degridding: ExecutionReport,
    /// The Table I architecture this row corresponds to, if any.
    pub arch: Option<Architecture>,
}

/// Model a full CPU pass on a Table I architecture from operation
/// counts (used for the "HASWELL" rows: our host is not a Xeon
/// E5-2697v3, so the paper-architecture rows are modeled exactly like
/// the GPU rows; the host-measured row is printed alongside).
fn model_cpu_report(
    arch: &Architecture,
    counts: OpCounts,
    nr_subgrids: usize,
    subgrid_size: usize,
    pass: &'static str,
) -> ExecutionReport {
    let kernel = modeled_kernel_seconds(arch, &counts, 0.9);
    // subgrid FFTs at a third of peak; adder at memory bandwidth
    let n = subgrid_size as f64;
    let fft_flops = 4.0 * nr_subgrids as f64 * 2.0 * n * 5.0 * n * n.log2();
    let fft = fft_flops / (arch.peak_tflops * 1e12 / 3.0);
    let adder_bytes = nr_subgrids as f64 * 4.0 * n * n * 8.0 * 2.0;
    let adder = adder_bytes / (arch.mem_bw_gbps * 1e9);
    let total = kernel + fft + adder;
    let energy = EnergyModel::new(arch.clone());
    ExecutionReport {
        backend: arch.nickname.to_lowercase(),
        pass,
        modeled: true,
        kernel_seconds: kernel,
        fft_seconds: fft,
        adder_seconds: adder,
        transfer_seconds: 0.0,
        total_seconds: total,
        counts,
        launched_items: nr_subgrids,
        launched_jobs: 1,
        device_energy_j: Some(energy.device_energy(total, 1.0)),
        host_energy_j: Some(0.0),
        nr_retries: 0,
        backoff_seconds: 0.0,
        fallback_jobs: Vec::new(),
        fleet: None,
        metrics: None,
        stream: None,
    }
}

/// The measured host-CPU row printed beside the modeled paper
/// architectures: one untimed warm-up cycle (first-touch page faults),
/// then a plain [`Proxy::grid`] + [`Proxy::degrid`] whose
/// reports carry the wall clock of the optimized CPU kernels.
pub fn host_cpu_run(ds: &Dataset) -> BackendRun {
    let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).expect("proxy");
    let plan = proxy.plan(&ds.uvw).expect("plan");
    let cycle = || {
        let (grid, g) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .expect("grid");
        let (_, d) = proxy
            .degrid(&plan, &grid, &ds.uvw, &ds.aterms)
            .expect("degrid");
        (g, d)
    };
    cycle();
    let (gridding, degridding) = cycle();
    BackendRun {
        name: "host CPU (measured)".into(),
        gridding,
        degridding,
        arch: None,
    }
}

/// Run both passes through the `Proxy` fleet path: two simulated
/// Pascal devices sharing one set of kernel tables, with one targeted
/// allocation OOM on member 0 so the degradation ladder takes at least
/// one rung per pass. Everything about the run is deterministic — the
/// fault is pinned to `(job 0, attempt 0, Alloc)` and all timing is
/// the modeled pipeline clock — so the fleet columns this feeds into
/// the BENCH exports are pinned exactly by the golden suite.
pub fn fleet_chaos_run(ds: &Dataset) -> BackendRun {
    use idg::gpusim::{FaultConfig, FaultKind, TargetedFault};
    use idg::types::FaultSite;
    use idg::FleetConfig;

    let oom = FaultConfig::targeted(vec![TargetedFault {
        job: 0,
        attempt: 0,
        site: FaultSite::Alloc,
        kind: FaultKind::OutOfMemory,
    }]);
    let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone())
        .expect("fleet bench proxy")
        .with_fleet_config(FleetConfig {
            nr_devices: 2,
            member_faults: vec![(0, oom)],
            breaker: None,
        });
    let plan = proxy.plan(&ds.uvw).expect("fleet bench plan");
    let (grid, g) = proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .expect("fleet grid");
    let (_, d) = proxy
        .degrid(&plan, &grid, &ds.uvw, &ds.aterms)
        .expect("fleet degrid");
    BackendRun {
        name: "fleet 2x PASCAL (modeled)".into(),
        gridding: g,
        degridding: d,
        arch: None,
    }
}

/// The `fleet` row of a BENCH_*.json export: fleet shape and
/// degraded-mode accounting. Every column is modeled (deterministic),
/// so none carries the `_wall` mask suffix; `makespan_s` is the merged
/// modeled makespan across devices.
pub fn fleet_bench_row(scale: usize, report: &ExecutionReport) -> FigRow {
    let stats = report
        .fleet
        .as_ref()
        .expect("fleet_bench_row needs a fleet-path report");
    FigRow {
        label: "fleet".to_string(),
        wall_clock: false,
        values: vec![
            ("scale", scale as f64),
            ("visibilities", report.counts.visibilities as f64),
            ("nr_devices", stats.nr_devices as f64),
            ("redispatched_jobs", stats.redispatched_jobs as f64),
            ("degradation_steps", stats.degradation_steps as f64),
            ("breaker_trips", stats.breaker_trips as f64),
            ("makespan_s", report.total_seconds),
        ],
    }
}

/// The benchmark data set with an A-term cadence of a quarter
/// observation (same layout/sky seeds as [`benchmark_dataset`]).
/// Chunk boundaries snap to A-term intervals, so the tiny golden-scale
/// set — whose representative cadence is one interval for the whole
/// observation — would otherwise stream as a single chunk.
pub fn streamed_benchmark_dataset(scale: usize) -> Dataset {
    use idg::telescope::{IdentityATerm, Layout, SkyModel};
    use idg::Observation;

    let scale = scale.max(1);
    let nr_stations = (150 / scale).max(4);
    let nr_timesteps = (8192 / (scale * scale)).max(32);
    let obs = Observation::builder()
        .stations(nr_stations)
        .timesteps(nr_timesteps)
        .channels(16, 150e6, 1e6)
        .grid_size(2048 / scale.min(4))
        .subgrid_size(24)
        .aterm_interval((nr_timesteps / 4).max(1))
        .image_size(0.05)
        .build()
        .expect("streamed benchmark observation");
    let lambda_min = obs.min_wavelength();
    let max_baseline_m = obs.max_uv_wavelengths() * lambda_min;
    let arm_radius = (0.40 * max_baseline_m).min(18_000.0);
    let core_radius = (arm_radius / 10.0).min(1_000.0);
    let layout = Layout::ska1_low(nr_stations, core_radius, arm_radius, 42);
    let sky = SkyModel::random(&obs, 16, 0.7, 42 ^ 0x5137);
    Dataset::simulate(obs, &layout, sky, &IdentityATerm)
}

/// Run the streamed-ingestion gridding pass on the modeled Pascal
/// device: one chunk per A-term interval, two workers, at most two
/// passes at once. Every timing in the report is modeled (the chunk
/// makespans come from the pipeline clock, the stream makespan from
/// deterministic list scheduling), and `inflight_max` and
/// `backpressure_waits` are functions of the configuration, so the
/// whole `stream` row is pinned exactly by the golden suite.
pub fn stream_run(ds: &Dataset) -> ExecutionReport {
    use idg::{ChunkPolicy, StreamConfig};

    let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).expect("stream bench proxy");
    let config = StreamConfig::new(ChunkPolicy::by_timesteps(ds.obs.aterm_interval), 2, 2);
    let (_, report) = proxy
        .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
        .expect("stream bench grid");
    report
}

/// The `stream` row of a BENCH_*.json export: chunk/worker shape and
/// the two `max_inflight` stats next to the one-shot rows.
/// Every column is deterministic, so none carries the `_wall` mask
/// suffix; `makespan_s` is the modeled streamed makespan (overlapped
/// chunks + the final commit).
pub fn stream_bench_row(scale: usize, report: &ExecutionReport) -> FigRow {
    let stats = report
        .stream
        .as_ref()
        .expect("stream_bench_row needs a streamed-path report");
    FigRow {
        label: "stream".to_string(),
        wall_clock: false,
        values: vec![
            ("scale", scale as f64),
            ("visibilities", report.counts.visibilities as f64),
            ("nr_chunks", stats.nr_chunks as f64),
            ("nr_workers", stats.nr_workers as f64),
            ("max_inflight", stats.max_inflight as f64),
            ("inflight_max", stats.inflight_max as f64),
            ("backpressure_waits", stats.backpressure_waits as f64),
            ("makespan_s", report.total_seconds),
        ],
    }
}

/// Duplex twin of [`stream_run`]: the streamed *degridding* pass on
/// the modeled Pascal device, splitting a model grid (produced by a
/// one-shot gridding pass over the same data set) back into predicted
/// visibilities chunk by chunk. Same chunk policy and window shape;
/// every timing is modeled, so the row pins exactly.
pub fn stream_degrid_run(ds: &Dataset) -> ExecutionReport {
    use idg::{ChunkPolicy, StreamConfig};

    let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).expect("stream bench proxy");
    let plan = proxy.plan(&ds.uvw).expect("stream bench plan");
    let (model, _) = proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .expect("stream bench model grid");
    let config = StreamConfig::new(ChunkPolicy::by_timesteps(ds.obs.aterm_interval), 2, 2);
    let (_, report) = proxy
        .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
        .expect("stream bench degrid");
    report
}

/// The `stream_degrid` row of a BENCH_*.json export: the duplex
/// direction's chunk/worker shape and `max_inflight` stats. Like
/// the `stream` row, every column is deterministic (modeled makespan,
/// closed-form stream stats), so none carries the `_wall` mask.
pub fn stream_degrid_bench_row(scale: usize, report: &ExecutionReport) -> FigRow {
    let stats = report
        .stream
        .as_ref()
        .expect("stream_degrid_bench_row needs a streamed-path report");
    FigRow {
        label: "stream_degrid".to_string(),
        wall_clock: false,
        values: vec![
            ("scale", scale as f64),
            ("visibilities", report.counts.visibilities as f64),
            ("nr_chunks", stats.nr_chunks as f64),
            ("nr_workers", stats.nr_workers as f64),
            ("max_inflight", stats.max_inflight as f64),
            ("inflight_max", stats.inflight_max as f64),
            ("backpressure_waits", stats.backpressure_waits as f64),
            ("makespan_s", report.total_seconds),
        ],
    }
}

/// Modeled reports for the *full* paper-scale benchmark (11,175
/// baselines × 8,192 time steps × 16 channels ≈ 1.46 G visibilities),
/// extrapolated from the measured plan statistics of the scaled data
/// set: all operation/byte counters are linear in the number of
/// visibilities for a fixed per-item occupancy, so scaling the counts by
/// the visibility ratio reproduces the full-scale workload without
/// allocating its 1.1 GB of uvw data. GPU rows run the triple-buffered
/// pipeline model over full-size work groups; the HASWELL row uses the
/// shared CPU timing model.
pub fn full_scale_runs(ds: &Dataset) -> Vec<BackendRun> {
    use idg_gpusim::timing::{adder_time, subgrid_fft_time};
    use idg_gpusim::{kernel_time, transfer_time, Device, PipelineSim};

    let obs = &ds.obs;
    let plan = Plan::create(obs, &ds.uvw).expect("plan");
    let gc_small = gridder_counts(&plan.items, obs.subgrid_size);
    let dc_small = degridder_counts(&plan.items, obs.subgrid_size);

    let full_vis: u64 = 11_175 * 8_192 * 16;
    let ratio = full_vis as f64 / gc_small.visibilities as f64;
    let scale_counts = |c: &OpCounts| OpCounts {
        fmas: (c.fmas as f64 * ratio) as u64,
        sincos_pairs: (c.sincos_pairs as f64 * ratio) as u64,
        dram_bytes: (c.dram_bytes as f64 * ratio) as u64,
        shared_bytes: (c.shared_bytes as f64 * ratio) as u64,
        visibilities: full_vis,
    };
    let gc = scale_counts(&gc_small);
    let dc = scale_counts(&dc_small);
    let nr_subgrids = (plan.nr_subgrids() as f64 * ratio) as usize;
    let mean_vis_per_item = full_vis as f64 / nr_subgrids as f64;

    let mut runs = Vec::new();
    let haswell = Architecture::haswell();
    runs.push(BackendRun {
        name: "HASWELL (modeled)".into(),
        gridding: model_cpu_report(&haswell, gc, nr_subgrids, obs.subgrid_size, "gridding"),
        degridding: model_cpu_report(&haswell, dc, nr_subgrids, obs.subgrid_size, "degridding"),
        arch: Some(haswell),
    });

    for device in [Device::fiji(), Device::pascal()] {
        let arch = device.arch.clone();
        let group_items = 256usize;
        let nr_groups = nr_subgrids.div_ceil(group_items).max(1);
        let per_group = |total: &OpCounts| OpCounts {
            fmas: total.fmas / nr_groups as u64,
            sincos_pairs: total.sincos_pairs / nr_groups as u64,
            dram_bytes: total.dram_bytes / nr_groups as u64,
            shared_bytes: total.shared_bytes / nr_groups as u64,
            visibilities: total.visibilities / nr_groups as u64,
        };
        let vis_bytes_per_group = (mean_vis_per_item * group_items as f64 * 44.0) as u64;
        let out_bytes_per_group = (mean_vis_per_item * group_items as f64 * 32.0) as u64;

        let make_pass = |counts: &OpCounts, pass: &'static str, in_bytes: u64, out_bytes: u64| {
            let gcounts = per_group(counts);
            let t_kernel = kernel_time(&device, &gcounts);
            let t_fft = subgrid_fft_time(&device, group_items, obs.subgrid_size);
            let t_add = adder_time(&device, group_items, obs.subgrid_size);
            let mut pipeline = PipelineSim::new(3);
            for _ in 0..nr_groups {
                pipeline.submit(
                    transfer_time(&device, in_bytes),
                    t_kernel + t_fft + t_add,
                    transfer_time(&device, out_bytes),
                );
            }
            let makespan = pipeline.makespan();
            let energy = EnergyModel::new(arch.clone());
            let busy = pipeline.compute_busy();
            ExecutionReport {
                backend: arch.nickname.to_lowercase(),
                pass,
                modeled: true,
                kernel_seconds: t_kernel * nr_groups as f64,
                fft_seconds: t_fft * nr_groups as f64,
                adder_seconds: t_add * nr_groups as f64,
                transfer_seconds: (transfer_time(&device, in_bytes)
                    + transfer_time(&device, out_bytes))
                    * nr_groups as f64,
                total_seconds: makespan,
                counts: *counts,
                launched_items: nr_subgrids,
                launched_jobs: nr_groups,
                device_energy_j: Some(
                    energy.device_energy(busy, 1.0) + energy.device_energy(makespan - busy, 0.0),
                ),
                host_energy_j: Some(energy.host_energy(makespan)),
                nr_retries: 0,
                backoff_seconds: 0.0,
                fallback_jobs: Vec::new(),
                fleet: None,
                metrics: None,
                stream: None,
            }
        };
        let gridding = make_pass(&gc, "gridding", vis_bytes_per_group, 0);
        let degridding = make_pass(&dc, "degridding", 0, out_bytes_per_group);
        runs.push(BackendRun {
            name: format!("{} (modeled)", arch.nickname),
            gridding,
            degridding,
            arch: Some(arch),
        });
    }
    runs
}

/// Write a CSV file under `results/`, creating the directory if needed.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(path)
}

/// Write an arbitrary text artifact (JSON export, Chrome trace) under
/// `results/`, creating the directory if needed.
pub fn write_results(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// One labeled row of a figure's machine-readable JSON export.
pub struct FigRow {
    /// Row label (backend name, ρ value, …).
    pub label: String,
    /// True when *every* value in the row is a host wall-clock
    /// measurement (non-deterministic across runs). Individual
    /// wall-clock columns inside otherwise-deterministic rows are
    /// marked by a `_wall` suffix on the column name instead.
    pub wall_clock: bool,
    /// `(column, value)` pairs, in column order.
    pub values: Vec<(&'static str, f64)>,
}

/// Serialize figure rows as deterministic, line-oriented JSON: one row
/// object per line, stable key order, shortest-round-trip floats.
///
/// With `mask_wall_clock`, every value that depends on host wall-clock
/// timing (a row flagged [`FigRow::wall_clock`], or a column whose name
/// ends in `_wall`) is replaced by the string `"<wall-clock>"`. The
/// golden-file suite compares the masked form, so snapshots stay stable
/// across machines while still pinning every modeled number exactly.
pub fn fig_json(figure: &str, rows: &[FigRow], mask_wall_clock: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"figure\": \"{figure}\",\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": {:?}, \"wall_clock\": {}",
            row.label, row.wall_clock
        ));
        for (k, v) in &row.values {
            if mask_wall_clock && (row.wall_clock || k.ends_with("_wall")) {
                out.push_str(&format!(", \"{k}\": \"<wall-clock>\""));
            } else {
                out.push_str(&format!(", \"{k}\": {v:?}"));
            }
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The Fig. 10 throughput rows (MVis/s per backend), shared by the
/// `fig10_throughput` binary and the golden-file suite: the measured
/// host row ([`host_cpu_run`]) above the modeled paper architectures.
pub fn fig10_rows(ds: &Dataset) -> Vec<FigRow> {
    let mut runs = vec![host_cpu_run(ds)];
    runs.extend(full_scale_runs(ds));
    runs.iter()
        .map(|run| FigRow {
            label: run.name.clone(),
            wall_clock: run.arch.is_none(),
            values: vec![
                ("gridding_mvis_s", run.gridding.mvis_per_sec()),
                ("degridding_mvis_s", run.degridding.mvis_per_sec()),
            ],
        })
        .collect()
}

/// The Fig. 12 mix-curve rows (TOps/s vs ρ), shared by the
/// `fig12_sincos_mix` binary and the golden-file suite. The three
/// Table I curves are analytic; the host column is a wall-clock
/// microkernel measurement (skipped — reported as 0 — when
/// `host_iterations` is 0, e.g. in the golden tests where the column
/// is masked anyway).
pub fn fig12_rows(host_iterations: u64) -> Vec<FigRow> {
    use idg_perf::attainable_ops_per_sec;
    use idg_perf::mix::{measure_host_mix, standard_rhos};
    let archs = Architecture::all();
    if host_iterations > 0 {
        // untimed warm-up, so the first ρ does not pay the clock ramp
        measure_host_mix(idg_perf::IDG_RHO as u32, host_iterations);
    }
    standard_rhos()
        .iter()
        .map(|&r| {
            let mut values: Vec<(&'static str, f64)> = archs
                .iter()
                .zip(["haswell_tops", "fiji_tops", "pascal_tops"])
                .map(|(arch, col)| (col, attainable_ops_per_sec(arch, r) / 1e12))
                .collect();
            let host = if host_iterations > 0 {
                measure_host_mix(r.round() as u32, host_iterations) / 1e12
            } else {
                0.0
            };
            values.push(("host_measured_tops_wall", host));
            FigRow {
                label: format!("rho={r}"),
                wall_clock: false,
                values,
            }
        })
        .collect()
}

/// Serialize one pass's BENCH rows (`pass` is `"gridder"` or
/// `"degridder"`; the figure tag becomes `BENCH_<pass>`).
pub fn bench_json(pass: &str, rows: &[FigRow], mask_wall_clock: bool) -> String {
    fig_json(&format!("BENCH_{pass}"), rows, mask_wall_clock)
}

/// Extract one named column of one row from a BENCH_*.json document
/// (hand-rolled like every other JSON path in this offline workspace:
/// the format is our own line-oriented `fig_json` output, one row
/// object per line). Returns the value of `column` in the first row
/// whose label and `scale` column match.
pub fn bench_row_value(json: &str, label: &str, scale: usize, column: &str) -> Option<f64> {
    let label_pat = format!("\"label\": \"{label}\"");
    let scale_pat = format!("\"scale\": {:?}", scale as f64);
    let col_pat = format!("\"{column}\": ");
    for line in json.lines() {
        if !(line.contains(&label_pat) && line.contains(&scale_pat)) {
            continue;
        }
        let start = line.find(&col_pat)? + col_pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        return rest[..end].trim().parse().ok();
    }
    None
}

/// Render a horizontal ASCII bar chart (used for the "distribution"
/// figures): `rows` are `(label, segments)` where each segment is
/// `(name, value)`.
pub fn ascii_stacked_bars(rows: &[(String, Vec<(&str, f64)>)], unit: &str) -> String {
    let width = 50usize;
    let max: f64 = rows
        .iter()
        .map(|(_, segs)| segs.iter().map(|(_, v)| v).sum::<f64>())
        .fold(1e-300, f64::max);
    let glyphs = ['#', '=', '-', '.', '+', '~'];
    let mut out = String::new();
    for (label, segs) in rows {
        let mut bar = String::new();
        for (i, (_, v)) in segs.iter().enumerate() {
            let cells = ((v / max) * width as f64).round() as usize;
            bar.extend(std::iter::repeat_n(glyphs[i % glyphs.len()], cells));
        }
        let total: f64 = segs.iter().map(|(_, v)| v).sum();
        out.push_str(&format!("{label:<22} |{bar:<width$}| {total:.4} {unit}\n"));
    }
    out.push_str("legend: ");
    if let Some((_, segs)) = rows.first() {
        for (i, (name, _)) in segs.iter().enumerate() {
            out.push_str(&format!("{}={} ", glyphs[i % glyphs.len()], name));
        }
    }
    out.push('\n');
    out
}

/// Render a simple ASCII x/y series plot (log-x optional) as a table
/// plus bars (the figure binaries favour precise numbers over pictures).
pub fn series_table(title: &str, x_label: &str, series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = format!("{title}\n{x_label:<12}");
    for (name, _) in series {
        out.push_str(&format!(" {name:>18}"));
    }
    out.push('\n');
    let xs: Vec<f64> = series[0].1.iter().map(|(x, _)| *x).collect();
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:<12.3}"));
        for (_, points) in series {
            out.push_str(&format!(" {:>18.4}", points[i].1));
        }
        out.push('\n');
    }
    out
}

/// Paper-shape check helper: `a` within `[lo, hi] × b`.
pub fn within_factor(a: f64, b: f64, lo: f64, hi: f64) -> bool {
    a >= lo * b && a <= hi * b
}

/// The gridding plan reused by several figure binaries.
pub fn plan_for(ds: &Dataset) -> Plan {
    Plan::create(&ds.obs, &ds.uvw).expect("plan")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_or_defaults() {
        // no env manipulation (tests run in parallel); just the default path
        assert!(bench_scale() >= 1);
    }

    #[test]
    fn ascii_bars_render() {
        let rows = vec![
            ("PASCAL".to_string(), vec![("gridder", 3.0), ("fft", 0.2)]),
            ("HASWELL".to_string(), vec![("gridder", 9.0), ("fft", 0.5)]),
        ];
        let text = ascii_stacked_bars(&rows, "s");
        assert!(text.contains("PASCAL"));
        assert!(text.contains("legend"));
    }

    #[test]
    fn series_table_renders() {
        let series = vec![
            ("IDG".to_string(), vec![(8.0, 100.0), (16.0, 100.0)]),
            ("WPG".to_string(), vec![(8.0, 300.0), (16.0, 80.0)]),
        ];
        let text = series_table("fig", "N_W", &series);
        assert!(text.contains("IDG") && text.contains("WPG"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn within_factor_helper() {
        assert!(within_factor(10.0, 5.0, 1.5, 3.0));
        assert!(!within_factor(10.0, 5.0, 3.0, 5.0));
    }

    #[test]
    fn fig_json_masks_wall_clock_values_and_stays_valid() {
        let rows = vec![
            FigRow {
                label: "PASCAL".into(),
                wall_clock: false,
                values: vec![("tops", 1.5), ("host_tops_wall", 4.25)],
            },
            FigRow {
                label: "host".into(),
                wall_clock: true,
                values: vec![("tops", 3.75), ("host_tops_wall", 8.5)],
            },
        ];
        let open = fig_json("figX", &rows, false);
        let masked = fig_json("figX", &rows, true);
        idg_obs::validate_json(&open).expect("open json");
        idg_obs::validate_json(&masked).expect("masked json");
        assert!(open.contains("1.5") && open.contains("8.5"));
        assert!(!open.contains("<wall-clock>"));
        // masked: the one deterministic value survives, the _wall
        // column and the wall-clock row are both replaced
        assert!(masked.contains("1.5"));
        assert!(!masked.contains("4.25") && !masked.contains("3.75") && !masked.contains("8.5"));
        assert_eq!(masked.matches("<wall-clock>").count(), 3);
    }

    #[test]
    fn bench_rows_round_trip_through_the_hand_rolled_parser() {
        let row = |label: &str| FigRow {
            label: label.to_string(),
            wall_clock: false,
            values: vec![
                ("scale", 15.0),
                ("visibilities", 1000.0),
                ("total_s_wall", 0.875),
            ],
        };
        let rows = vec![row("seed"), row("kernel-cache")];
        let json = bench_json("gridder", &rows, false);
        idg_obs::validate_json(&json).expect("bench json is valid");
        assert!(json.contains("\"figure\": \"BENCH_gridder\""));
        assert_eq!(
            bench_row_value(&json, "kernel-cache", 15, "total_s_wall"),
            Some(0.875)
        );
        assert_eq!(
            bench_row_value(&json, "seed", 15, "visibilities"),
            Some(1000.0)
        );
        // wrong scale or label: no row
        assert_eq!(
            bench_row_value(&json, "kernel-cache", 8, "total_s_wall"),
            None
        );
        assert_eq!(bench_row_value(&json, "missing", 15, "total_s_wall"), None);
        // masked export stays parseable JSON but hides the wall columns
        let masked = bench_json("gridder", &rows, true);
        idg_obs::validate_json(&masked).expect("masked bench json");
        assert_eq!(bench_row_value(&masked, "seed", 15, "total_s_wall"), None);
        assert_eq!(
            bench_row_value(&masked, "seed", 15, "visibilities"),
            Some(1000.0)
        );
    }

    #[test]
    fn model_cpu_report_is_kernel_dominated() {
        use idg_types::Baseline;
        let items: Vec<idg::WorkItem> = (0..16)
            .map(|i| idg::WorkItem {
                baseline_index: i,
                baseline: Baseline::new(0, 1),
                time_offset: 0,
                nr_timesteps: 128,
                channel_offset: 0,
                nr_channels: 16,
                aterm_index: 0,
                coord_x: 0,
                coord_y: 0,
                w_plane: 0,
            })
            .collect();
        let counts = gridder_counts(&items, 24);
        let report = model_cpu_report(&Architecture::haswell(), counts, 16, 24, "gridding");
        assert!(
            report.kernel_fraction() > 0.9,
            "fraction {}",
            report.kernel_fraction()
        );
        assert!(report.device_energy_j.unwrap() > 0.0);
    }
}
