//! The proxy: one entry point per back-end.
//!
//! Mirrors the proxy layer of the reference IDG library: the application
//! hands over observation parameters once, then issues `grid`/`degrid`
//! calls against whichever back-end was selected. CPU back-ends execute
//! and *measure*; GPU back-ends execute the device model and *model*
//! their times (see DESIGN.md, substitutions).

use crate::report::{ExecutionReport, FleetStats};
use idg_fft::Direction;
use idg_gpusim::kernels::{degridder_gpu, gridder_gpu};
use idg_gpusim::{
    BreakerConfig, Device, FaultConfig, FleetExecutor, FleetRunReport, GpuExecutor, GpuRunReport,
    JobFailure, PassTotals, RetryPolicy,
};
use idg_kernels::{
    add_subgrids, degridder_cpu, degridder_reference, fft_subgrids, gridder_cpu, gridder_reference,
    split_subgrids, FftNorm, KernelCache, KernelData, SubgridArray,
};
use idg_math::Accuracy;
use idg_perf::{degridder_counts, gridder_counts, OpCounts};
use idg_plan::{Plan, WorkItem};
use idg_telescope::ATerms;
use idg_types::{Complex, Grid, IdgError, Observation, Uvw, Visibility};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

pub mod streaming;
pub use streaming::StreamConfig;

/// Which implementation executes the kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar double-precision reference kernels (gold standard).
    CpuReference,
    /// Optimized CPU kernels of Sec. V-B (measured).
    CpuOptimized,
    /// GTX 1080 device model running the Sec. V-C mapping (modeled).
    GpuPascal,
    /// Fury X device model running the Sec. V-C mapping (modeled).
    GpuFiji,
}

impl Backend {
    /// Human-readable label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::CpuReference => "cpu-reference",
            Backend::CpuOptimized => "cpu-optimized",
            Backend::GpuPascal => "gpu-pascal",
            Backend::GpuFiji => "gpu-fiji",
        }
    }

    /// All back-ends, CPU first.
    pub fn all() -> [Backend; 4] {
        [
            Backend::CpuReference,
            Backend::CpuOptimized,
            Backend::GpuPascal,
            Backend::GpuFiji,
        ]
    }
}

/// Reject non-finite samples at the proxy boundary: a single NaN/Inf
/// visibility silently poisons the entire grid (NaN propagates through
/// every accumulation), so the error must be typed and early.
fn check_finite_vis(visibilities: &[Visibility<f32>]) -> Result<(), IdgError> {
    for (i, v) in visibilities.iter().enumerate() {
        if v.pols
            .iter()
            .any(|p| !p.re.is_finite() || !p.im.is_finite())
        {
            return Err(IdgError::InvalidParameter(format!(
                "visibility {i} is non-finite (NaN/Inf)"
            )));
        }
    }
    Ok(())
}

/// Same boundary check for uvw coordinates: a NaN coordinate corrupts
/// the plan's subgrid placement, not just one sample.
fn check_finite_uvw(uvw: &[Uvw]) -> Result<(), IdgError> {
    for (i, c) in uvw.iter().enumerate() {
        if !c.u.is_finite() || !c.v.is_finite() || !c.w.is_finite() {
            return Err(IdgError::InvalidParameter(format!(
                "uvw coordinate {i} is non-finite (NaN/Inf)"
            )));
        }
    }
    Ok(())
}

/// Multi-device execution configuration for GPU back-ends.
///
/// When attached to a [`Proxy`] (see [`Proxy::with_fleet`]), gridding
/// and degridding passes are partitioned across `nr_devices` clones of
/// the back-end's device model by a [`FleetExecutor`], with per-device
/// circuit breakers and the OOM degradation ladder between the plain
/// device path and the proxy's per-job CPU fallback.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of member devices (clamped to at least 1).
    pub nr_devices: usize,
    /// Per-member fault schedules `(member index, schedule)`, applied
    /// on top of the proxy-wide [`Proxy::fault_config`] (which, when
    /// set, seeds *every* member).
    pub member_faults: Vec<(usize, FaultConfig)>,
    /// Circuit-breaker tuning shared by all members (`None` uses
    /// [`BreakerConfig::default`]).
    pub breaker: Option<BreakerConfig>,
}

impl FleetConfig {
    /// A fault-free homogeneous fleet of `nr_devices` members.
    pub fn new(nr_devices: usize) -> Self {
        Self {
            nr_devices: nr_devices.max(1),
            member_faults: Vec::new(),
            breaker: None,
        }
    }
}

/// A configured IDG instance for one observation.
pub struct Proxy {
    backend: Backend,
    obs: Observation,
    taper: Vec<f32>,
    /// Work items per (modeled) kernel launch on GPU back-ends.
    pub work_group_size: usize,
    /// Optional device fault-injection schedule (GPU back-ends).
    pub fault_config: Option<FaultConfig>,
    /// Retry policy for transient device faults (GPU back-ends).
    pub retry_policy: RetryPolicy,
    /// Re-execute persistently failed device jobs on the CPU reference
    /// kernels and merge their outputs (graceful degradation; the
    /// fallback is flagged in the report). When disabled, a persistent
    /// device fault fails the whole pass with its classified error.
    pub cpu_fallback: bool,
    /// Multi-device execution: when set, GPU passes run on a
    /// [`FleetExecutor`] over `nr_devices` clones of the back-end's
    /// device model instead of a single [`GpuExecutor`].
    pub fleet: Option<FleetConfig>,
    /// Pass-level kernel cache: geometry planes and adder/splitter
    /// phasor tables, built on the first pass and reused by every later
    /// one (shared with GPU executors).
    cache: Arc<KernelCache>,
}

impl Proxy {
    /// Create a proxy; precomputes the prolate-spheroidal taper.
    pub fn new(backend: Backend, obs: Observation) -> Result<Self, IdgError> {
        obs.validate()?;
        let taper = idg_math::spheroidal_2d(obs.subgrid_size);
        Ok(Self {
            backend,
            obs,
            taper,
            work_group_size: 256,
            fault_config: None,
            retry_policy: RetryPolicy::default(),
            cpu_fallback: true,
            fleet: None,
            cache: Arc::new(KernelCache::new()),
        })
    }

    /// The proxy's pass-level kernel cache (hit/miss inspection).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.cache
    }

    /// Attach a device fault-injection schedule (GPU back-ends; CPU
    /// back-ends ignore it). With a fleet configured, the schedule
    /// seeds every member (see [`FleetConfig::member_faults`] for
    /// per-member overrides).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.fault_config = Some(faults);
        self
    }

    /// Run GPU passes across a fleet of `nr_devices` clones of the
    /// back-end's device model (CPU back-ends ignore it).
    pub fn with_fleet(mut self, nr_devices: usize) -> Self {
        self.fleet = Some(FleetConfig::new(nr_devices));
        self
    }

    /// Full fleet configuration (member fault schedules, breaker
    /// tuning); see [`Proxy::with_fleet`] for the plain case.
    pub fn with_fleet_config(mut self, config: FleetConfig) -> Self {
        self.fleet = Some(config);
        self
    }

    /// The observation this proxy was configured for.
    pub fn observation(&self) -> &Observation {
        &self.obs
    }

    /// The back-end in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The image-domain taper applied per subgrid (`subgrid_size²`).
    pub fn taper(&self) -> &[f32] {
        &self.taper
    }

    /// Build the execution plan for a uvw buffer
    /// (`[baseline][timestep]`, meters).
    pub fn plan(&self, uvw: &[Uvw]) -> Result<Plan, IdgError> {
        Plan::create(&self.obs, uvw)
    }

    fn device(&self) -> Result<Device, IdgError> {
        match self.backend {
            Backend::GpuPascal => Ok(Device::pascal()),
            Backend::GpuFiji => Ok(Device::fiji()),
            _ => Err(IdgError::InvalidParameter(format!(
                "device() requires a GPU back-end, got {:?}",
                self.backend
            ))),
        }
    }

    fn executor(&self) -> Result<GpuExecutor, IdgError> {
        let executor = GpuExecutor::new(self.device()?, self.work_group_size)
            .with_retry_policy(self.retry_policy)
            .with_cache(Arc::clone(&self.cache));
        Ok(match &self.fault_config {
            Some(f) => executor.with_faults(f.clone()),
            None => executor,
        })
    }

    /// Build the fleet executor for `config`, sharing the proxy's
    /// kernel cache across all members.
    fn fleet_executor(&self, config: &FleetConfig) -> Result<FleetExecutor, IdgError> {
        let mut fleet =
            FleetExecutor::uniform(self.device()?, config.nr_devices, self.work_group_size)
                .with_retry_policy(self.retry_policy)
                .with_cache(Arc::clone(&self.cache));
        if let Some(f) = &self.fault_config {
            for member in 0..config.nr_devices {
                fleet = fleet.with_member_faults(member, f.clone());
            }
        }
        for (member, faults) in &config.member_faults {
            if *member >= config.nr_devices {
                return Err(IdgError::InvalidParameter(format!(
                    "fleet member fault index {member} out of range (fleet has {} devices)",
                    config.nr_devices
                )));
            }
            fleet = fleet.with_member_faults(*member, faults.clone());
        }
        if let Some(breaker) = config.breaker {
            fleet = fleet.with_breaker(breaker);
        }
        Ok(fleet)
    }

    /// The kernel inputs of a pass over this proxy's observation,
    /// shape-checked.
    fn kernel_data<'a>(
        &'a self,
        uvw: &'a [Uvw],
        visibilities: &'a [Visibility<f32>],
        aterms: &'a ATerms,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = KernelData {
            obs: &self.obs,
            uvw,
            visibilities,
            aterms,
            taper: &self.taper,
        };
        data.validate()?;
        Ok(data)
    }

    /// The one input check of every gridding entry point — one-shot,
    /// streamed and staged: buffer shapes, then finite visibilities,
    /// then finite uvw. Returns the kernel inputs of the pass.
    pub(crate) fn gridding_input<'a>(
        &'a self,
        uvw: &'a [Uvw],
        visibilities: &'a [Visibility<f32>],
        aterms: &'a ATerms,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = self.kernel_data(uvw, visibilities, aterms)?;
        check_finite_vis(visibilities)?;
        check_finite_uvw(uvw)?;
        Ok(data)
    }

    /// The one input check of every degridding entry point — one-shot,
    /// streamed and staged: buffer shapes, then finite uvw, then the
    /// model grid. `shape` is a zeroed visibility buffer of the
    /// observation's extent: the degridder overwrites the slots it
    /// covers, the input buffer only supplies the shape.
    pub(crate) fn degridding_input<'a>(
        &'a self,
        grid: &Grid<f32>,
        uvw: &'a [Uvw],
        shape: &'a [Visibility<f32>],
        aterms: &'a ATerms,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = self.kernel_data(uvw, shape, aterms)?;
        check_finite_uvw(uvw)?;
        self.check_model_grid(grid)?;
        Ok(data)
    }

    /// The model grid must have the observation's size, and a single
    /// NaN/Inf sample would silently poison every visibility its
    /// subgrids touch, so the error must be typed and early.
    fn check_model_grid(&self, grid: &Grid<f32>) -> Result<(), IdgError> {
        if grid.size() != self.obs.grid_size {
            return Err(IdgError::ShapeMismatch {
                what: "grid",
                expected: self.obs.grid_size,
                actual: grid.size(),
            });
        }
        // A 2048² grid is 134 MB in front of every degrid pass: fold each
        // block without a branch (a short-circuit `any` does not
        // vectorise), blocks in parallel — every sample is still inspected.
        const BLOCK: usize = 1 << 16;
        let block_is_finite = |block: &[Complex<f32>]| {
            block
                .iter()
                .fold(true, |ok, c| ok & c.re.is_finite() & c.im.is_finite())
        };
        let finite: Vec<bool> = grid
            .as_slice()
            .par_chunks(BLOCK)
            .map(block_is_finite)
            .collect();
        if finite.contains(&false) {
            return Err(IdgError::InvalidParameter(
                "model grid contains non-finite (NaN/Inf) samples".into(),
            ));
        }
        Ok(())
    }

    /// Launch the back-end's gridder kernel over `items`. The GPU arm
    /// serves `stages.rs` only: the one-shot and streamed device passes
    /// launch through the executors.
    pub(crate) fn launch_gridder(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        subgrids: &mut SubgridArray,
    ) -> Result<(), IdgError> {
        match self.backend {
            Backend::CpuReference => gridder_reference(data, items, subgrids),
            Backend::CpuOptimized => {
                gridder_cpu(data, items, subgrids, Accuracy::Medium, &self.cache)
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                gridder_gpu(data, items, subgrids, &self.device()?, &self.cache).map(|_| ())
            }
        }
    }

    /// Launch the back-end's degridder kernel over `items` (GPU arm:
    /// `stages.rs` only, as for [`Proxy::launch_gridder`]).
    pub(crate) fn launch_degridder(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        subgrids: &SubgridArray,
        vis: &mut [Visibility<f32>],
    ) -> Result<(), IdgError> {
        match self.backend {
            Backend::CpuReference => degridder_reference(data, items, subgrids, vis),
            Backend::CpuOptimized => {
                degridder_cpu(data, items, subgrids, vis, Accuracy::Medium, &self.cache)
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                degridder_gpu(data, items, subgrids, vis, &self.device()?, &self.cache).map(|_| ())
            }
        }
    }

    /// The host gridding chain up to the commit: gridder → subgrid FFT
    /// over `items`, wall-clocked. Returns the Fourier-domain subgrids
    /// and `[kernel, fft]` seconds; `tag` labels the stage spans (the
    /// chunk index of a streamed pass).
    fn host_grid_chain(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        tag: Option<u32>,
    ) -> Result<(SubgridArray, [f64; 2]), IdgError> {
        let t0 = Instant::now();
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        {
            let _span = idg_obs::wall_span("gridder", "stage", tag);
            self.launch_gridder(data, items, &mut subgrids)?;
        }
        let t1 = Instant::now();
        {
            let _span = idg_obs::wall_span("subgrid_fft", "stage", tag);
            fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
        }
        let seconds = [(t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64()];
        Ok((subgrids, seconds))
    }

    /// The host degridding chain: splitter → inverse subgrid FFT →
    /// degridder over `items`, wall-clocked. Returns the predicted
    /// visibilities (full observation extent) and `[kernel, fft,
    /// splitter]` seconds.
    fn host_degrid_chain(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        grid: &Grid<f32>,
        tag: Option<u32>,
    ) -> Result<(Vec<Visibility<f32>>, [f64; 3]), IdgError> {
        let t0 = Instant::now();
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        {
            let _span = idg_obs::wall_span("splitter", "stage", tag);
            split_subgrids(grid, items, &mut subgrids, &self.cache)?;
        }
        let t1 = Instant::now();
        {
            let _span = idg_obs::wall_span("subgrid_ifft", "stage", tag);
            fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        }
        let t2 = Instant::now();
        let mut vis = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        {
            let _span = idg_obs::wall_span("degridder", "stage", tag);
            self.launch_degridder(data, items, &subgrids, &mut vis)?;
        }
        let seconds = [
            t2.elapsed().as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t1 - t0).as_secs_f64(),
        ];
        Ok((vis, seconds))
    }

    /// Run one device pass on whichever executor the proxy is
    /// configured for — the single device, or the fleet — and split
    /// the result into output, shared totals and (fleet only) the
    /// multi-device statistics.
    fn on_device<T>(
        &self,
        single: impl FnOnce(&GpuExecutor) -> Result<(T, GpuRunReport), IdgError>,
        fleet: impl FnOnce(&FleetExecutor) -> Result<(T, FleetRunReport), IdgError>,
    ) -> Result<(T, PassTotals, Option<FleetStats>), IdgError> {
        let Some(config) = &self.fleet else {
            let (out, report) = single(&self.executor()?)?;
            return Ok((out, report.totals, None));
        };
        let (out, report) = fleet(&self.fleet_executor(config)?)?;
        let stats = FleetStats {
            nr_devices: config.nr_devices,
            redispatched_jobs: report.redispatched_jobs,
            degradation_steps: report.degradation_steps,
            breaker_trips: report.breaker_trips,
            per_device: report.per_device,
        };
        Ok((out, report.totals, Some(stats)))
    }

    /// Graceful degradation after a device pass: hand every
    /// persistently failed job's `plan.items` range and work items to
    /// `redo`, which re-executes them on the CPU reference kernels and
    /// merges the result. Returns the jobs that fell back; errors with
    /// the first failure's classified error when the fallback is
    /// disabled.
    fn cpu_fallback(
        &self,
        plan: &Plan,
        failed_jobs: &[JobFailure],
        mut redo: impl FnMut(Range<usize>, &[WorkItem]) -> Result<(), IdgError>,
    ) -> Result<Vec<JobFailure>, IdgError> {
        if failed_jobs.is_empty() {
            return Ok(Vec::new());
        }
        if !self.cpu_fallback {
            return Err(failed_jobs[0].error.clone());
        }
        idg_obs::add_fallback_jobs(failed_jobs.len() as u64);
        for failure in failed_jobs {
            let _span = idg_obs::wall_span("cpu_fallback", "job", u32::try_from(failure.job).ok());
            let range = failure.first_item..failure.first_item + failure.nr_items;
            redo(range.clone(), &plan.items[range])?;
        }
        Ok(failed_jobs.to_vec())
    }

    /// The gridding half of a CPU fallback: `items`' Fourier-domain
    /// subgrids from the reference gridder.
    fn reference_subgrids(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
    ) -> Result<SubgridArray, IdgError> {
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        gridder_reference(data, items, &mut subgrids)?;
        fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
        Ok(subgrids)
    }

    /// The degridding half of a CPU fallback: predict `items`'
    /// visibilities into `vis` with the reference degridder.
    fn reference_predict(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        grid: &Grid<f32>,
        vis: &mut [Visibility<f32>],
    ) -> Result<(), IdgError> {
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        split_subgrids(grid, items, &mut subgrids, &self.cache)?;
        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        degridder_reference(data, items, &subgrids, vis)
    }

    /// The report of a pass over `nr_items` work items measured on the
    /// host: `[kernel, fft, adder/splitter]` wall-clock seconds, run
    /// back to back as one launch.
    fn measured_report(
        &self,
        pass: &'static str,
        counts: OpCounts,
        nr_items: usize,
        [kernel_seconds, fft_seconds, adder_seconds]: [f64; 3],
    ) -> ExecutionReport {
        ExecutionReport {
            backend: self.backend.label().into(),
            pass,
            modeled: false,
            kernel_seconds,
            fft_seconds,
            adder_seconds,
            transfer_seconds: 0.0,
            total_seconds: kernel_seconds + fft_seconds + adder_seconds,
            counts,
            launched_items: nr_items,
            launched_jobs: 1,
            device_energy_j: None,
            host_energy_j: None,
            nr_retries: 0,
            backoff_seconds: 0.0,
            fallback_jobs: Vec::new(),
            fleet: None,
            metrics: None,
            stream: None,
        }
    }

    /// The report of a pass over `nr_items` work items modeled on the
    /// device executors, from the totals both executors share.
    fn device_report(
        &self,
        totals: PassTotals,
        nr_items: usize,
        fallback_jobs: Vec<JobFailure>,
        fleet: Option<FleetStats>,
    ) -> ExecutionReport {
        ExecutionReport {
            modeled: true,
            launched_jobs: nr_items.div_ceil(self.work_group_size),
            transfer_seconds: totals.htod_seconds + totals.dtoh_seconds,
            total_seconds: totals.makespan,
            device_energy_j: Some(totals.device_energy_j),
            host_energy_j: Some(totals.host_energy_j),
            nr_retries: totals.nr_retries,
            backoff_seconds: totals.backoff_seconds,
            fallback_jobs,
            fleet,
            ..self.measured_report(
                totals.pass,
                totals.counts,
                nr_items,
                [
                    totals.kernel_seconds,
                    totals.fft_seconds,
                    totals.adder_seconds,
                ],
            )
        }
    }

    /// Grid visibilities onto a new grid.
    pub fn grid(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport), IdgError> {
        let data = self.gridding_input(uvw, visibilities, aterms)?;
        let nr_items = plan.items.len();
        match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let (subgrids, [kernel, fft]) = self.host_grid_chain(&data, &plan.items, None)?;
                let t = Instant::now();
                let mut grid = Grid::<f32>::new(self.obs.grid_size);
                {
                    let _span = idg_obs::wall_span("adder", "stage", None);
                    add_subgrids(&mut grid, &plan.items, &subgrids, &self.cache)?;
                }
                let adder = t.elapsed().as_secs_f64();
                let counts = gridder_counts(&plan.items, self.obs.subgrid_size);
                Ok((
                    grid,
                    self.measured_report("gridding", counts, nr_items, [kernel, fft, adder]),
                ))
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let (mut grid, totals, fleet) =
                    self.on_device(|e| e.grid(&data, plan), |f| f.grid(&data, plan))?;
                let fallback_jobs = self.cpu_fallback(plan, &totals.failed_jobs, |_, items| {
                    let subgrids = self.reference_subgrids(&data, items)?;
                    add_subgrids(&mut grid, items, &subgrids, &self.cache)
                })?;
                let report = self.device_report(totals, nr_items, fallback_jobs, fleet);
                Ok((grid, report))
            }
        }
    }

    /// Run `pass` under an observability session named `name`, attach
    /// the measured counter snapshot to its report, and hold it to the
    /// launches the report carries (the `*_observed` entry points
    /// differ only in the public entry point they run).
    fn observed<T>(
        &self,
        name: &str,
        pass: impl FnOnce() -> Result<(T, ExecutionReport), IdgError>,
    ) -> Result<(T, ExecutionReport, idg_obs::Trace), IdgError> {
        let session = idg_obs::Session::begin(name);
        let result = pass();
        let trace = session.finish();
        let (out, mut report) = result?;
        report.metrics = Some(trace.metrics.clone());
        self.validate_measured(&report)?;
        Ok((out, report, trace))
    }

    /// Run [`Proxy::grid`] under an observability session.
    ///
    /// Returns the grid, the report with [`ExecutionReport::metrics`]
    /// attached, and the full [`idg_obs::Trace`] (spans + counter
    /// snapshot, exportable with [`idg_obs::chrome_trace_json`]). On
    /// clean runs — no fault injection, no retries, no CPU fallback —
    /// the measured kernel counters are cross-validated against the
    /// analytic `idg_perf` model with exact integer equality; a
    /// mismatch fails the pass with [`IdgError::Internal`], so every
    /// observed run doubles as an assertion that the performance model
    /// is correct.
    pub fn grid_observed(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed("gridding", || self.grid(plan, uvw, visibilities, aterms))
    }

    /// Run [`Proxy::degrid`] under an observability session (see
    /// [`Proxy::grid_observed`] for the validation contract).
    pub fn degrid_observed(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed("degridding", || self.degrid(plan, grid, uvw, aterms))
    }

    /// Cross-validate an observed pass, one-shot or streamed: hold its
    /// measured kernel counters to the analytic model the report
    /// already carries — exact integer equality, field by field — and
    /// its kernel-cache lookups to the expected cadence (as
    /// deterministic as the op counts).
    ///
    /// Skipped for runs where kernels legitimately execute more than
    /// once per work item: retries and CPU fallbacks re-run them, fault
    /// injection may re-run the compute phase for checksum staging, and
    /// on a fleet member faults, breaker re-dispatches and degraded
    /// (chunked) jobs all change how often kernels and cache lookups
    /// run per item.
    fn validate_measured(&self, report: &ExecutionReport) -> Result<(), IdgError> {
        let fleet_perturbed = |f: &FleetStats| {
            f.redispatched_jobs > 0 || f.degradation_steps > 0 || f.breaker_trips > 0
        };
        let member_faults = self
            .fleet
            .as_ref()
            .is_some_and(|c| !c.member_faults.is_empty());
        let perturbed = self.fault_config.is_some()
            || member_faults
            || report.nr_retries > 0
            || !report.fallback_jobs.is_empty()
            || report.fleet.as_ref().is_some_and(fleet_perturbed);
        let Some(metrics) = report.metrics.as_ref().filter(|_| !perturbed) else {
            return Ok(());
        };
        let (items, jobs) = (report.launched_items as u64, report.launched_jobs as u64);
        // a one-shot pass is the one-chunk row of the table below
        let chunks = report.stream.as_ref().map_or(1, |s| s.nr_chunks as u64);
        // Cache cadence. Phasor tables are looked up by whoever runs
        // the adder/splitter, geometry planes by the optimized and GPU
        // kernels. Gridding commits on the host once (one phasor
        // lookup) on every path but one: the one-shot GPU pass adds
        // per job, so each job looks phasors up itself — the only row
        // where one-shot and streamed truly differ, because a stream
        // defers every job's subgrids to the single final commit.
        // Degridding splits where it predicts (per chunk on the CPU,
        // per job on the GPU) and its final visibility commit is plain
        // copies — no lookup.
        let streamed = report.stream.is_some();
        let expected_lookups = match (self.backend, report.pass == "gridding") {
            (Backend::CpuReference, true) => 1,
            (Backend::CpuReference, false) => chunks,
            (Backend::CpuOptimized, true) => chunks + 1,
            (Backend::CpuOptimized, false) => 2 * chunks,
            (Backend::GpuPascal | Backend::GpuFiji, true) if streamed => jobs + 1,
            (Backend::GpuPascal | Backend::GpuFiji, _) => 2 * jobs,
        };

        let (k, analytic) = (metrics.pass_kernel(), &report.counts);
        let lookups = metrics.cache_hits + metrics.cache_misses;
        let checks = [
            ("visibilities", k.visibilities, analytic.visibilities),
            ("sincos_pairs", k.sincos_pairs, analytic.sincos_pairs),
            ("fmas", k.fmas, analytic.fmas),
            ("dram_bytes", k.dram_bytes, analytic.dram_bytes),
            ("shared_bytes", k.shared_bytes, analytic.shared_bytes),
            ("invocations", k.invocations, items),
            ("cache lookups", lookups, expected_lookups),
        ];
        for (name, measured, predicted) in checks {
            if measured != predicted {
                return Err(IdgError::Internal(format!(
                    "observability self-validation failed: {} {name} measured {measured} \
                     != expected {predicted}",
                    report.pass
                )));
            }
        }
        Ok(())
    }

    /// Predict visibilities from a model grid.
    pub fn degrid(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let data = self.degridding_input(grid, uvw, &zeros, aterms)?;
        let nr_items = plan.items.len();
        match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let (vis, seconds) = self.host_degrid_chain(&data, &plan.items, grid, None)?;
                let counts = degridder_counts(&plan.items, self.obs.subgrid_size);
                let report = self.measured_report("degridding", counts, nr_items, seconds);
                Ok((vis, report))
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let (mut vis, totals, fleet) = self.on_device(
                    |e| e.degrid(&data, plan, grid),
                    |f| f.degrid(&data, plan, grid),
                )?;
                let fallback_jobs = self.cpu_fallback(plan, &totals.failed_jobs, |_, items| {
                    self.reference_predict(&data, items, grid, &mut vis)
                })?;
                let report = self.device_report(totals, nr_items, fallback_jobs, fleet);
                Ok((vis, report))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};

    fn dataset() -> Dataset {
        dataset_of(32)
    }

    fn dataset_of(timesteps: usize) -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(timesteps)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 71);
        let sky = SkyModel::random(&obs, 4, 0.6, 73);
        let beam = GaussianBeam::new(&obs, 0.8, 79);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    #[test]
    fn all_backends_produce_equivalent_grids() {
        let ds = dataset();
        let mut grids = Vec::new();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, report) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert!(grid.power() > 0.0, "{backend:?}");
            assert_eq!(report.pass, "gridding");
            assert_eq!(
                report.modeled,
                matches!(backend, Backend::GpuPascal | Backend::GpuFiji)
            );
            grids.push(grid);
        }
        let reference = &grids[0];
        let scale = reference
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for grid in &grids[1..] {
            for (a, b) in grid.as_slice().iter().zip(reference.as_slice()) {
                assert!((*a - *b).abs() / scale < 3e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn all_backends_produce_equivalent_predictions() {
        let ds = dataset();
        // model grid: grid the data once
        let proxy0 = Proxy::new(Backend::CpuReference, ds.obs.clone()).unwrap();
        let plan = proxy0.plan(&ds.uvw).unwrap();
        let (grid, _) = proxy0
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let mut results = Vec::new();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let (vis, report) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
            assert_eq!(report.pass, "degridding");
            assert!(report.counts.visibilities > 0);
            results.push(vis);
        }
        let reference = &results[0];
        let scale = reference
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for vis in &results[1..] {
            for (a, b) in vis.iter().zip(reference.iter()) {
                for p in 0..4 {
                    assert!((a.pols[p] - b.pols[p]).abs() / scale < 3e-3);
                }
            }
        }
    }

    #[test]
    fn gpu_reports_contain_energy_and_pipeline_metrics() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.device_energy_j.unwrap() > 0.0);
        assert!(report.host_energy_j.unwrap() > 0.0);
        assert!(report.mvis_per_sec() > 0.0);
        assert!(report.kernel_tops() > 0.0);
    }

    #[test]
    fn cpu_reports_are_measured() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(!report.modeled);
        assert!(report.total_seconds > 0.0);
        assert!(report.device_energy_j.is_none());
        let text = report.to_string();
        assert!(text.contains("cpu-optimized"));
    }

    #[test]
    fn degrid_rejects_wrong_grid_size() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let wrong = Grid::<f32>::new(64);
        assert!(matches!(
            proxy.degrid(&plan, &wrong, &ds.uvw, &ds.aterms),
            Err(IdgError::ShapeMismatch { what: "grid", .. })
        ));
    }

    #[test]
    fn non_finite_inputs_are_rejected_with_a_typed_error() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let mut bad_vis = ds.visibilities.clone();
        bad_vis[7].pols[2].im = f32::NAN;
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("visibility 7")
        ));
        assert!(matches!(
            proxy.grid_stages(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("visibility 7")
        ));

        let mut bad_vis = ds.visibilities.clone();
        bad_vis[0].pols[0].re = f32::INFINITY;
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));

        let mut bad_uvw = ds.uvw.clone();
        bad_uvw[3].w = f32::NAN;
        assert!(matches!(
            proxy.grid(&plan, &bad_uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("uvw coordinate 3")
        ));
        assert!(matches!(
            proxy.grid_stages(&plan, &bad_uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("uvw coordinate 3")
        ));
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(matches!(
            proxy.degrid(&plan, &grid, &bad_uvw, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));
        assert!(matches!(
            proxy.degrid_stages(&plan, &grid, &bad_uvw, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("uvw coordinate 3")
        ));

        // One model-grid check behind every degridding entry point, and
        // it sees every sample: the check folds 64 Ki-sample blocks (this
        // grid has four), so poison the first and last sample and both
        // sides of a block boundary, in either component.
        let config = StreamConfig::new(idg_stream::ChunkPolicy::by_timesteps(8), 2, 2);
        let last = grid.as_slice().len() - 1;
        assert!(last > 2 * 65_536);
        for index in [0, 65_535, 65_536, last] {
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for in_re in [true, false] {
                    let mut bad_grid = grid.clone();
                    let sample = &mut bad_grid.as_mut_slice()[index];
                    *(if in_re {
                        &mut sample.re
                    } else {
                        &mut sample.im
                    }) = poison;
                    let case = format!("{poison} at {index}, re: {in_re}");
                    assert!(
                        matches!(
                            proxy.degrid(&plan, &bad_grid, &ds.uvw, &ds.aterms),
                            Err(IdgError::InvalidParameter(_))
                        ),
                        "degrid, {case}"
                    );
                    assert!(
                        matches!(
                            proxy.degrid_stages(&plan, &bad_grid, &ds.uvw, &ds.aterms),
                            Err(IdgError::InvalidParameter(_))
                        ),
                        "degrid_stages, {case}"
                    );
                    assert!(
                        matches!(
                            proxy.degrid_streamed(&config, &bad_grid, &ds.uvw, &ds.aterms),
                            Err(IdgError::InvalidParameter(_))
                        ),
                        "degrid_streamed, {case}"
                    );
                }
            }
        }
        assert!(proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).is_ok());
        assert!(proxy
            .degrid_stages(&plan, &grid, &ds.uvw, &ds.aterms)
            .is_ok());
        assert!(proxy
            .degrid_streamed(&config, &grid, &ds.uvw, &ds.aterms)
            .is_ok());
    }

    #[test]
    fn plans_foreign_to_the_observation_are_rejected_with_a_typed_error() {
        // `Plan.items` and `WorkItem`'s fields are public: a plan made
        // for another observation, or edited by hand, must come back as
        // a typed error from every back-end's launch check — it used to
        // panic inside the kernels' rayon workers.
        let ds = dataset();
        let longer = dataset_of(64);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();

        let foreign = Plan::create(&longer.obs, &longer.uvw).unwrap();
        let mut duplicated = plan.clone();
        duplicated.items.insert(1, duplicated.items[0]);
        let mut out_of_band = plan.clone();
        out_of_band.items[2].channel_offset = ds.obs.nr_channels();
        let cases = [
            ("foreign plan", &foreign, "time_offset + nr_timesteps"),
            ("duplicated item", &duplicated, "both cover visibility"),
            (
                "channel_offset past the band",
                &out_of_band,
                "channel_offset + nr_channels",
            ),
        ];

        let model = Grid::<f32>::new(ds.obs.grid_size);
        for backend in [
            Backend::CpuOptimized,
            Backend::CpuReference,
            Backend::GpuPascal,
        ] {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            for (what, bad_plan, field) in cases {
                let gridded = proxy.grid(bad_plan, &ds.uvw, &ds.visibilities, &ds.aterms);
                assert!(
                    matches!(&gridded, Err(IdgError::InvalidParameter(msg)) if msg.contains(field)),
                    "{backend:?} grid, {what}: {:?}",
                    gridded.err()
                );
                let predicted = proxy.degrid(bad_plan, &model, &ds.uvw, &ds.aterms);
                assert!(
                    matches!(&predicted, Err(IdgError::InvalidParameter(msg)) if msg.contains(field)),
                    "{backend:?} degrid, {what}: {:?}",
                    predicted.err()
                );
                // the staged entry points launch the back-end's kernels
                // directly (no device pass in front of the GPU ones)
                assert!(
                    matches!(
                        proxy.grid_stages(bad_plan, &ds.uvw, &ds.visibilities, &ds.aterms),
                        Err(IdgError::InvalidParameter(_))
                    ),
                    "{backend:?} grid_stages, {what}"
                );
                assert!(
                    matches!(
                        proxy.degrid_stages(bad_plan, &model, &ds.uvw, &ds.aterms),
                        Err(IdgError::InvalidParameter(_))
                    ),
                    "{backend:?} degrid_stages, {what}"
                );
            }
        }
    }

    #[test]
    fn persistent_device_faults_fall_back_to_the_cpu() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 4;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        // job 1 hits device OOM: persistent, so the proxy re-executes
        // its work items on the CPU reference kernels
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 1,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        assert_eq!(report.fallback_jobs.len(), 1);
        assert_eq!(report.fallback_jobs[0].job, 1);
        assert!(!report.fallback_jobs[0].error.is_transient());
        assert!(report.to_string().contains("re-executed on the CPU"));

        // the merged grid is numerically equivalent to the all-device
        // run (the fallback kernels are the f64 reference family)
        let scale = gold
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for (a, b) in grid.as_slice().iter().zip(gold.as_slice()) {
            assert!((*a - *b).abs() / scale < 3e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn disabled_fallback_surfaces_the_classified_error() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuFiji, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        proxy.cpu_fallback = false;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::DeviceOutOfMemory { .. })
        ));
    }

    #[test]
    fn transient_faults_recover_without_fallback() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 8;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::HtoD,
            kind: FaultKind::TransferCorruption,
        }]));
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(report.nr_retries, 1);
        assert!(report.backoff_seconds > 0.0);
        assert!(report.fallback_jobs.is_empty());
        assert_eq!(grid.as_slice(), gold.as_slice(), "recovery is exact");
    }

    #[test]
    fn observed_runs_self_validate_on_every_backend() {
        // The acceptance contract of the observability layer: an
        // instrumented pass yields measured counters exactly equal to
        // the analytic perf model (validate_measured errors otherwise),
        // and the Chrome export is valid JSON.
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, report, trace) = proxy
                .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert!(grid.power() > 0.0);
            let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
            assert_eq!(report.effective_counts(), analytic, "{backend:?} gridding");
            assert_eq!(report.launched_items, plan.items.len(), "{backend:?}");
            assert_eq!(trace.metrics.pass, "gridding");
            assert_eq!(trace.metrics.planned_items, 0, "plan made outside session");
            let json = idg_obs::chrome_trace_json(&trace);
            idg_obs::validate_json(&json).unwrap_or_else(|e| panic!("{backend:?}: {e}"));

            let (_, dreport, dtrace) = proxy
                .degrid_observed(&plan, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            let danalytic = degridder_counts(&plan.items, ds.obs.subgrid_size);
            assert_eq!(
                dreport.effective_counts(),
                danalytic,
                "{backend:?} degridding"
            );
            assert_eq!(dtrace.metrics.subgrids_split, plan.nr_subgrids() as u64);
        }
    }

    #[test]
    fn observed_gpu_trace_has_one_stage_span_per_job() {
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, _, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let nr_jobs = plan.work_groups(8).count();
        assert!(nr_jobs > 1);
        for job in 0..nr_jobs as u32 {
            let stages = trace
                .spans
                .iter()
                .filter(|s| s.cat == "stage" && s.job == Some(job))
                .count();
            assert_eq!(stages, 3, "HtoD/Compute/DtoH for job {job}");
        }
        // the session-level pass span is present exactly once
        assert_eq!(trace.spans.iter().filter(|s| s.cat == "pass").count(), 1);
    }

    #[test]
    fn unobserved_runs_attach_no_metrics() {
        // Backward compatibility: the default path never records.
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.metrics.is_none());
        assert_eq!(report.effective_counts(), report.counts);
    }

    #[test]
    fn observed_fallback_run_counts_fallback_jobs_and_skips_validation() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 1,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(report.fallback_jobs.len(), 1);
        assert_eq!(trace.metrics.fallback_jobs, 1);
        // every visibility was gridded exactly once in the end — the
        // failed job's by the CPU fallback, the rest on the device
        let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
        assert_eq!(trace.metrics.gridder.visibilities, analytic.visibilities);
    }

    #[test]
    fn second_pass_reuses_the_kernel_cache_bit_identically() {
        // The tables built by the first pass serve every later one: the
        // second gridding pass reports only cache hits, and its grid is
        // bit-identical to the first (cached tables hold the very same
        // values the cold path computed).
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let (first, _, trace1) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace1.metrics.cache_misses, 2, "cold pass builds tables");
        assert_eq!(trace1.metrics.cache_hits, 0);

        let (second, _, trace2) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace2.metrics.cache_hits, 2, "warm pass reuses tables");
        assert_eq!(trace2.metrics.cache_misses, 0);
        assert_eq!(first.as_slice(), second.as_slice());

        // the cache itself agrees with the per-session counters
        assert_eq!(proxy.kernel_cache().misses(), 2);
        assert_eq!(proxy.kernel_cache().hits(), 2);
    }

    #[test]
    fn gpu_passes_share_the_proxy_cache_across_executors() {
        // Each grid() call builds a fresh GpuExecutor, but the cache is
        // the proxy's: the second pass is all hits.
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let plan = proxy.plan(&ds.uvw).unwrap();
        let jobs = plan.work_groups(8).count() as u64;
        assert!(jobs > 1);

        let (first, _, trace1) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace1.metrics.cache_misses, 2, "one build per table kind");
        assert_eq!(trace1.metrics.cache_hits, 2 * jobs - 2);

        let (second, _, trace2) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace2.metrics.cache_misses, 0);
        assert_eq!(trace2.metrics.cache_hits, 2 * jobs);
        assert_eq!(first.as_slice(), second.as_slice());
    }

    #[test]
    fn clean_fleet_passes_match_the_single_device_backend_bit_identically() {
        let ds = dataset();
        let mut single = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        single.work_group_size = 4;
        let plan = single.plan(&ds.uvw).unwrap();
        let (gold_grid, gold_report) = single
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (gold_vis, _) = single
            .degrid(&plan, &gold_grid, &ds.uvw, &ds.aterms)
            .unwrap();
        assert!(gold_report.fleet.is_none(), "single device: no fleet stats");

        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_fleet(3);
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(grid.as_slice(), gold_grid.as_slice(), "bit-identical merge");
        let stats = report.fleet.as_ref().unwrap();
        assert_eq!(stats.nr_devices, 3);
        assert_eq!(stats.per_device.len(), 3);
        assert_eq!(stats.breaker_trips, 0);
        assert_eq!(stats.redispatched_jobs, 0);
        assert!(
            report.total_seconds < gold_report.total_seconds,
            "three devices beat one: {} vs {}",
            report.total_seconds,
            gold_report.total_seconds
        );
        assert!(report.to_string().contains("3 devices"));

        let (vis, dreport) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
        assert_eq!(vis, gold_vis, "fleet degridding matches one device");
        assert!(dreport.fleet.is_some());
    }

    #[test]
    fn observed_clean_fleet_runs_self_validate() {
        // A fault-free fleet keeps the per-job kernel/cache cadence of
        // the single-device path, so validate_measured stays armed.
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_fleet(2);
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (grid, report, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(grid.power() > 0.0);
        let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
        assert_eq!(report.effective_counts(), analytic);
        assert_eq!(trace.metrics.breaker_trips, 0);
    }

    #[test]
    fn fleet_absorbs_a_lemon_device_without_cpu_fallback() {
        use idg_gpusim::BreakerConfig;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 1;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let lemon = FaultConfig {
            seed: 8,
            transfer_corruption_rate: 0.25,
            kernel_fault_rate: 0.2,
            stall_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 1;
        let proxy = proxy.with_fleet_config(FleetConfig {
            nr_devices: 4,
            member_faults: vec![(1, lemon)],
            breaker: Some(BreakerConfig {
                window: 4,
                trip_unhealthy: 2,
                cooldown_seconds: 0.5,
                half_open_probes: 2,
            }),
        });
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.fallback_jobs.is_empty(), "peers absorb the lemon");
        let stats = report.fleet.as_ref().unwrap();
        assert!(stats.breaker_trips > 0, "the lemon trips its breaker");
        assert!(stats.redispatched_jobs > 0, "its jobs move to peers");
        assert_eq!(grid.as_slice(), gold.as_slice(), "still bit-identical");
    }

    #[test]
    fn fleet_member_fault_index_out_of_range_is_rejected() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone())
            .unwrap()
            .with_fleet_config(FleetConfig {
                nr_devices: 2,
                member_faults: vec![(5, FaultConfig::default())],
                breaker: None,
            });
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("out of range")
        ));
    }

    #[test]
    fn proxy_validates_observation() {
        let bad = Observation {
            nr_stations: 1,
            ..dataset().obs
        };
        assert!(Proxy::new(Backend::CpuOptimized, bad).is_err());
    }
}
