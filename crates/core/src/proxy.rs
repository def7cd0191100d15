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
    BreakerConfig, Device, FaultConfig, FleetExecutor, FleetRunReport, GpuExecutor, GriddedJob,
    JobFailure, PassTotals, RetryPolicy,
};
use idg_kernels::{
    add_subgrids, check_launch, check_placement, degridder_cpu, degridder_reference, fft_subgrids,
    gridder_cpu, gridder_reference, split_subgrids, FftNorm, KernelData, KernelTables,
    SubgridArray,
};
use idg_math::Accuracy;
use idg_perf::{cpu_degridder_counts, degridder_counts, gridder_counts, OpCounts};
use idg_plan::{Plan, WorkItem};
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Observation, Uvw, Visibility};
use std::ops::Range;
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
            nr_devices,
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
    /// Work items per job (Fig. 6's work group) on every back-end: a
    /// device pass transfers and launches one job at a time, a host
    /// pass runs each job through its whole kernel chain in one reused
    /// job-sized subgrid buffer. `0` is taken as `1`.
    pub work_group_size: usize,
    /// Optional device fault-injection schedule (GPU back-ends).
    pub fault_config: Option<FaultConfig>,
    /// Retry policy for transient device faults (GPU back-ends).
    pub retry_policy: RetryPolicy,
    /// Re-execute persistently failed device jobs on the CPU reference
    /// kernels (graceful degradation; the fallback is flagged in the
    /// report). A gridding job is re-gridded at its turn in the job-order
    /// commit, so its subgrids are added where the device's would have
    /// been; a degridding job is re-predicted into its own slots. When
    /// disabled, a persistent device fault fails the whole pass with its
    /// classified error (see [`Proxy::grid_into`] for what a gridding
    /// pass has added by then).
    pub cpu_fallback: bool,
    /// Multi-device execution: when set, GPU passes run on a
    /// [`FleetExecutor`] over `nr_devices` clones of the back-end's
    /// device model instead of a single [`GpuExecutor`].
    pub fleet: Option<FleetConfig>,
    /// The kernel tables of the observation's subgrid geometry (its
    /// direction-cosine planes and adder/splitter phasors), built with
    /// the taper and read by every pass.
    tables: KernelTables,
}

impl Proxy {
    /// Create a proxy; precomputes the prolate-spheroidal taper and the
    /// kernel tables.
    pub fn new(backend: Backend, obs: Observation) -> Result<Self, IdgError> {
        obs.validate()?;
        let taper = idg_math::spheroidal_2d(obs.subgrid_size);
        let tables = KernelTables::for_observation(&obs);
        Ok(Self {
            backend,
            obs,
            taper,
            work_group_size: 256,
            fault_config: None,
            retry_policy: RetryPolicy::default(),
            cpu_fallback: true,
            fleet: None,
            tables,
        })
    }

    /// The proxy's kernel tables, which every pass reads. The name is
    /// the repository benchmark's; ROADMAP item 1a's benchmark change
    /// renames it.
    pub fn kernel_cache(&self) -> &KernelTables {
        &self.tables
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

    /// Work items per job: [`Proxy::work_group_size`], at least one. The
    /// one reading of the field — host job loop, executors and reports.
    fn job_size(&self) -> usize {
        self.work_group_size.max(1)
    }

    fn executor(&self) -> Result<GpuExecutor<'_>, IdgError> {
        let executor = GpuExecutor::new(self.device()?, self.job_size(), &self.tables)
            .with_retry_policy(self.retry_policy);
        Ok(match &self.fault_config {
            Some(f) => executor.with_faults(f.clone()),
            None => executor,
        })
    }

    /// Build the fleet executor for `config`, sharing the proxy's
    /// kernel tables across all members.
    fn fleet_executor(&self, config: &FleetConfig) -> Result<FleetExecutor<'_>, IdgError> {
        // `uniform` is the one clamp of the member count: everything
        // below reads the fleet's own members
        let device = self.device()?;
        let mut fleet =
            FleetExecutor::uniform(device, config.nr_devices, self.job_size(), &self.tables)
                .with_retry_policy(self.retry_policy);
        if let Some(f) = &self.fault_config {
            for member in &mut fleet.members {
                member.faults = Some(f.clone());
            }
        }
        for (member, faults) in &config.member_faults {
            fleet = fleet.with_member_faults(*member, faults.clone())?;
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
    /// streamed and staged: buffer shapes (visibilities included), then
    /// finite visibilities, then finite uvw. Returns the kernel inputs
    /// of the pass.
    pub(crate) fn gridding_input<'a>(
        &'a self,
        uvw: &'a [Uvw],
        visibilities: &'a [Visibility<f32>],
        aterms: &'a ATerms,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = self.kernel_data(uvw, visibilities, aterms)?;
        data.validate_visibilities()?;
        check_finite_vis(visibilities)?;
        check_finite_uvw(uvw)?;
        Ok(data)
    }

    /// The one input check of every degridding entry point — one-shot,
    /// streamed and staged: buffer shapes, then finite uvw, then the
    /// model grid's size. Returns the kernel inputs of the pass, which
    /// carry no visibilities: the degridders write into the pass's one
    /// output buffer and read none. The grid's samples are checked where
    /// they are read: the splitter rejects a non-finite sample in any
    /// footprint ([`split_subgrids`]), so a pass reads no sample it does
    /// not use.
    pub(crate) fn degridding_input<'a>(
        &'a self,
        grid: &Grid<f32>,
        uvw: &'a [Uvw],
        aterms: &'a ATerms,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = self.kernel_data(uvw, &[], aterms)?;
        check_finite_uvw(uvw)?;
        self.check_grid_size(grid)?;
        Ok(data)
    }

    /// A grid a pass reads or adds onto must have the observation's size.
    fn check_grid_size(&self, grid: &Grid<f32>) -> Result<(), IdgError> {
        if grid.size() != self.obs.grid_size {
            return Err(IdgError::ShapeMismatch {
                what: "grid",
                expected: self.obs.grid_size,
                actual: grid.size(),
            });
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
                gridder_cpu(data, items, subgrids, Accuracy::Medium, &self.tables)
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                gridder_gpu(data, items, subgrids, &self.device()?, &self.tables).map(|_| ())
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
                degridder_cpu(data, items, subgrids, vis, Accuracy::Medium, &self.tables)
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                degridder_gpu(data, items, subgrids, vis, &self.device()?, &self.tables).map(|_| ())
            }
        }
    }

    /// The whole-plan launch check of a host pass, run before its first
    /// job, as the device pass runs it: [`check_launch`] over every item
    /// (jobs are separate launches, so only this walk sees an item two
    /// jobs share) and every subgrid footprint inside the grid. An input
    /// error thus fails the pass before any job has added onto a grid.
    fn check_plan(&self, data: &KernelData<'_>, plan: &Plan) -> Result<(), IdgError> {
        check_launch(data, &plan.items, None)?;
        check_placement(self.obs.grid_size, self.obs.subgrid_size, &plan.items)
    }

    /// The host gridding chain, job by job: each work group of
    /// [`Proxy::job_size`] items of `plan` runs gridder → subgrid FFT
    /// through one reused job-sized subgrid buffer (the gridder
    /// overwrites every sample), then `add` takes the job's `plan.items`
    /// range and its Fourier-domain subgrids. Returns `[kernel, fft,
    /// adder]` wall-clock seconds; `tag` labels the stage spans (the
    /// chunk index of a streamed pass).
    fn host_grid_jobs(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        tag: Option<u32>,
        mut add: impl FnMut(Range<usize>, &SubgridArray) -> Result<(), IdgError>,
    ) -> Result<[f64; 3], IdgError> {
        self.check_plan(data, plan)?;
        let job_size = self.job_size();
        let mut subgrids = SubgridArray::new(plan.items.len().min(job_size), self.obs.subgrid_size);
        let mut seconds = [0.0; 3];
        let mut first = 0;
        for items in plan.work_groups(job_size) {
            let t0 = Instant::now();
            subgrids.truncate(items.len());
            {
                let _span = idg_obs::wall_span("gridder", "stage", tag);
                self.launch_gridder(data, items, &mut subgrids)?;
            }
            let t1 = Instant::now();
            {
                let _span = idg_obs::wall_span("subgrid_fft", "stage", tag);
                fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
            }
            let t2 = Instant::now();
            add(first..first + items.len(), &subgrids)?;
            first += items.len();
            seconds[0] += (t1 - t0).as_secs_f64();
            seconds[1] += (t2 - t1).as_secs_f64();
            seconds[2] += t2.elapsed().as_secs_f64();
        }
        Ok(seconds)
    }

    /// The host degridding chain, job by job: each work group of
    /// [`Proxy::job_size`] items of `plan` runs splitter → inverse
    /// subgrid FFT → degridder through one reused job-sized subgrid
    /// buffer (the splitter overwrites every sample). Returns the
    /// predicted visibilities, in the extent of `data.obs` (a streamed
    /// chunk's window, or the observation), and `[kernel, fft,
    /// splitter]` wall-clock seconds.
    fn host_degrid_jobs(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
        tag: Option<u32>,
    ) -> Result<(Vec<Visibility<f32>>, [f64; 3]), IdgError> {
        self.check_plan(data, plan)?;
        let job_size = self.job_size();
        let mut subgrids = SubgridArray::new(plan.items.len().min(job_size), self.obs.subgrid_size);
        let mut vis = Visibility::<f32>::zeroed_vec(data.obs.nr_visibilities());
        let mut seconds = [0.0; 3];
        for items in plan.work_groups(job_size) {
            let t0 = Instant::now();
            subgrids.truncate(items.len());
            {
                let _span = idg_obs::wall_span("splitter", "stage", tag);
                split_subgrids(grid, items, &mut subgrids, &self.tables)?;
            }
            let t1 = Instant::now();
            {
                let _span = idg_obs::wall_span("subgrid_ifft", "stage", tag);
                fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
            }
            let t2 = Instant::now();
            {
                let _span = idg_obs::wall_span("degridder", "stage", tag);
                self.launch_degridder(data, items, &subgrids, &mut vis)?;
            }
            seconds[0] += t2.elapsed().as_secs_f64();
            seconds[1] += (t2 - t1).as_secs_f64();
            seconds[2] += (t1 - t0).as_secs_f64();
        }
        Ok((vis, seconds))
    }

    /// Run one device pass on whichever executor the proxy is
    /// configured for — the single device, or the fleet — and split
    /// the result into output, shared totals and (fleet only) the
    /// multi-device statistics. `arg` is handed to the executor that
    /// runs: the model grid a degrid pass reads, the commit closure a
    /// gridding pass hands its jobs to.
    fn on_device<A, T>(
        &self,
        arg: A,
        single: impl FnOnce(&GpuExecutor, A) -> Result<(T, PassTotals), IdgError>,
        fleet: impl FnOnce(&FleetExecutor, A) -> Result<(T, FleetRunReport), IdgError>,
    ) -> Result<(T, PassTotals, Option<FleetStats>), IdgError> {
        let Some(config) = &self.fleet else {
            return single(&self.executor()?, arg).map(|(out, totals)| (out, totals, None));
        };
        let (out, report) = fleet(&self.fleet_executor(config)?, arg)?;
        let stats = FleetStats {
            nr_devices: report.per_device.len(),
            redispatched_jobs: report.redispatched_jobs,
            degradation_steps: report.degradation_steps,
            breaker_trips: report.breaker_trips,
            per_device: report.per_device,
        };
        Ok((out, report.totals, Some(stats)))
    }

    /// Graceful degradation of one job a device pass failed for good:
    /// run `redo`, which re-executes the job on the CPU reference
    /// kernels, under a `cpu_fallback` span. Errors with the job's
    /// classified error when the fallback is disabled.
    fn fall_back<T>(
        &self,
        failure: &JobFailure,
        redo: impl FnOnce() -> Result<T, IdgError>,
    ) -> Result<T, IdgError> {
        if !self.cpu_fallback {
            return Err(failure.error.clone());
        }
        idg_obs::add_fallback_jobs(1);
        let _span = idg_obs::wall_span("cpu_fallback", "job", u32::try_from(failure.job).ok());
        redo()
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
        split_subgrids(grid, items, &mut subgrids, &self.tables)?;
        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        degridder_reference(data, items, &subgrids, vis)
    }

    /// The report of a pass over `nr_items` work items measured on the
    /// host: `[kernel, fft, adder/splitter]` wall-clock seconds, summed
    /// over its jobs of [`Proxy::job_size`] items.
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
            launched_jobs: nr_items.div_ceil(self.job_size()),
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
    /// device executors, from the totals both executors share. A pass
    /// that gets here has re-executed every failed job on the CPU.
    fn device_report(
        &self,
        totals: PassTotals,
        nr_items: usize,
        fleet: Option<FleetStats>,
    ) -> ExecutionReport {
        ExecutionReport {
            modeled: true,
            transfer_seconds: totals.htod_seconds + totals.dtoh_seconds,
            total_seconds: totals.makespan,
            device_energy_j: Some(totals.device_energy_j),
            host_energy_j: Some(totals.host_energy_j),
            nr_retries: totals.nr_retries,
            backoff_seconds: totals.backoff_seconds,
            fallback_jobs: totals.failed_jobs.clone(),
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
        let mut grid = Grid::<f32>::new(self.obs.grid_size);
        let report = self.grid_into(&mut grid, plan, uvw, visibilities, aterms)?;
        Ok((grid, report))
    }

    /// Grid visibilities and **add** the pass onto `grid`, which the
    /// caller owns: [`Proxy::grid`] is this onto a fresh zeroed grid,
    /// bit for bit. Reusing one grid across passes (`clear`, then
    /// `grid_into`) saves mapping, faulting and unmapping a fresh
    /// grid-sized buffer per pass.
    ///
    /// # Errors
    /// A grid of the wrong size is an [`IdgError::ShapeMismatch`]; it
    /// and every input error [`Proxy::grid`] returns (non-finite
    /// samples, a plan foreign to the observation) leave `grid`
    /// untouched. A host pass adds job by job but checks its whole plan
    /// first, so a subgrid off the grid leaves it untouched too. A
    /// device pass checks footprints per job and adds each job in job
    /// order: one that fails part-way has already added the jobs before
    /// the failing one. So has one that meets a job the device failed
    /// for good with `cpu_fallback` off — the pass then returns that
    /// job's classified device error.
    pub fn grid_into(
        &self,
        grid: &mut Grid<f32>,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<ExecutionReport, IdgError> {
        let data = self.gridding_input(uvw, visibilities, aterms)?;
        self.check_grid_size(grid)?;
        self.grid_pass(grid, &data, plan, None)
    }

    /// The one gridding body, behind [`Proxy::grid_into`] and every
    /// streamed gridding chunk (the twin of [`Proxy::degrid_pass`]): the
    /// back-end's gridder → subgrid FFT over `plan`, job by job, adding
    /// each job's subgrids onto `grid` in job order as it is handed over.
    /// On a host back-end the adds' wall time is the report's adder
    /// column. On the device back-ends a job the device failed for good
    /// is re-gridded on the CPU reference kernels at its turn, so the
    /// adds run in the order of a host pass. `tag` labels the host stage and adder spans (the
    /// chunk index of a streamed pass).
    fn grid_pass(
        &self,
        grid: &mut Grid<f32>,
        data: &KernelData<'_>,
        plan: &Plan,
        tag: Option<u32>,
    ) -> Result<ExecutionReport, IdgError> {
        let nr_items = plan.items.len();
        let mut add = |range: Range<usize>, subgrids: &SubgridArray| {
            let _span = idg_obs::wall_span("adder", "stage", tag);
            add_subgrids(grid, &plan.items[range], subgrids, &self.tables)
        };
        match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let seconds = self.host_grid_jobs(data, plan, tag, add)?;
                let counts = gridder_counts(&plan.items, self.obs.subgrid_size);
                Ok(self.measured_report("gridding", counts, nr_items, seconds))
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let mut hand_over = |range: Range<usize>, job: GriddedJob<'_>| {
                    let subgrids = match job {
                        Ok(subgrids) => subgrids,
                        Err(failure) => self.fall_back(failure, || {
                            self.reference_subgrids(data, &plan.items[range.clone()])
                        })?,
                    };
                    add(range, &subgrids)
                };
                let ((), totals, fleet) = self.on_device(
                    &mut hand_over,
                    |e, commit| e.grid(data, plan, commit).map(|t| ((), t)),
                    |f, commit| f.grid(data, plan, commit).map(|r| ((), r)),
                )?;
                Ok(self.device_report(totals, nr_items, fleet))
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
    /// its subgrid FFT/adder/splitter calls, fleet health outcomes and
    /// stream chunks to their closed forms in the launched items, jobs
    /// and chunks (as deterministic as the op counts).
    ///
    /// Skipped for runs where kernels legitimately execute more than
    /// once per work item: retries and CPU fallbacks re-run them, fault
    /// injection may re-run the compute phase for checksum staging, and
    /// on a fleet member faults, breaker re-dispatches and degraded
    /// (chunked) jobs all change how often kernels run per item. A
    /// fault schedule perturbs only the GPU back-ends; the CPU
    /// back-ends ignore it.
    fn validate_measured(&self, report: &ExecutionReport) -> Result<(), IdgError> {
        let fleet_perturbed = |f: &FleetStats| {
            f.redispatched_jobs > 0 || f.degradation_steps > 0 || f.breaker_trips > 0
        };
        let member_faults = self
            .fleet
            .as_ref()
            .is_some_and(|c| !c.member_faults.is_empty());
        let on_device = matches!(self.backend, Backend::GpuPascal | Backend::GpuFiji);
        let perturbed = on_device && (self.fault_config.is_some() || member_faults)
            || report.nr_retries > 0
            || !report.fallback_jobs.is_empty()
            || report.fleet.as_ref().is_some_and(fleet_perturbed);
        let Some(metrics) = report.metrics.as_ref().filter(|_| !perturbed) else {
            return Ok(());
        };
        let (items, jobs) = (report.launched_items as u64, report.launched_jobs as u64);

        // Every launched item takes one subgrid FFT and one adder call
        // when gridding, one splitter call and one inverse FFT when
        // degridding; a fleet records one health outcome per job, and
        // a stream ingests each of its chunks once.
        let (forward, inverse) = if report.pass == "gridding" {
            (items, 0)
        } else {
            (0, items)
        };
        let outcomes = if report.fleet.is_some() { jobs } else { 0 };
        let chunks = report.stream.as_ref().map_or(0, |s| s.nr_chunks as u64);

        let (k, analytic) = (metrics.pass_kernel(), &report.counts);
        let checks = [
            ("visibilities", k.visibilities, analytic.visibilities),
            ("sincos_pairs", k.sincos_pairs, analytic.sincos_pairs),
            ("fmas", k.fmas, analytic.fmas),
            ("dram_bytes", k.dram_bytes, analytic.dram_bytes),
            ("shared_bytes", k.shared_bytes, analytic.shared_bytes),
            ("invocations", k.invocations, items),
            ("subgrids_fft", metrics.subgrids_fft, forward),
            ("subgrids_added", metrics.subgrids_added, forward),
            ("subgrids_ifft", metrics.subgrids_ifft, inverse),
            ("subgrids_split", metrics.subgrids_split, inverse),
            ("health_outcomes", metrics.health_outcomes, outcomes),
            ("chunks_ingested", metrics.chunks_ingested, chunks),
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

    /// Predict visibilities from a model grid. The pass allocates one
    /// observation-sized visibility buffer, the one it returns.
    ///
    /// # Errors
    /// - [`IdgError::ShapeMismatch`] or [`IdgError::InvalidParameter`]
    ///   for inputs that do not fit the observation: a grid of another
    ///   size, wrong buffer shapes, a plan item outside the observation
    ///   or off the grid.
    /// - [`IdgError::InvalidParameter`] for a non-finite uvw coordinate,
    ///   or a non-finite (NaN/Inf) model-grid sample inside a subgrid
    ///   footprint of `plan`. The splitter checks the samples it reads,
    ///   so one that no footprint reads reaches no visibility and fails
    ///   nothing.
    /// - On a GPU back-end with `cpu_fallback` off, the classified device
    ///   error of the first job that failed for good.
    pub fn degrid(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let data = self.degridding_input(grid, uvw, aterms)?;
        self.degrid_pass(&data, plan, grid, None)
    }

    /// The one degrid body, behind [`Proxy::degrid`] and every streamed
    /// degrid chunk: the back-end's splitter → inverse subgrid FFT →
    /// degridder over `plan`, into one visibility buffer in the extent
    /// of `data.obs` (the observation, or a chunk's window). On the
    /// device paths, persistently failed jobs are re-predicted with the
    /// CPU reference kernels into the same buffer (the executor zeroed
    /// their slots). `tag` labels the host stage spans (the chunk index
    /// of a streamed pass).
    fn degrid_pass(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
        tag: Option<u32>,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let nr_items = plan.items.len();
        match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let (vis, seconds) = self.host_degrid_jobs(data, plan, grid, tag)?;
                let n = self.obs.subgrid_size;
                // the optimized degridder rotates phasors across evenly
                // spaced channels, so it evaluates fewer sincos than the
                // paper's kernels
                let counts = match self.backend {
                    Backend::CpuOptimized => {
                        cpu_degridder_counts(&plan.items, n, &data.obs.frequencies)
                    }
                    _ => degridder_counts(&plan.items, n),
                };
                let report = self.measured_report("degridding", counts, nr_items, seconds);
                Ok((vis, report))
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let (mut vis, totals, fleet) = self.on_device(
                    grid,
                    |e, grid| e.degrid(data, plan, grid),
                    |f, grid| f.degrid(data, plan, grid),
                )?;
                for failure in &totals.failed_jobs {
                    let items = &plan.items[failure.first_item..][..failure.nr_items];
                    self.fall_back(failure, || {
                        self.reference_predict(data, items, grid, &mut vis)
                    })?;
                }
                Ok((vis, self.device_report(totals, nr_items, fleet)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkPolicy;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};
    use idg_types::Complex;

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

    /// Every back-end, then `GpuPascal` on a 2-device fleet, labelled.
    fn proxies(obs: &Observation) -> Vec<(String, Proxy)> {
        let mut proxies: Vec<(String, Proxy)> = Backend::all()
            .into_iter()
            .map(|b| (b.label().to_string(), Proxy::new(b, obs.clone()).unwrap()))
            .collect();
        let fleet = Proxy::new(Backend::GpuPascal, obs.clone()).unwrap();
        proxies.push(("gpu-pascal ×2".into(), fleet.with_fleet(2)));
        proxies
    }

    /// A grid with every sample non-zero: a fixed pattern of `± scale`
    /// multiples.
    fn pattern_grid(size: usize, scale: f32) -> Grid<f32> {
        let mut grid = Grid::new(size);
        for (i, c) in grid.as_mut_slice().iter_mut().enumerate() {
            let (re, im) = ((i % 7) as f32 - 3.5, (i % 5) as f32 - 2.5);
            *c = Complex::new(re * scale, im * scale);
        }
        grid
    }

    fn bits(grid: &Grid<f32>) -> Vec<u32> {
        let samples = grid.as_slice().iter();
        samples
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    #[test]
    fn all_backends_produce_equivalent_grids() {
        let ds = dataset();
        let mut grids = Vec::new();
        for (label, proxy) in proxies(&ds.obs) {
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, report) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert!(grid.power() > 0.0, "{label}");
            assert_eq!(report.pass, "gridding");
            assert_eq!(
                report.modeled,
                matches!(proxy.backend(), Backend::GpuPascal | Backend::GpuFiji)
            );

            // grid_into adds the same pass onto the caller's grid: onto
            // a zeroed one it is `grid`, bit for bit ...
            let pass = |onto: &mut Grid<f32>| {
                proxy.grid_into(onto, &plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            };
            let mut zeroed = Grid::new(ds.obs.grid_size);
            let into_report = pass(&mut zeroed).unwrap();
            assert!(bits(&zeroed) == bits(&grid), "{label}: grid_into ≡ grid");
            assert_eq!(into_report.counts, report.counts, "{label}");
            // ... onto a non-zero G0 it is G0 + grid, up to the rounding
            // of adding each subgrid onto G0 rather than onto zero ...
            let scale = grid.as_slice().iter().map(|c| c.abs()).fold(0.0, f32::max);
            let g0 = pattern_grid(ds.obs.grid_size, scale);
            let mut sum = g0.clone();
            pass(&mut sum).unwrap();
            let expected: Vec<_> = g0
                .as_slice()
                .iter()
                .zip(grid.as_slice())
                .map(|(a, b)| *a + *b)
                .collect();
            let peak = expected.iter().map(|c| c.abs()).fold(0.0, f32::max);
            let worst = sum
                .as_slice()
                .iter()
                .zip(&expected)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f32::max);
            assert!(
                worst <= 1e-6 * peak,
                "{label}: G0 + grid off by {worst:e} of {peak:e}"
            );
            // ... and a grid of another size is a typed error
            let mut wrong = Grid::new(ds.obs.grid_size / 2);
            assert!(
                matches!(
                    pass(&mut wrong),
                    Err(IdgError::ShapeMismatch {
                        what: "grid",
                        expected: 256,
                        actual: 128
                    })
                ),
                "{label}"
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

        // Every degridding entry point rejects a non-finite sample its
        // splitter reads: poison the first item's footprint at its corner
        // and at its centre (another plane), in either component.
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
        let (first, n) = (plan.items[0], ds.obs.subgrid_size);
        let corner = (0, first.coord_y, first.coord_x);
        let centre = (3, first.coord_y + n / 2, first.coord_x + n / 2);
        for (pol, y, x) in [corner, centre] {
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for in_re in [true, false] {
                    let mut bad_grid = grid.clone();
                    let sample = bad_grid.at_mut(pol, y, x);
                    *(if in_re {
                        &mut sample.re
                    } else {
                        &mut sample.im
                    }) = poison;
                    let case = format!("{poison} at ({pol}, {y}, {x}), re: {in_re}");
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

        // grid_into rejects what grid rejects, with the same typed
        // error, before it touches the caller's grid
        let mut nan_vis = ds.visibilities.clone();
        nan_vis[7].pols[2].im = f32::NAN;
        let mut nan_uvw = ds.uvw.clone();
        nan_uvw[3].w = f32::NAN;
        let g0 = pattern_grid(ds.obs.grid_size, 1.0);
        for (label, proxy) in proxies(&ds.obs) {
            for (what, uvw, vis) in [
                ("NaN visibility", &ds.uvw, &nan_vis),
                ("NaN uvw", &nan_uvw, &ds.visibilities),
            ] {
                let expected = proxy.grid(&plan, uvw, vis, &ds.aterms).err();
                assert!(expected.is_some(), "{label}, {what}");
                let mut onto = g0.clone();
                let got = proxy.grid_into(&mut onto, &plan, uvw, vis, &ds.aterms);
                assert_eq!(got.err(), expected, "{label}, {what}");
                assert!(bits(&onto) == bits(&g0), "{label}, {what}: grid touched");
            }
        }
    }

    #[test]
    fn a_non_finite_sample_no_footprint_reads_moves_no_output_bit() {
        // the splitter checks the samples it reads and no others: NaN/Inf
        // outside every subgrid footprint reaches no visibility, so no
        // degridding entry point fails or moves a bit
        let ds = dataset();
        let (size, n) = (ds.obs.grid_size, ds.obs.subgrid_size);
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let read = |y: usize, x: usize| {
            plan.items.iter().any(|item| {
                (item.coord_y..item.coord_y + n).contains(&y)
                    && (item.coord_x..item.coord_x + n).contains(&x)
            })
        };
        let (y, x) = (0..size * size)
            .map(|p| (p / size, p % size))
            .find(|&(y, x)| !read(y, x))
            .expect("a pixel outside every footprint");
        let clean = pattern_grid(size, 1.0);
        let mut poisoned = clean.clone();
        for pol in 0..4 {
            *poisoned.at_mut(pol, y, x) = Complex::new(f32::NAN, f32::INFINITY);
        }
        for (label, proxy) in proxies(&ds.obs) {
            let degrid = |grid: &Grid<f32>| {
                let (vis, _) = proxy.degrid(&plan, grid, &ds.uvw, &ds.aterms).unwrap();
                vis_bits(&vis)
            };
            let streamed = |grid: &Grid<f32>| {
                let streamed = proxy.degrid_streamed(&config, grid, &ds.uvw, &ds.aterms);
                vis_bits(&streamed.unwrap().0)
            };
            let staged = |grid: &Grid<f32>| {
                let stages = proxy.degrid_stages(&plan, grid, &ds.uvw, &ds.aterms);
                vis_bits(&stages.unwrap().visibilities)
            };
            assert!(degrid(&poisoned) == degrid(&clean), "{label}: degrid");
            assert!(
                streamed(&poisoned) == streamed(&clean),
                "{label}: degrid_streamed"
            );
            assert!(
                staged(&poisoned) == staged(&clean),
                "{label}: degrid_stages"
            );
        }
    }

    #[test]
    fn a_stream_stops_at_its_first_failing_chunk() {
        // baseline 0 moves to an empty stretch of the grid during chunk 1
        // (time steps 16..32), so a NaN sample there is read by chunk 1's
        // footprints alone and fails chunk 1; chunks 2 and 3 never run,
        // so the session sees two chunk spans
        let mut ds = dataset_of(64);
        for c in &mut ds.uvw[16..32] {
            (c.u, c.v) = (3000.0, 3000.0);
        }
        let (size, n) = (ds.obs.grid_size, ds.obs.subgrid_size);
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 2);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let chunk_of = |item: &WorkItem| item.time_offset / 16;
        let readers = |y: usize, x: usize| {
            let mut chunks: Vec<usize> = plan
                .items
                .iter()
                .filter(|item| {
                    (item.coord_y..item.coord_y + n).contains(&y)
                        && (item.coord_x..item.coord_x + n).contains(&x)
                })
                .map(chunk_of)
                .collect();
            chunks.dedup();
            chunks
        };
        let (y, x) = (0..size * size)
            .map(|p| (p / size, p % size))
            .find(|&(y, x)| readers(y, x) == [1])
            .expect("a pixel inside chunk 1's footprints alone");
        let mut poisoned = pattern_grid(size, 1.0);
        *poisoned.at_mut(0, y, x) = Complex::new(f32::NAN, 0.0);
        for (label, proxy) in proxies(&ds.obs) {
            let session = idg_obs::Session::begin("degridding");
            let result = proxy.degrid_streamed(&config, &poisoned, &ds.uvw, &ds.aterms);
            let trace = session.finish();
            let one_shot = proxy.degrid(&plan, &poisoned, &ds.uvw, &ds.aterms);
            let err = result.err();
            assert!(
                matches!(err, Some(IdgError::InvalidParameter(_))),
                "{label}"
            );
            assert_eq!(err, one_shot.err(), "{label}");
            let chunks: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.name == "chunk")
                .map(|s| s.job)
                .collect();
            assert_eq!(chunks, [Some(0), Some(1)], "{label}");
        }
    }

    #[test]
    fn visibility_buffers_of_the_wrong_length_are_a_typed_error() {
        // degrid launches carry no visibilities, so the length check
        // lives where they are read: every gridding entry point still
        // rejects a short, long or empty buffer, before it touches the
        // caller's grid
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 2);
        let mut long = ds.visibilities.clone();
        long.push(Visibility::zero());
        let g0 = pattern_grid(ds.obs.grid_size, 1.0);
        for (label, proxy) in proxies(&ds.obs) {
            let plan = proxy.plan(&ds.uvw).unwrap();
            for vis in [&ds.visibilities[1..], &long[..], &[][..]] {
                let expected = Some(IdgError::ShapeMismatch {
                    what: "visibilities",
                    expected: ds.obs.nr_visibilities(),
                    actual: vis.len(),
                });
                let case = format!("{label}, {} visibilities", vis.len());
                let grid = proxy.grid(&plan, &ds.uvw, vis, &ds.aterms);
                assert_eq!(grid.err(), expected, "grid, {case}");
                let mut onto = g0.clone();
                let into = proxy.grid_into(&mut onto, &plan, &ds.uvw, vis, &ds.aterms);
                assert_eq!(into.err(), expected, "grid_into, {case}");
                assert!(bits(&onto) == bits(&g0), "grid_into, {case}: grid touched");
                let streamed = proxy.grid_streamed(&config, &ds.uvw, vis, &ds.aterms);
                assert_eq!(streamed.err(), expected, "grid_streamed, {case}");
                let stages = proxy.grid_stages(&plan, &ds.uvw, vis, &ds.aterms);
                assert_eq!(stages.err(), expected, "grid_stages, {case}");
            }
        }
    }

    /// The typed error a rejected input expects: an invalid parameter
    /// naming `field`, or a shape mismatch of `field`.
    fn is_typed(err: Option<&IdgError>, field: &str) -> bool {
        match err {
            Some(IdgError::InvalidParameter(msg)) => msg.contains(field),
            Some(IdgError::ShapeMismatch { what, .. }) => what.contains(field),
            _ => false,
        }
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
        let mut off_grid = plan.clone();
        let last = off_grid.items.len() - 1;
        off_grid.items[last].coord_x = ds.obs.grid_size - ds.obs.subgrid_size + 1;
        let cases = [
            ("foreign plan", &foreign, "time_offset + nr_timesteps"),
            ("duplicated item", &duplicated, "both cover visibility"),
            (
                "channel_offset past the band",
                &out_of_band,
                "channel_offset + nr_channels",
            ),
            (
                "footprint past the grid edge",
                &off_grid,
                "footprint beyond grid edge",
            ),
        ];

        // A host pass runs job by job: in one-item jobs the duplicate
        // and the off-grid item sit in later jobs than the items before
        // them, and must still fail the pass before its first job.
        let mut runs = proxies(&ds.obs);
        for backend in [Backend::CpuReference, Backend::CpuOptimized] {
            let mut proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            proxy.work_group_size = 1;
            runs.push((format!("{} in 1-item jobs", backend.label()), proxy));
        }
        let model = Grid::<f32>::new(ds.obs.grid_size);
        let g0 = pattern_grid(ds.obs.grid_size, 1.0);
        for (label, proxy) in runs {
            for (what, bad_plan, field) in cases {
                let gridded = proxy
                    .grid(bad_plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                    .err();
                assert!(
                    is_typed(gridded.as_ref(), field),
                    "{label} grid, {what}: {gridded:?}"
                );
                // grid_into: the same error, and the caller's grid untouched
                let mut onto = g0.clone();
                let into =
                    proxy.grid_into(&mut onto, bad_plan, &ds.uvw, &ds.visibilities, &ds.aterms);
                assert_eq!(into.err(), gridded, "{label} grid_into, {what}");
                assert!(
                    bits(&onto) == bits(&g0),
                    "{label} grid_into, {what}: grid touched"
                );
                let predicted = proxy.degrid(bad_plan, &model, &ds.uvw, &ds.aterms).err();
                assert!(
                    is_typed(predicted.as_ref(), field),
                    "{label} degrid, {what}: {predicted:?}"
                );
                // the staged entry points launch the back-end's kernels
                // directly, over the whole plan (no device pass in front
                // of the GPU ones): the same error
                assert_eq!(
                    proxy
                        .grid_stages(bad_plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                        .err(),
                    gridded,
                    "{label} grid_stages, {what}"
                );
                assert_eq!(
                    proxy
                        .degrid_stages(bad_plan, &model, &ds.uvw, &ds.aterms)
                        .err(),
                    predicted,
                    "{label} degrid_stages, {what}"
                );
            }
        }
    }

    fn vis_bits(vis: &[Visibility<f32>]) -> Vec<u32> {
        let samples = vis.iter().flat_map(|v| v.pols.iter());
        samples
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    #[test]
    fn work_group_size_zero_runs_in_one_item_jobs() {
        // 0 runs as 1 everywhere the size is read: the host job loop,
        // the executors and both report constructors (a job count).
        let ds = dataset();
        for (label, mut proxy) in proxies(&ds.obs) {
            let plan = proxy.plan(&ds.uvw).unwrap();
            let mut run = |size| {
                proxy.work_group_size = size;
                let (grid, report) = proxy
                    .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                    .unwrap();
                let (vis, dreport) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
                assert_eq!(
                    report.launched_jobs,
                    plan.items.len(),
                    "{label}, size {size}"
                );
                assert_eq!(
                    dreport.launched_jobs,
                    plan.items.len(),
                    "{label}, size {size}"
                );
                (bits(&grid), vis_bits(&vis))
            };
            let zero = run(0);
            assert!(zero == run(1), "{label}: size 0 ≡ size 1, bit for bit");
        }
    }

    #[test]
    fn observed_multi_job_host_passes_self_validate() {
        // A host pass runs job by job: its report counts the jobs, as on
        // the device (validate_measured holds every observed run to its
        // closed forms in them).
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 2);
        for backend in [Backend::CpuReference, Backend::CpuOptimized] {
            let mut proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            proxy.work_group_size = 7;
            let plan = proxy.plan(&ds.uvw).unwrap();
            let jobs = plan.items.len().div_ceil(7);
            assert!(
                jobs > 2 && !plan.items.len().is_multiple_of(7),
                "with a short tail job"
            );

            let (grid, report, _) = proxy
                .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_eq!(report.launched_jobs, jobs, "{backend:?}");
            let (_, report, _) = proxy
                .degrid_observed(&plan, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_eq!(report.launched_jobs, jobs, "{backend:?}");

            // a stream cuts each chunk plan into jobs of its own
            let (_, report, _) = proxy
                .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let stream_jobs = report.launched_jobs;
            assert!(stream_jobs >= jobs, "{backend:?}");
            let (_, report, _) = proxy
                .degrid_streamed_observed(&config, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_eq!(report.launched_jobs, stream_jobs, "{backend:?}");
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
        // job 0 runs out of memory on its first three attempts: the single
        // device gives up at once, each fleet member walks its ladder
        // (one resumed attempt per rung) to death
        let proxy = || {
            let mut proxy = Proxy::new(Backend::GpuFiji, ds.obs.clone()).unwrap();
            proxy.work_group_size = 4;
            proxy.cpu_fallback = false;
            proxy.with_faults(FaultConfig::targeted(
                (0..3)
                    .map(|attempt| TargetedFault {
                        job: 0,
                        attempt,
                        site: FaultSite::Alloc,
                        kind: FaultKind::OutOfMemory,
                    })
                    .collect(),
            ))
        };
        let plan = proxy().plan(&ds.uvw).unwrap();
        for proxy in [proxy(), proxy().with_fleet(2)] {
            assert!(matches!(
                proxy.grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms),
                Err(IdgError::DeviceOutOfMemory { .. })
            ));
        }
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
            // each back-end's own model: the host degridder rotates
            // phasors across these four evenly spaced channels
            let n = ds.obs.subgrid_size;
            let danalytic = match backend {
                Backend::CpuOptimized => cpu_degridder_counts(&plan.items, n, &ds.obs.frequencies),
                _ => degridder_counts(&plan.items, n),
            };
            if backend == Backend::CpuOptimized {
                assert!(danalytic.sincos_pairs < degridder_counts(&plan.items, n).sincos_pairs);
            }
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
        // The tables built with the proxy serve every pass: a second
        // gridding pass is bit-identical to the first.
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let (first, _, _) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (second, _, _) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(first.as_slice(), second.as_slice());
    }

    #[test]
    fn gpu_passes_share_the_proxy_cache_across_executors() {
        // Each grid() call builds a fresh GpuExecutor over the proxy's
        // tables: a multi-job second pass is bit-identical to the first.
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert!(plan.work_groups(8).count() > 1);

        let (first, _, _) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (second, _, _) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
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
        // A fault-free fleet keeps the per-job kernel cadence of the
        // single-device path, so validate_measured stays armed.
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
    fn a_counter_off_its_closed_form_fails_validation_by_name() {
        // One clean observed report of each kind: every counter
        // validate_measured holds to a closed form in the launched
        // items, jobs or chunks fails it when one off, by name.
        let ds = dataset();
        let host = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        // CPU back-ends ignore a fault schedule, so its passes validate.
        let faulted_host = Proxy::new(Backend::CpuOptimized, ds.obs.clone())
            .unwrap()
            .with_faults(FaultConfig::chaos(7, 0.5));
        let mut fleet = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        fleet.work_group_size = 4;
        let fleet = fleet.with_fleet(2);
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 2);
        let plan = host.plan(&ds.uvw).unwrap();
        let (grid, one_shot, _) = host
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (_, faulted_one_shot, _) = faulted_host
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (_, fleet_pass, _) = fleet
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (_, streamed_grid, _) = host
            .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (_, streamed_degrid, _) = host
            .degrid_streamed_observed(&config, &grid, &ds.uvw, &ds.aterms)
            .unwrap();

        type Counter = fn(&mut idg_obs::MetricsSnapshot) -> &mut u64;
        let counters: [(&str, Counter); 6] = [
            ("subgrids_fft", |m| &mut m.subgrids_fft),
            ("subgrids_added", |m| &mut m.subgrids_added),
            ("subgrids_ifft", |m| &mut m.subgrids_ifft),
            ("subgrids_split", |m| &mut m.subgrids_split),
            ("health_outcomes", |m| &mut m.health_outcomes),
            ("chunks_ingested", |m| &mut m.chunks_ingested),
        ];
        let reports = [
            ("host one-shot", &host, one_shot),
            ("host one-shot with faults", &faulted_host, faulted_one_shot),
            ("fleet", &fleet, fleet_pass),
            ("streamed grid", &host, streamed_grid),
            ("streamed degrid", &host, streamed_degrid),
        ];
        for (kind, proxy, report) in reports {
            proxy.validate_measured(&report).unwrap();
            for (name, counter) in counters {
                let mut raised = report.clone();
                *counter(raised.metrics.as_mut().unwrap()) += 1;
                let err = proxy.validate_measured(&raised).unwrap_err();
                assert!(
                    matches!(&err, IdgError::Internal(m) if m.contains(name)),
                    "{kind} {name}: {err:?}"
                );
            }
        }
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
    fn a_fleet_of_zero_devices_runs_as_one_faulted_member() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        // the member count is clamped once: the proxy-wide schedule, the
        // report and a member-fault index all see the one member
        let ds = dataset();
        let kernel_fault = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Kernel,
            kind: FaultKind::KernelFault,
        }]);
        let fleet = |member_faults| FleetConfig {
            nr_devices: 0,
            member_faults,
            breaker: None,
        };
        let proxy_wide = Proxy::new(Backend::GpuPascal, ds.obs.clone())
            .unwrap()
            .with_faults(kernel_fault.clone())
            .with_fleet_config(fleet(Vec::new()));
        let per_member = Proxy::new(Backend::GpuPascal, ds.obs.clone())
            .unwrap()
            .with_fleet_config(fleet(vec![(0, kernel_fault)]));
        let plan = proxy_wide.plan(&ds.uvw).unwrap();
        for proxy in [proxy_wide, per_member] {
            let (_, report) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_eq!(report.nr_retries, 1, "the one member is faulted");
            let stats = report.fleet.as_ref().unwrap();
            assert_eq!(stats.nr_devices, 1);
            assert_eq!(stats.per_device.len(), 1);
        }
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
