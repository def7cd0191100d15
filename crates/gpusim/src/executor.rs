//! The GPU executor: whole gridding/degridding passes on the device
//! model, with triple-buffered transfer/compute overlap, fault-tolerant
//! retry, and an execution/energy report.
//!
//! Results are *real* (computed by the simulated kernels and verified
//! against the CPU reference); times and energies are *modeled* from the
//! Table I machine parameters — the substitution documented in
//! DESIGN.md.
//!
//! The pass itself — job model, kernel back-end, retry loop, report —
//! lives in the shared pass engine (`pass.rs`); this module is the
//! sequential single-device dispatcher over it.
//!
//! ## Fault tolerance
//!
//! When a [`FaultConfig`] is attached ([`GpuExecutor::with_faults`]),
//! every job (work group) runs through a retry loop:
//!
//! * transfer corruption is detected by *real* checksums — the executor
//!   stages a copy of the payload, the injector flips one bit, and the
//!   FNV-1a hashes disagree;
//! * transient faults (corruption, kernel faults, stream stalls)
//!   re-enqueue the job's whole HtoD → kernel → DtoH chain, delayed by
//!   the [`RetryPolicy`]'s capped exponential backoff — both the faulted
//!   attempts and the backoff gaps are modeled into the makespan;
//! * persistent faults (device OOM, or a transient fault that exhausts
//!   `max_attempts`) land the job in [`PassTotals::failed_jobs`] with
//!   its classified [`IdgError`]; the pass itself still succeeds, and
//!   the proxy layer re-executes exactly those jobs on the CPU.

use crate::device::Device;
use crate::fault::{FaultConfig, RetryPolicy};
use crate::kernels::check_device;
use crate::pass::{DeviceSlot, Direction, JobRun, Pass, PassTotals, Sink};
use crate::stream::TraceEntry;
use idg_kernels::{KernelData, KernelTables, SubgridArray};
use idg_plan::Plan;
use idg_types::{Grid, IdgError, Visibility};
use std::ops::Range;

/// Deferred-commit payload of a streamed chunk pass: each entry pairs
/// a `plan.items` range with the subgrids computed for it, in job
/// order, ready for the caller's single in-order adder commit.
pub type DeferredSubgrids = Vec<(Range<usize>, SubgridArray)>;

/// A job that failed persistently: its outputs are absent from the pass
/// result and the proxy layer may re-execute it on the CPU backend.
#[derive(Clone, Debug, PartialEq)]
pub struct JobFailure {
    /// Job (work group) index in submission order.
    pub job: usize,
    /// Index of the job's first work item in `plan.items`.
    pub first_item: usize,
    /// Number of work items the job covers.
    pub nr_items: usize,
    /// The classified error that ended the job.
    pub error: IdgError,
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

/// Outcome of one executor pass.
#[derive(Clone, Debug)]
pub struct GpuRunReport {
    /// Counters, modeled stage times, makespan, energy, retries and
    /// persistently failed jobs.
    pub totals: PassTotals,
    /// The per-operation timeline (Fig. 7 material). Faulted attempts
    /// appear with `OpStatus::Faulted`; retries carry `attempt > 0`.
    pub timeline: Vec<TraceEntry>,
}

/// Drives gridding / degridding passes on a modeled device.
pub struct GpuExecutor<'t> {
    /// The device model.
    pub device: Device,
    /// Work items per work group (kernel launch).
    pub work_group_size: usize,
    /// Optional fault-injection schedule (None = fault-free device).
    pub faults: Option<FaultConfig>,
    /// Retry policy for transient device faults.
    pub retry: RetryPolicy,
    /// The kernel tables of the passes' observation (normally the
    /// owning proxy's).
    pub tables: &'t KernelTables,
}

impl<'t> GpuExecutor<'t> {
    /// Create an executor with the given work-group granularity over
    /// `tables` (a fault-free device; see [`GpuExecutor::with_faults`]).
    /// A zero group size is clamped to one.
    pub fn new(device: Device, work_group_size: usize, tables: &'t KernelTables) -> Self {
        Self {
            device,
            work_group_size: work_group_size.max(1),
            faults: None,
            retry: RetryPolicy::default(),
            tables,
        }
    }

    /// Attach a fault-injection schedule to the device model.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Override the retry policy for transient faults.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The sequential dispatcher: reserve the full triple-buffered
    /// shape once (no degradation ladder — a reservation that does not
    /// fit fails the pass), run every job in order on the one device,
    /// give up on a job the moment the device does, fail the pass on an
    /// input error a job's kernels return (an error with no fault site,
    /// such as a non-finite model-grid sample the splitter reads), and
    /// add each completed gridding job onto `grid` as it completes (jobs
    /// complete in job order here, so peak memory stays at one job's
    /// subgrids).
    fn run<'a>(
        &'a self,
        data: &'a KernelData<'a>,
        plan: &'a Plan,
        direction: Direction<'a>,
        mut grid: Option<&mut Grid<f32>>,
    ) -> Result<(Pass<'a>, GpuRunReport), IdgError> {
        let w = self.work_group_size;
        // a device that can launch no kernel fails the pass, not every job
        check_device(&self.device, matches!(direction, Direction::Grid(_)))?;
        let mut pass = Pass::new(data, plan, direction, w, self.tables, &self.retry)?;
        let mut slot = DeviceSlot::new(self.device.clone(), self.faults.clone(), &pass);
        slot.reserve(&pass, w, 3)?;
        for job in 0..pass.nr_jobs() {
            match pass.run_job_on(&mut slot, job, (0, 0.0)) {
                JobRun::Done { .. } => {
                    if let Some(grid) = grid.as_deref_mut() {
                        pass.commit(job, grid)?;
                    }
                }
                JobRun::Failed { error, .. } if error.fault_site().is_none() => return Err(error),
                JobRun::Failed { error, attempts } => pass.fail_job(job, error, attempts),
            }
        }
        let totals = pass.seal([&mut slot]);
        let timeline = slot.pipeline.timeline;
        Ok((pass, GpuRunReport { totals, timeline }))
    }

    /// Run a full gridding pass: visibilities → subgrids, **added
    /// onto** `grid` (the caller zeroes it for a fresh grid).
    ///
    /// Jobs that fail persistently are reported in
    /// [`PassTotals::failed_jobs`] and their subgrids are absent from
    /// `grid`; only whole-pass setup failures (the buffer sets not
    /// fitting in device memory, a launch configuration no kernel can
    /// run with) error out, before `grid` is touched. Each job's
    /// subgrids are added as the job completes, so peak memory stays at
    /// one job's subgrids.
    pub fn grid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &mut Grid<f32>,
    ) -> Result<GpuRunReport, IdgError> {
        let (_, report) = self.run(data, plan, Direction::Grid(Sink::Commit), Some(grid))?;
        Ok(report)
    }

    /// Run a gridding pass with *deferred* commits: compute and FFT
    /// every job's subgrids on the modeled device, but never touch a
    /// grid — return the subgrids with their `plan.items` ranges
    /// instead, in job order.
    ///
    /// This is the streamed-chunk entry point: chunk passes run
    /// concurrently, so none of them may own the shared grid;
    /// `Proxy::grid_streamed` collects every chunk's pending subgrids
    /// and commits them in the one-shot plan order with a single
    /// adder call, which keeps the f32 accumulation order — and so
    /// every output bit — identical to [`GpuExecutor::grid`].
    ///
    /// No device-resident grid is modeled, so subgrids always stream
    /// back to the host: the reservation and timing follow the
    /// host-adder shape of [`GpuExecutor::grid`] (option (2) of
    /// Sec. V-C e), with the host-side add itself accounted by the
    /// caller's commit.
    pub fn grid_deferred(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
    ) -> Result<(DeferredSubgrids, GpuRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Grid(Sink::Defer), None)?;
        Ok((pass.into_deferred_subgrids(), report))
    }

    /// Run a full degridding pass: grid → predicted visibilities, in
    /// the extent of `data.obs` (a streamed chunk passes its own time
    /// window, so its buffer holds only its own rows).
    ///
    /// Visibility slots belonging to persistently failed jobs are left
    /// zero (see [`PassTotals::failed_jobs`]). No device-resident grid
    /// enters the job model: splitter reads are modeled identically
    /// wherever the grid lives.
    pub fn degrid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(Vec<Visibility<f32>>, GpuRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Degrid(grid), None)?;
        Ok((pass.into_vis(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, TargetedFault};
    use crate::stream::OpStatus;
    use idg_fft::Direction as FftDirection;
    use idg_kernels::{add_subgrids, fft_subgrids, split_subgrids, FftNorm};
    use idg_perf::gridder_counts;
    use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};
    use idg_types::{FaultSite, Observation};

    fn dataset() -> Dataset {
        // Realistic per-item occupancy (many timesteps × channels per
        // subgrid) so the kernels are compute/shared-bound as in the
        // paper's configuration, not dominated by per-item A-term I/O.
        let obs = Observation::builder()
            .stations(6)
            .timesteps(64)
            .channels(8, 150e6, 1e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(64)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 51);
        let sky = SkyModel::random(&obs, 4, 0.6, 53);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    /// A fresh grid with the gridding pass `pass` added onto it.
    fn fresh_grid<R>(
        plan: &Plan,
        pass: impl FnOnce(&mut Grid<f32>) -> Result<R, IdgError>,
    ) -> Result<(Grid<f32>, R), IdgError> {
        let mut grid = Grid::new(plan.grid_size());
        let report = pass(&mut grid)?;
        Ok((grid, report))
    }

    fn kernel_data<'a>(ds: &'a Dataset, taper: &'a [f32]) -> KernelData<'a> {
        KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper,
        }
    }

    #[test]
    fn full_gridding_pass_produces_grid_and_report() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let exec = GpuExecutor::new(Device::pascal(), 8, &tables);
        let (grid, report) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();
        assert!(grid.power() > 0.0, "grid received energy");
        assert!(report.totals.makespan > 0.0);
        assert!(report.totals.kernel_seconds > 0.0);
        assert_eq!(
            report.totals.counts.visibilities as usize,
            plan.nr_gridded_visibilities()
        );
        // kernel dominates the modeled runtime (Fig. 9 shape)
        assert!(
            report.totals.kernel_seconds
                > 5.0 * (report.totals.fft_seconds + report.totals.adder_seconds)
        );
        // throughput metric is finite and positive
        assert!(report.totals.mvis_per_sec() > 0.0);
        // fault-free pass: nothing retried, nothing failed
        assert_eq!(report.totals.nr_retries, 0);
        assert_eq!(report.totals.backoff_seconds, 0.0);
        assert!(report.totals.complete());
    }

    #[test]
    fn gpu_grid_matches_cpu_grid() {
        // The executor's grid must equal the pure-CPU pipeline's grid.
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);

        let exec = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (gpu_grid, _) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();

        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        idg_kernels::gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");
        fft_subgrids(&mut subgrids, FftDirection::Forward, FftNorm::None);
        let mut cpu_grid = Grid::<f32>::new(ds.obs.grid_size);
        add_subgrids(&mut cpu_grid, &plan.items, &subgrids, &tables).unwrap();

        let scale = cpu_grid
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for (a, b) in gpu_grid.as_slice().iter().zip(cpu_grid.as_slice()) {
            assert!((*a - *b).abs() / scale < 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn gpu_degrid_pass_matches_cpu_pipeline() {
        // The executor's degridding pass must equal the pure-CPU
        // pipeline (splitter → inverse FFT → reference degridder) on the
        // same model grid.
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        // build a model grid by gridding the data first
        let exec = GpuExecutor::new(Device::fiji(), 4, &tables);
        let (grid, _) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();
        let (pred, report) = exec.degrid(&data, &plan, &grid).unwrap();
        assert_eq!(report.totals.pass, "degridding");
        assert!(report.totals.dtoh_seconds > 0.0);

        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        split_subgrids(&grid, &plan.items, &mut subgrids, &tables).unwrap();
        fft_subgrids(&mut subgrids, FftDirection::Inverse, FftNorm::None);
        let mut gold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        idg_kernels::degridder_reference(&data, &plan.items, &subgrids, &mut gold)
            .expect("kernel run");

        let scale = gold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for (i, (a, b)) in pred.iter().zip(&gold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 2e-3,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    #[test]
    fn large_grid_falls_back_to_host_adder() {
        // Sec. V-C e option (2): when the grid no longer fits in device
        // memory, subgrids are copied to the host and added there. The
        // result must be identical; the report shows DtoH traffic.
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        // the grid (4·256²·8 B = 2 MB) doesn't fit, the buffers do
        let mut device = Device::fiji();
        device.arch.mem_size_gb = Some(0.001); // 1 MB device
        let exec_small = GpuExecutor::new(device, 8, &tables);
        let (grid_fallback, report) =
            fresh_grid(&plan, |g| exec_small.grid(&data, &plan, g)).unwrap();
        assert!(
            report.totals.dtoh_seconds > 0.0,
            "subgrids streamed to the host"
        );

        let exec_full = GpuExecutor::new(Device::fiji(), 8, &tables);
        let (grid_resident, _) = fresh_grid(&plan, |g| exec_full.grid(&data, &plan, g)).unwrap();
        assert_eq!(grid_fallback.as_slice(), grid_resident.as_slice());
    }

    #[test]
    fn out_of_memory_is_reported_when_even_buffers_do_not_fit() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let mut device = Device::fiji();
        device.arch.mem_size_gb = Some(0.0001); // 100 kB device
        let exec = GpuExecutor::new(device, 8, &tables);
        assert!(matches!(
            fresh_grid(&plan, |g| exec.grid(&data, &plan, g)),
            Err(IdgError::DeviceOutOfMemory { .. })
        ));
    }

    #[test]
    fn pascal_is_modeled_faster_than_fiji() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let (_, rp) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), 8, &tables).grid(&data, &plan, g)
        })
        .unwrap();
        let (_, rf) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::fiji(), 8, &tables).grid(&data, &plan, g)
        })
        .unwrap();
        assert!(
            rp.totals.kernel_seconds < rf.totals.kernel_seconds,
            "pascal {} vs fiji {}",
            rp.totals.kernel_seconds,
            rf.totals.kernel_seconds
        );
    }

    #[test]
    fn transient_faults_retry_to_a_bit_identical_grid() {
        // A kernel fault, a corrupted HtoD transfer and a stall on
        // three different jobs: every one retries and the final grid is
        // bit-identical to the fault-free run. The recovery cost shows
        // up as faulted timeline ops, retries, and backoff makespan.
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);

        let (gold, gold_report) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), 4, &tables).grid(&data, &plan, g)
        })
        .unwrap();

        let faults = FaultConfig::targeted(vec![
            TargetedFault {
                job: 0,
                attempt: 0,
                site: FaultSite::Kernel,
                kind: FaultKind::KernelFault,
            },
            TargetedFault {
                job: 1,
                attempt: 0,
                site: FaultSite::HtoD,
                kind: FaultKind::TransferCorruption,
            },
            TargetedFault {
                job: 2,
                attempt: 0,
                site: FaultSite::Kernel,
                kind: FaultKind::StreamStall,
            },
        ]);
        let exec = GpuExecutor::new(Device::pascal(), 4, &tables).with_faults(faults);
        let (grid, report) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();

        assert_eq!(grid.as_slice(), gold.as_slice(), "recovery is exact");
        assert!(report.totals.complete());
        assert_eq!(report.totals.nr_retries, 3);
        assert!(report.totals.backoff_seconds > 0.0);
        assert!(
            report.totals.makespan > gold_report.totals.makespan,
            "recovery costs time"
        );
        let faulted: Vec<_> = report
            .timeline
            .iter()
            .filter(|t| t.status == OpStatus::Faulted)
            .collect();
        assert_eq!(faulted.len(), 3);
        // the retries appear in the timeline as attempt-1 operations
        assert!(report.timeline.iter().any(|t| t.job == 0 && t.attempt == 1));
        assert!(report.timeline.iter().any(|t| t.job == 1 && t.attempt == 1));
    }

    #[test]
    fn exhausted_retries_report_the_job_as_failed() {
        // Job 1 faults on every attempt: the executor gives up after
        // max_attempts, excludes the job's subgrids from the grid, and
        // reports the classified error.
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);

        let m = 4;
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let faults = FaultConfig::targeted(
            (0..retry.max_attempts)
                .map(|attempt| TargetedFault {
                    job: 1,
                    attempt,
                    site: FaultSite::Kernel,
                    kind: FaultKind::KernelFault,
                })
                .collect(),
        );
        let exec = GpuExecutor::new(Device::pascal(), m, &tables)
            .with_faults(faults)
            .with_retry_policy(retry);
        let (grid, report) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();

        assert_eq!(report.totals.failed_jobs.len(), 1);
        let failure = &report.totals.failed_jobs[0];
        assert_eq!(failure.job, 1);
        assert_eq!(failure.first_item, m);
        assert_eq!(failure.attempts, 3);
        assert!(matches!(failure.error, IdgError::KernelFault { job: 1 }));
        assert_eq!(
            report.totals.nr_retries, 2,
            "two re-enqueues before giving up"
        );

        // the failed job's visibilities are not counted and its
        // subgrids are absent from the grid
        let full = gridder_counts(&plan.items, plan.subgrid_size());
        assert!(report.totals.counts.visibilities < full.visibilities);
        let (gold, _) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), m, &tables).grid(&data, &plan, g)
        })
        .unwrap();
        assert_ne!(grid.as_slice(), gold.as_slice());
    }

    #[test]
    fn injected_oom_is_persistent_and_skips_retry() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);

        let faults = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]);
        let exec = GpuExecutor::new(Device::pascal(), 4, &tables).with_faults(faults);
        let (_, report) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();
        assert_eq!(report.totals.nr_retries, 0, "OOM is not retried");
        assert_eq!(report.totals.failed_jobs.len(), 1);
        assert_eq!(report.totals.failed_jobs[0].attempts, 1);
        assert!(!report.totals.failed_jobs[0].error.is_transient());
    }

    #[test]
    fn degrid_retries_recover_bit_identical_visibilities() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let exec = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (grid, _) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();
        let (gold, _) = exec.degrid(&data, &plan, &grid).unwrap();

        // corrupt the DtoH transfer of job 0 and stall job 2's kernel
        let faults = FaultConfig::targeted(vec![
            TargetedFault {
                job: 0,
                attempt: 0,
                site: FaultSite::DtoH,
                kind: FaultKind::TransferCorruption,
            },
            TargetedFault {
                job: 2,
                attempt: 0,
                site: FaultSite::Kernel,
                kind: FaultKind::StreamStall,
            },
        ]);
        let faulty = GpuExecutor::new(Device::pascal(), 4, &tables).with_faults(faults);
        let (pred, report) = faulty.degrid(&data, &plan, &grid).unwrap();
        assert!(report.totals.complete());
        assert_eq!(report.totals.nr_retries, 2);
        assert_eq!(pred, gold, "recovered visibilities are bit-identical");
    }

    #[test]
    fn instrumented_pass_emits_one_stage_span_per_engine_per_job() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let exec = GpuExecutor::new(Device::pascal(), 8, &tables);
        let (model, _) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();
        let nr_jobs = plan.work_groups(8).count();
        assert!(nr_jobs > 1, "want a multi-job schedule");

        // the three pass kinds and how each one's Compute interval
        // subdivides: the device adder keeps one-shot gridding on the
        // GPU, deferred gridding ends at the FFT (the caller adds), and
        // degridding runs the reverse chain
        let kinds: [(&str, &[&str]); 3] = [
            ("grid", &["gridder", "subgrid_fft", "adder"]),
            ("grid_deferred", &["gridder", "subgrid_fft"]),
            ("degrid", &["splitter", "subgrid_ifft", "degridder"]),
        ];
        for (kind, expected_kernels) in kinds {
            let session = idg_obs::Session::begin(kind);
            let totals = match kind {
                "grid" => {
                    fresh_grid(&plan, |g| exec.grid(&data, &plan, g))
                        .unwrap()
                        .1
                        .totals
                }
                "grid_deferred" => exec.grid_deferred(&data, &plan).unwrap().1.totals,
                _ => exec.degrid(&data, &plan, &model).unwrap().1.totals,
            };
            let trace = session.finish();

            assert!(totals.complete(), "{kind}");
            for job in 0..nr_jobs as u32 {
                let stages: Vec<_> = trace
                    .spans
                    .iter()
                    .filter(|s| s.cat == "stage" && s.job == Some(job))
                    .collect();
                assert_eq!(
                    stages.len(),
                    3,
                    "{kind}: HtoD/Compute/DtoH spans for job {job}"
                );
                let jobs: Vec<_> = trace
                    .spans
                    .iter()
                    .filter(|s| s.cat == "job" && s.job == Some(job))
                    .collect();
                assert_eq!(jobs.len(), 1, "{kind}");
                // the job span encloses its stage spans
                for s in &stages {
                    assert!(jobs[0].start_us <= s.start_us);
                    assert!(s.end_us() <= jobs[0].end_us());
                }
                let kernels: Vec<_> = trace
                    .spans
                    .iter()
                    .filter(|s| s.cat == "kernel" && s.job == Some(job))
                    .map(|s| s.name.as_str())
                    .collect();
                assert_eq!(kernels, expected_kernels, "{kind} job {job}");
            }
            assert_eq!(trace.metrics.nr_retries, 0);
        }
    }

    #[test]
    fn degrid_zeroes_and_reports_exhausted_jobs() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let exec = GpuExecutor::new(Device::pascal(), 8, &tables);
        let (grid, _) = fresh_grid(&plan, |g| exec.grid(&data, &plan, g)).unwrap();

        // job 1 faults on every attempt and is given up on
        let faults = FaultConfig::targeted(
            (0..8)
                .map(|attempt| TargetedFault {
                    job: 1,
                    attempt,
                    site: FaultSite::Kernel,
                    kind: FaultKind::KernelFault,
                })
                .collect(),
        );
        let failing = GpuExecutor::new(Device::pascal(), 8, &tables).with_faults(faults);
        let (vis, report) = failing.degrid(&data, &plan, &grid).unwrap();

        assert_eq!(report.totals.failed_jobs.len(), 1);
        let failure = &report.totals.failed_jobs[0];
        assert_eq!(failure.job, 1);
        // the failed job's slots are zero
        let nr_time = ds.obs.nr_timesteps;
        let nr_chan = ds.obs.nr_channels();
        for item in &plan.items[failure.first_item..failure.first_item + failure.nr_items] {
            for dt in 0..item.nr_timesteps {
                let row = (item.baseline_index * nr_time + item.time_offset + dt) * nr_chan;
                for c in item.channel_offset..item.channel_offset + item.nr_channels {
                    for p in vis[row + c].pols {
                        assert_eq!(p.re, 0.0);
                        assert_eq!(p.im, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn gridding_pass_checks_the_visibilities_before_staging_them() {
        // an HtoD fault stages job 0's visibilities before any kernel
        // runs its own launch check: a short buffer must be the pass's
        // typed error, not an index panic in the staging copy
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = KernelData {
            visibilities: &ds.visibilities[..ds.visibilities.len() / 2],
            ..kernel_data(&ds, &taper)
        };
        let faults = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::HtoD,
            kind: FaultKind::TransferCorruption,
        }]);
        let exec = GpuExecutor::new(Device::pascal(), 4, &tables).with_faults(faults);
        let mut grid = Grid::new(plan.grid_size());
        assert!(matches!(
            exec.grid(&data, &plan, &mut grid),
            Err(IdgError::ShapeMismatch {
                what: "visibilities",
                ..
            })
        ));
        assert_eq!(grid.power(), 0.0, "grid untouched");
    }

    #[test]
    fn empty_plan_reports_zero_throughput_not_nan() {
        let totals = PassTotals {
            pass: "gridding",
            counts: idg_perf::OpCounts::default(),
            kernel_seconds: 0.0,
            fft_seconds: 0.0,
            adder_seconds: 0.0,
            htod_seconds: 0.0,
            dtoh_seconds: 0.0,
            makespan: 0.0,
            device_energy_j: 0.0,
            host_energy_j: 0.0,
            nr_retries: 0,
            backoff_seconds: 0.0,
            failed_jobs: Vec::new(),
        };
        assert_eq!(totals.kernel_tops(), 0.0);
        assert_eq!(totals.mvis_per_sec(), 0.0);
    }
}
