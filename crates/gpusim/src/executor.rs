//! The GPU executor: whole gridding/degridding passes on the device
//! model, with triple-buffered transfer/compute overlap, fault-tolerant
//! retry, and an execution/energy report.
//!
//! Results are *real* (computed by the simulated kernels and verified
//! against the CPU reference); times and energies are *modeled* from the
//! Table I machine parameters — the substitution documented in
//! DESIGN.md.
//!
//! The pass itself — job model, kernel back-end, retry loop, the
//! hand-over of each gridding job at its turn, report — lives in the
//! shared pass engine (`pass.rs`); this module is the sequential
//! single-device dispatcher over it. Its jobs are decided in job order,
//! so each one is handed over as it completes or fails.
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
use crate::pass::{DeviceSlot, Direction, GriddedJob, JobRun, Pass, PassTotals};
use idg_kernels::{KernelData, KernelTables};
use idg_plan::Plan;
use idg_types::{Grid, IdgError, Visibility};
use std::ops::Range;

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
    /// give up on a job the moment the device does, and fail the pass on
    /// an input error a job's kernels return (an error with no fault
    /// site, such as a non-finite model-grid sample the splitter reads)
    /// or on an error the commit closure returns.
    fn run<'a>(
        &'a self,
        data: &'a KernelData<'a>,
        plan: &'a Plan,
        direction: Direction<'a>,
    ) -> Result<(Pass<'a>, PassTotals), IdgError> {
        let w = self.work_group_size;
        // a device that can launch no kernel fails the pass, not every job
        check_device(&self.device, matches!(direction, Direction::Grid(..)))?;
        let mut pass = Pass::new(data, plan, direction, w, self.tables, &self.retry)?;
        let mut slot = DeviceSlot::new(self.device.clone(), self.faults.clone(), &pass);
        slot.reserve(&pass, w, 3)?;
        for job in 0..pass.nr_jobs() {
            match pass.run_job_on(&mut slot, job, (0, 0.0))? {
                JobRun::Done { .. } => {}
                JobRun::Failed { error, .. } if error.fault_site().is_none() => return Err(error),
                JobRun::Failed { error, attempts } => pass.fail_job(job, error, attempts)?,
            }
        }
        let totals = pass.seal([&mut slot])?;
        Ok((pass, totals))
    }

    /// Run a full gridding pass: visibilities → Fourier-domain subgrids,
    /// each job handed to `commit` in job order as it completes — its
    /// `plan.items` range with its subgrids (one call per staged chunk),
    /// or, for a job that failed persistently, its whole range with its
    /// [`JobFailure`] (also listed in [`PassTotals::failed_jobs`]).
    /// The job model charges the device adder where the grid fits in
    /// device memory and the host adder where it does not (Sec. V-C e).
    ///
    /// Whole-pass setup failures (the buffer sets not fitting in device
    /// memory, a launch configuration no kernel can run with) error out
    /// before `commit` is first called. An input error a job's kernels
    /// return, or an error `commit` returns, ends the pass at once with
    /// that error, the earlier jobs handed over. Peak memory stays at
    /// one job's subgrids.
    pub fn grid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        mut commit: impl FnMut(Range<usize>, GriddedJob<'_>) -> Result<(), IdgError>,
    ) -> Result<PassTotals, IdgError> {
        let (_, totals) = self.run(data, plan, Direction::Grid(&mut commit))?;
        Ok(totals)
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
    ) -> Result<(Vec<Visibility<f32>>, PassTotals), IdgError> {
        let (pass, totals) = self.run(data, plan, Direction::Degrid(grid))?;
        Ok((pass.into_vis(), totals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, TargetedFault};
    use crate::pass::add_onto;
    use idg_fft::Direction as FftDirection;
    use idg_kernels::{add_subgrids, fft_subgrids, split_subgrids, FftNorm, SubgridArray};
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
        let (grid, report) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        assert!(grid.power() > 0.0, "grid received energy");
        assert!(report.makespan > 0.0);
        assert!(report.kernel_seconds > 0.0);
        assert_eq!(
            report.counts.visibilities as usize,
            plan.nr_gridded_visibilities()
        );
        // kernel dominates the modeled runtime (Fig. 9 shape)
        assert!(report.kernel_seconds > 5.0 * (report.fft_seconds + report.adder_seconds));
        // fault-free pass: nothing retried, nothing failed
        assert_eq!(report.nr_retries, 0);
        assert_eq!(report.backoff_seconds, 0.0);
        assert!(report.complete());
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
        let (gpu_grid, _) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

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
        let (grid, _) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let (pred, report) = exec.degrid(&data, &plan, &grid).unwrap();
        assert_eq!(report.pass, "degridding");
        assert!(report.dtoh_seconds > 0.0);

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
        let (grid_fallback, report) = fresh_grid(&plan, |g| {
            exec_small.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        assert!(report.dtoh_seconds > 0.0, "subgrids streamed to the host");

        let exec_full = GpuExecutor::new(Device::fiji(), 8, &tables);
        let (grid_resident, _) = fresh_grid(&plan, |g| {
            exec_full.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
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
            fresh_grid(&plan, |g| exec.grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables)
            )),
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
            GpuExecutor::new(Device::pascal(), 8, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
        })
        .unwrap();
        let (_, rf) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::fiji(), 8, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
        })
        .unwrap();
        assert!(
            rp.kernel_seconds < rf.kernel_seconds,
            "pascal {} vs fiji {}",
            rp.kernel_seconds,
            rf.kernel_seconds
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
            GpuExecutor::new(Device::pascal(), 4, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
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
        let session = idg_obs::Session::begin("retries");
        let (grid, report) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let trace = session.finish();

        assert_eq!(grid.as_slice(), gold.as_slice(), "recovery is exact");
        assert!(report.complete());
        assert_eq!(report.nr_retries, 3);
        assert!(report.backoff_seconds > 0.0);
        assert!(
            report.makespan > gold_report.makespan,
            "recovery costs time"
        );
        // each faulted attempt is one modeled `…!` stage span, and its
        // job's retry completes that engine's operation after it
        let stages: Vec<_> = trace.spans.iter().filter(|s| s.cat == "stage").collect();
        let faulted: Vec<_> = stages.iter().filter(|s| s.name.ends_with('!')).collect();
        assert_eq!(faulted.len(), 3);
        for f in faulted {
            let engine = f.name.trim_end_matches('!');
            assert!(
                stages
                    .iter()
                    .any(|s| s.job == f.job && s.name == engine && s.start_us >= f.end_us()),
                "job {:?}: no completed {engine} after its faulted attempt",
                f.job
            );
        }
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
        let (grid, report) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

        assert_eq!(report.failed_jobs.len(), 1);
        let failure = &report.failed_jobs[0];
        assert_eq!(failure.job, 1);
        assert_eq!(failure.first_item, m);
        assert_eq!(failure.attempts, 3);
        assert!(matches!(failure.error, IdgError::KernelFault { job: 1 }));
        assert_eq!(report.nr_retries, 2, "two re-enqueues before giving up");

        // the failed job's visibilities are not counted and its
        // subgrids are absent from the grid
        let full = gridder_counts(&plan.items, plan.subgrid_size());
        assert!(report.counts.visibilities < full.visibilities);
        let (gold, _) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), m, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
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
        let (_, report) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        assert_eq!(report.nr_retries, 0, "OOM is not retried");
        assert_eq!(report.failed_jobs.len(), 1);
        assert_eq!(report.failed_jobs[0].attempts, 1);
        assert!(!report.failed_jobs[0].error.is_transient());
    }

    #[test]
    fn degrid_retries_recover_bit_identical_visibilities() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = idg_math::spheroidal_2d(ds.obs.subgrid_size);
        let data = kernel_data(&ds, &taper);
        let exec = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (grid, _) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
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
        assert!(report.complete());
        assert_eq!(report.nr_retries, 2);
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
        // the grid (4·256²·8 B = 2 MB) doesn't fit, the buffers do
        let mut small = Device::fiji();
        small.arch.mem_size_gb = Some(0.001); // 1 MB device
        let exec_small = GpuExecutor::new(small, 8, &tables);
        let (model, _) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let nr_jobs = plan.work_groups(8).count();
        assert!(nr_jobs > 1, "want a multi-job schedule");

        // the three pass kinds and how each one's Compute interval
        // subdivides: the device adder keeps gridding on the GPU where
        // the grid fits, gridding on a device it does not fit ends at
        // the FFT (the host adds), and degridding runs the reverse chain
        let kinds: [(&str, &[&str]); 3] = [
            ("grid", &["gridder", "subgrid_fft", "adder"]),
            ("grid_host_adder", &["gridder", "subgrid_fft"]),
            ("degrid", &["splitter", "subgrid_ifft", "degridder"]),
        ];
        for (kind, expected_kernels) in kinds {
            let session = idg_obs::Session::begin(kind);
            let totals = match kind {
                "grid" | "grid_host_adder" => {
                    let exec = if kind == "grid" { &exec } else { &exec_small };
                    fresh_grid(&plan, |g| {
                        exec.grid(&data, &plan, add_onto(g, &plan, &tables))
                    })
                    .unwrap()
                    .1
                }
                _ => exec.degrid(&data, &plan, &model).unwrap().1,
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
        let (grid, _) = fresh_grid(&plan, |g| {
            exec.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

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

        assert_eq!(report.failed_jobs.len(), 1);
        let failure = &report.failed_jobs[0];
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
            exec.grid(&data, &plan, add_onto(&mut grid, &plan, &tables)),
            Err(IdgError::ShapeMismatch {
                what: "visibilities",
                ..
            })
        ));
        assert_eq!(grid.power(), 0.0, "grid untouched");
    }
}
