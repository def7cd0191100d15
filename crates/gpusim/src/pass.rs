//! The device-pass engine: everything a gridding or degridding pass
//! does on a modeled device, written once.
//!
//! The paper's host code is one triple-buffered HtoD → kernels → DtoH
//! job chain (Sec. V-C, Fig. 7) run in two directions. A [`Pass`] is
//! that chain parameterized by a [`Direction`]; a gridding pass also
//! takes the caller's commit closure:
//!
//! | direction | pass (both executors) |
//! |---|---|
//! | `Grid(commit)` | `grid` |
//! | `Degrid(&grid)` | `degrid` |
//!
//! The pass alone decides when a gridding job reaches the commit
//! closure ([`Pass::hand_over`]): a job is decided when it completes
//! ([`Pass::run_job_on`]) or fails for good ([`Pass::fail_job`]), and
//! each decision hands over every job from the cursor whose turn has
//! come, in job order — the job's `plan.items` ranges with their
//! subgrids, or its [`JobFailure`]. So a pass holds only the jobs
//! decided ahead of an undecided one: one job's subgrids when jobs
//! finish in order. What the caller does with them is the caller's; a
//! streamed gridding chunk is the same `grid` pass over the chunk's cut
//! of the plan. A degrid pass hands nothing over: its jobs write
//! disjoint visibility slots of one buffer in place, so a streamed
//! degrid chunk is the same `degrid` pass run over the chunk's own
//! window of the observation.
//!
//! The engine owns the **job model** ([`Pass::job_model`], which prices
//! every device job from the [`crate::timing`] formulas), the
//! reservation formula ([`DeviceSlot::reserve`]), the fault/retry loop
//! ([`run_job`]), the one kernel back-end over staged chunks
//! ([`Pass::run_job_on`]), the failed-slot zeroing ([`Pass::fail_job`]),
//! the hand-over and the report seal ([`Pass::seal`]). What it does
//! *not* own is dispatch: which device a job runs on, in which order,
//! and what happens to a job a device gave up on. The pass allocates no
//! grid. `GpuExecutor` walks the jobs sequentially over one
//! [`DeviceSlot`]; `FleetExecutor` wraps each slot in a health tracker
//! and a degradation-ladder rung and re-queues failures. A single
//! device is the one-chunk case of the fleet's ladder chunks, not a
//! fleet of one: it has no breaker, no ladder and no re-dispatch.

use crate::device::Device;
use crate::executor::JobFailure;
use crate::fault::{checksum_bytes, FaultConfig, FaultInjector, FaultKind, RetryPolicy};
use crate::kernels::{degridder_gpu, gridder_gpu};
use crate::stream::{Engine, FaultPoint, OpStatus, PipelineSim, TraceEntry};
use crate::timing::{adder_time, host_adder_time, kernel_time, subgrid_fft_time, transfer_time};
use idg_fft::Direction as FftDirection;
use idg_kernels::{fft_subgrids, split_subgrids, FftNorm, KernelData, KernelTables, SubgridArray};
use idg_perf::{degridder_counts, gridder_counts, EnergyModel, OpCounts};
use idg_plan::{Plan, WorkItem};
use idg_types::{FaultSite, Grid, IdgError, Visibility};
use std::ops::Range;

/// Which way the job chain runs.
pub(crate) enum Direction<'a> {
    /// Visibilities → subgrids, handed to the commit closure job by job.
    Grid(&'a mut Commit<'a>),
    /// Model grid → subgrids → predicted visibilities, written in place
    /// into the pass's one visibility buffer.
    Degrid(&'a Grid<f32>),
}

/// One gridding job's output as a pass hands it to its caller: the
/// subgrids computed for a `plan.items` range, or the failure that left
/// the job's range without any.
pub type GriddedJob<'f> = Result<SubgridArray, &'f JobFailure>;

/// The caller's commit closure of a gridding pass.
pub(crate) type Commit<'c> = dyn FnMut(Range<usize>, GriddedJob<'_>) -> Result<(), IdgError> + 'c;

/// One gridding job's output until it is handed over: the subgrids of
/// each staged chunk, keyed by the chunk's item range within the group
/// (empty for a degridding job, which writes its visibilities in place).
type PendingChunks = Vec<(Range<usize>, SubgridArray)>;

/// The modeled totals of one device pass — the part of the report the
/// single-device and fleet executors share.
#[derive(Clone, Debug)]
pub struct PassTotals {
    /// "gridding" or "degridding".
    pub pass: &'static str,
    /// Aggregate gridder/degridder operation counters (successful jobs).
    pub counts: OpCounts,
    /// Modeled main-kernel busy time summed over devices, s (including
    /// faulted attempts).
    pub kernel_seconds: f64,
    /// Modeled subgrid-FFT time, s.
    pub fft_seconds: f64,
    /// Modeled adder/splitter time, s.
    pub adder_seconds: f64,
    /// Modeled host-to-device transfer time, s (including faulted
    /// attempts).
    pub htod_seconds: f64,
    /// Modeled device-to-host transfer time, s (including faulted
    /// attempts).
    pub dtoh_seconds: f64,
    /// Pipeline makespan with triple buffering (the slowest device's on
    /// a fleet), s.
    pub makespan: f64,
    /// Modeled device energy over the makespan summed over devices, J.
    pub device_energy_j: f64,
    /// Modeled host (package + DRAM) energy over the makespan, J.
    pub host_energy_j: f64,
    /// Number of re-enqueued attempts across all jobs.
    pub nr_retries: usize,
    /// Total modeled backoff delay inserted before retries, s.
    pub backoff_seconds: f64,
    /// Jobs that failed persistently (their work is *not* in the
    /// result), in job order; empty on a fault-free pass. The proxy's
    /// per-job CPU fallback re-executes exactly these.
    pub failed_jobs: Vec<JobFailure>,
}

impl PassTotals {
    /// Whether every job's outputs made it into the result.
    pub fn complete(&self) -> bool {
        self.failed_jobs.is_empty()
    }
}

/// Engine time consumed by faulted attempts plus retry bookkeeping.
#[derive(Default)]
struct RetryStats {
    nr_retries: usize,
    backoff_seconds: f64,
    htod_seconds: f64,
    kernel_seconds: f64,
    dtoh_seconds: f64,
}

/// What the retry loop asks the job's kernel back-end to do. `Stage*`
/// return a copy of the transfer payload's raw bytes (checksummed to
/// detect injected corruption); `Compute` runs the real kernels (and
/// must be idempotent — a retry re-runs it from scratch).
enum JobOp {
    StageInput,
    Compute,
    StageOutput,
}

/// How one trip through the fault/retry loop ended: the job either
/// completed (after `attempts` tries) or exhausted its chances on a
/// classified error. Every failure carries an [`IdgError`]; the
/// attempt count rides alongside so callers can account retries.
pub(crate) enum JobRun {
    Done { attempts: u32 },
    Failed { error: IdgError, attempts: u32 },
}

/// Run one job through the fault/retry loop.
///
/// `start` is `(first_attempt, not_before)`: the single-device executor
/// always passes `(0, 0.0)`, while the fleet resumes a job past an
/// OOM-degraded attempt (so the same injected fault is not re-drawn)
/// and delays jobs that waited out a breaker cooldown.
#[allow(clippy::too_many_arguments)]
fn run_job(
    pipeline: &mut PipelineSim,
    injector: Option<&FaultInjector>,
    retry: &RetryPolicy,
    stats: &mut RetryStats,
    job: usize,
    times: (f64, f64, f64),
    start: (u32, f64),
    run: &mut dyn FnMut(JobOp) -> Result<Vec<u8>, IdgError>,
) -> JobRun {
    match run_job_inner(pipeline, injector, retry, stats, job, times, start, run) {
        Ok(attempts) => JobRun::Done { attempts },
        Err((error, attempts)) => JobRun::Failed { error, attempts },
    }
}

#[allow(clippy::too_many_arguments)]
fn run_job_inner(
    pipeline: &mut PipelineSim,
    injector: Option<&FaultInjector>,
    retry: &RetryPolicy,
    stats: &mut RetryStats,
    job: usize,
    times: (f64, f64, f64),
    start: (u32, f64),
    run: &mut dyn FnMut(JobOp) -> Result<Vec<u8>, IdgError>,
) -> Result<u32, (IdgError, u32)> {
    let (t_in, t_compute, t_out) = times;
    let (mut attempt, mut not_before) = start;
    loop {
        let hard = |e: IdgError| (e, attempt + 1);
        // what does the injector throw at this attempt? (sites probed
        // in chain order; DtoH only exists when the job transfers out)
        let mut fault = injector.and_then(|inj| {
            [
                FaultSite::Alloc,
                FaultSite::HtoD,
                FaultSite::Kernel,
                FaultSite::DtoH,
            ]
            .into_iter()
            .filter(|&s| s != FaultSite::DtoH || t_out > 0.0)
            .find_map(|s| inj.fault_at(job, attempt, s).map(|k| (inj, s, k)))
        });
        // transfer corruption is *detected*, never assumed: checksum a
        // staged copy of the payload, flip one bit, compare hashes
        if let Some((inj, site, FaultKind::TransferCorruption)) = fault {
            let mut staged = match site {
                FaultSite::HtoD => run(JobOp::StageInput).map_err(hard)?,
                _ => {
                    run(JobOp::Compute).map_err(hard)?;
                    run(JobOp::StageOutput).map_err(hard)?
                }
            };
            let want = checksum_bytes(&staged);
            inj.corrupt_bytes(&mut staged, job, attempt);
            if checksum_bytes(&staged) == want {
                fault = None; // undetectable flip: delivered as clean
            }
        }
        match fault {
            None => {
                run(JobOp::Compute).map_err(hard)?;
                pipeline.submit_attempt(job, attempt, not_before, t_in, t_compute, t_out, None);
                return Ok(attempt + 1);
            }
            // allocation faults never reach the stream engines and
            // retrying the same allocation cannot succeed: persistent
            Some((_, FaultSite::Alloc, kind)) => {
                return Err((kind.to_error(job, FaultSite::Alloc, 0.0), attempt + 1));
            }
            Some((inj, site, kind)) => {
                let extra = if kind == FaultKind::StreamStall {
                    inj.stall_seconds()
                } else {
                    0.0
                };
                let engine = match site {
                    FaultSite::HtoD => Engine::HtoD,
                    FaultSite::Kernel => Engine::Compute,
                    FaultSite::DtoH => Engine::DtoH,
                    // alloc faults take the persistent-failure return
                    // above; classify an escapee as an internal error
                    // rather than panicking mid-pass
                    FaultSite::Alloc => {
                        return Err((
                            IdgError::Internal(
                                "allocation fault reached the stream path".to_string(),
                            ),
                            attempt + 1,
                        ));
                    }
                };
                let outcome = pipeline.submit_attempt(
                    job,
                    attempt,
                    not_before,
                    t_in,
                    t_compute,
                    t_out,
                    Some(FaultPoint {
                        engine,
                        extra_seconds: extra,
                    }),
                );
                // the chain truncates at the faulting engine; charge
                // the engine time the faulted attempt actually held
                match engine {
                    Engine::HtoD => stats.htod_seconds += t_in + extra,
                    Engine::Compute => {
                        stats.htod_seconds += t_in;
                        stats.kernel_seconds += t_compute + extra;
                    }
                    Engine::DtoH => {
                        stats.htod_seconds += t_in;
                        stats.kernel_seconds += t_compute;
                        stats.dtoh_seconds += t_out + extra;
                    }
                }
                let err = kind.to_error(job, site, extra);
                attempt += 1;
                if !err.is_transient() || attempt >= retry.max_attempts {
                    return Err((err, attempt));
                }
                stats.nr_retries += 1;
                let backoff = retry.backoff_before(attempt);
                stats.backoff_seconds += backoff;
                not_before = outcome.end + backoff;
            }
        }
    }
}

/// Replay the pipeline timeline into the calling thread's observability
/// session as modeled spans: one `job` span per job covering all of its
/// operations, one `stage` span per scheduled operation (faulted
/// attempts keep their engine name but carry a `!` suffix), and
/// `kernel` sub-spans subdividing each *completed* Compute interval
/// into its constituent kernels. `parts[job]` lists `(name, seconds)`
/// in execution order and sums to the job's compute time; it is empty
/// when the pass ran unobserved.
///
/// `base_lane` offsets every lane: device `d` of a pass replays into
/// lanes `4d .. 4d + 3` so per-device timelines render side by side.
fn emit_modeled_spans(timeline: &[TraceEntry], parts: &[Vec<(&'static str, f64)>], base_lane: u32) {
    if !idg_obs::is_active() {
        return;
    }
    let nr_jobs = timeline.iter().map(|e| e.job + 1).max().unwrap_or(0);
    let mut extents: Vec<Option<(f64, f64)>> = vec![None; nr_jobs];
    for e in timeline {
        let ext = extents[e.job].get_or_insert((e.start, e.end));
        ext.0 = ext.0.min(e.start);
        ext.1 = ext.1.max(e.end);
    }
    for (job, ext) in extents.iter().enumerate() {
        if let Some((start, end)) = ext {
            idg_obs::modeled_span(
                "job",
                "job",
                Some(job as u32),
                base_lane,
                *start,
                end - start,
            );
        }
    }
    for e in timeline {
        let (name, faulted_name, lane) = match e.engine {
            Engine::HtoD => ("HtoD", "HtoD!", base_lane + 1),
            Engine::Compute => ("Compute", "Compute!", base_lane + 2),
            Engine::DtoH => ("DtoH", "DtoH!", base_lane + 3),
        };
        let completed = e.status == OpStatus::Completed;
        idg_obs::modeled_span(
            if completed { name } else { faulted_name },
            "stage",
            Some(e.job as u32),
            lane,
            e.start,
            e.end - e.start,
        );
        if e.engine == Engine::Compute && completed {
            let mut t = e.start;
            for (kernel, dur) in parts.get(e.job).map_or(&[] as &[_], Vec::as_slice) {
                idg_obs::modeled_span(kernel, "kernel", Some(e.job as u32), lane, t, *dur);
                t += dur;
            }
        }
    }
}

/// The visibility-buffer index ranges a group's work items cover, one
/// per (item, timestep) row.
fn vis_rows<'g>(
    group: &'g [WorkItem],
    nr_timesteps: usize,
    nr_channels: usize,
) -> impl Iterator<Item = Range<usize>> + 'g {
    group.iter().flat_map(move |item| {
        (0..item.nr_timesteps).map(move |dt| {
            let row = (item.baseline_index * nr_timesteps + item.time_offset + dt) * nr_channels;
            row + item.channel_offset..row + item.channel_offset + item.nr_channels
        })
    })
}

/// Raw bytes of the visibilities a group transfers (HtoD payload of a
/// gridding job, DtoH payload of a degridding job).
fn staged_vis_bytes(
    vis: &[Visibility<f32>],
    nr_timesteps: usize,
    nr_channels: usize,
    group: &[WorkItem],
) -> Vec<u8> {
    let mut out = Vec::new();
    for cols in vis_rows(group, nr_timesteps, nr_channels) {
        for p in vis[cols].iter().flat_map(|v| &v.pols) {
            out.extend_from_slice(&p.re.to_le_bytes());
            out.extend_from_slice(&p.im.to_le_bytes());
        }
    }
    out
}

/// Raw bytes of the uvw coordinates a group transfers (degridding HtoD).
fn staged_uvw_bytes(data: &KernelData<'_>, group: &[WorkItem]) -> Vec<u8> {
    let nr_time = data.obs.nr_timesteps;
    let mut out = Vec::new();
    for item in group {
        let base = item.baseline_index * nr_time + item.time_offset;
        for uvw in &data.uvw[base..base + item.nr_timesteps] {
            for f in [uvw.u, uvw.v, uvw.w] {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }
    out
}

/// Raw bytes of a job's subgrid buffers (DtoH payload of host-adder
/// gridding), staged chunk after staged chunk.
fn staged_subgrid_bytes(chunks: &PendingChunks) -> Vec<u8> {
    let mut out = Vec::new();
    for c in chunks.iter().flat_map(|(_, s)| s.as_slice()) {
        out.extend_from_slice(&c.re.to_le_bytes());
        out.extend_from_slice(&c.im.to_le_bytes());
    }
    out
}

/// The modeled cost of one job on one device.
struct JobModel {
    counts: OpCounts,
    /// `(t_in, t_compute, t_out)`: the three-phase chain the pipeline
    /// schedules.
    times: (f64, f64, f64),
    /// `[kernel, fft, adder, htod, dtoh]`, charged to the report when
    /// the job completes (faulted attempts are charged by the retry
    /// loop instead).
    charged: [f64; 5],
    /// The kernels subdividing the compute interval, in execution
    /// order, for span replay; empty unless the pass is observed.
    parts: Vec<(&'static str, f64)>,
}

/// One device's execution state during a pass: the device with its
/// modeled reservation, its fault injector and its pipeline clock.
pub(crate) struct DeviceSlot {
    pub(crate) device: Device,
    pub(crate) pipeline: PipelineSim,
    /// Jobs whose results this device delivered.
    pub(crate) jobs_completed: usize,
    /// Transient-fault retries on this device.
    pub(crate) nr_retries: usize,
    injector: Option<FaultInjector>,
    /// Work items staged per buffer set: the work-group size at full
    /// strength, less on the fleet's degradation ladder (jobs then
    /// compute in several staged chunks).
    staged_items: usize,
    reserved: u64,
    /// Whether the grid lives in device memory (device adder) or only
    /// the buffer sets do (subgrids stream to the host).
    grid_resident: bool,
    /// Kernel breakdown per job, for span replay (each empty unless
    /// the pass is observed).
    compute_parts: Vec<Vec<(&'static str, f64)>>,
}

impl DeviceSlot {
    /// A device with nothing reserved yet (see [`DeviceSlot::reserve`]).
    pub(crate) fn new(device: Device, faults: Option<FaultConfig>, pass: &Pass<'_>) -> Self {
        Self {
            device,
            pipeline: PipelineSim::new(3),
            jobs_completed: 0,
            nr_retries: 0,
            injector: faults.map(FaultInjector::new),
            staged_items: 0,
            reserved: 0,
            grid_resident: false,
            compute_parts: vec![Vec::new(); pass.nr_jobs()],
        }
    }

    /// Model the device-resident allocations of `pass` with
    /// `staged_items` work items per buffer set and `nr_buffers` buffer
    /// sets, replacing any earlier reservation. Preferred: grid + buffer
    /// sets resident on the device. When the grid no longer fits ("when
    /// dealing with large images that no longer fit into GPU device
    /// memory", Sec. V-C e) — fall back to the paper's option (2): keep
    /// only the buffers on the device and copy subgrids to the host.
    /// Errors only when even the buffer sets do not fit; the slot then
    /// holds no reservation.
    pub(crate) fn reserve(
        &mut self,
        pass: &Pass<'_>,
        staged_items: usize,
        nr_buffers: usize,
    ) -> Result<(), IdgError> {
        self.release();
        let n = pass.plan.subgrid_size();
        let grid_bytes = (4 * pass.plan.grid_size() * pass.plan.grid_size() * 8) as u64;
        let subgrid_bytes = (staged_items * 4 * n * n * 8) as u64;
        let io_bytes = (staged_items * 512 * 44) as u64; // vis+uvw staging
        let buffers = nr_buffers as u64 * (subgrid_bytes + io_bytes);
        self.grid_resident = self.device.allocate(grid_bytes + buffers).is_ok();
        if self.grid_resident {
            self.reserved = grid_bytes + buffers;
        } else {
            self.device.allocate(buffers)?;
            self.reserved = buffers;
        }
        self.staged_items = staged_items;
        self.pipeline.set_nr_buffers(nr_buffers);
        Ok(())
    }

    /// Free the slot's reservation.
    pub(crate) fn release(&mut self) {
        self.device.free(self.reserved);
        self.reserved = 0;
    }
}

/// One gridding or degridding pass in flight: inputs, direction, the
/// outputs computed so far and the running totals.
pub(crate) struct Pass<'a> {
    data: &'a KernelData<'a>,
    plan: &'a Plan,
    direction: Direction<'a>,
    work_group_size: usize,
    groups: Vec<&'a [WorkItem]>,
    tables: &'a KernelTables,
    retry: &'a RetryPolicy,
    /// Each decided job from `next` on, until it is handed over: its
    /// output, or the index of its failure in [`PassTotals::failed_jobs`].
    decided: Vec<Option<Result<PendingChunks, usize>>>,
    /// The hand-over cursor: the first job not yet handed over.
    next: usize,
    /// Predicted visibilities of a degridding pass (the extent of
    /// `data.obs`; jobs write their own disjoint slots in place).
    vis: Vec<Visibility<f32>>,
    retried: RetryStats,
    totals: PassTotals,
}

impl<'a> Pass<'a> {
    /// Set up a pass over `plan`'s work groups of `work_group_size`
    /// items (nothing runs until a dispatcher calls
    /// [`Pass::run_job_on`]). The whole plan is held to the observation
    /// here, once: staging and failed-job zeroing index the buffers by
    /// its items outside any kernel's own launch check, and jobs are
    /// separate launches, so only this walk sees an item two jobs share.
    /// A degridding pass allocates its one visibility buffer here, the
    /// extent of `data.obs`.
    pub(crate) fn new(
        data: &'a KernelData<'a>,
        plan: &'a Plan,
        direction: Direction<'a>,
        work_group_size: usize,
        tables: &'a KernelTables,
        retry: &'a RetryPolicy,
    ) -> Result<Self, IdgError> {
        idg_kernels::check_launch(data, &plan.items, None)?;
        let groups: Vec<&[WorkItem]> = plan.work_groups(work_group_size).collect();
        let gridding = matches!(direction, Direction::Grid(..));
        let vis = if gridding {
            data.validate_visibilities()?;
            Vec::new()
        } else {
            Visibility::zeroed_vec(data.obs.nr_visibilities())
        };
        Ok(Self {
            decided: vec![None; groups.len()],
            next: 0,
            data,
            plan,
            direction,
            work_group_size,
            groups,
            tables,
            retry,
            vis,
            retried: RetryStats::default(),
            totals: PassTotals {
                pass: if gridding { "gridding" } else { "degridding" },
                counts: OpCounts::default(),
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
            },
        })
    }

    /// Number of jobs (work groups) in the pass.
    pub(crate) fn nr_jobs(&self) -> usize {
        self.groups.len()
    }

    /// The job model: byte counts, modeled stage times and what a
    /// completed job charges to the report, for one work group on one
    /// device in its current reservation shape.
    fn job_model(&self, slot: &DeviceSlot, group: &[WorkItem]) -> JobModel {
        let device = &slot.device;
        let n = self.plan.subgrid_size();
        let timesteps: usize = group.iter().map(|i| i.nr_timesteps).sum();
        let vis_bytes = (timesteps * self.data.obs.nr_channels() * 32) as u64;
        let uvw_bytes = (timesteps * 12) as u64;
        let t_fft = subgrid_fft_time(device, group.len(), n);
        // kernel sub-spans are only kept while a session records them
        let parts = |parts: &[(&'static str, f64)]| {
            if idg_obs::is_active() {
                parts.to_vec()
            } else {
                Vec::new()
            }
        };
        match self.direction {
            Direction::Grid(_) => {
                let counts = gridder_counts(group, n);
                let t_in = transfer_time(device, vis_bytes + uvw_bytes);
                let t_kernel = kernel_time(device, &counts);
                if slot.grid_resident {
                    // option (1): atomic adder on the device
                    let t_add = adder_time(device, group.len(), n);
                    return JobModel {
                        counts,
                        times: (t_in, t_kernel + t_fft + t_add, 0.0),
                        charged: [t_kernel, t_fft, t_add, t_in, 0.0],
                        parts: parts(&[
                            ("gridder", t_kernel),
                            ("subgrid_fft", t_fft),
                            ("adder", t_add),
                        ]),
                    };
                }
                // option (2): subgrids stream to the host (DtoH engine),
                // which adds them while the GPU computes on
                let subgrid_bytes = (group.len() * 4 * n * n * 8) as u64;
                let t_out = transfer_time(device, subgrid_bytes);
                let t_add = host_adder_time(group.len(), n);
                JobModel {
                    counts,
                    times: (t_in, t_kernel + t_fft, t_out),
                    charged: [t_kernel, t_fft, t_add, t_in, t_out],
                    parts: parts(&[("gridder", t_kernel), ("subgrid_fft", t_fft)]),
                }
            }
            // the reverse chain; splitter reads are modeled identically
            // wherever the grid lives
            Direction::Degrid(_) => {
                let counts = degridder_counts(group, n);
                let t_in = transfer_time(device, uvw_bytes);
                let t_split = adder_time(device, group.len(), n);
                let t_kernel = kernel_time(device, &counts);
                let t_out = transfer_time(device, vis_bytes);
                JobModel {
                    counts,
                    times: (t_in, t_split + t_fft + t_kernel, t_out),
                    charged: [t_kernel, t_fft, t_split, t_in, t_out],
                    parts: parts(&[
                        ("splitter", t_split),
                        ("subgrid_ifft", t_fft),
                        ("degridder", t_kernel),
                    ]),
                }
            }
        }
    }

    /// Run `job` on `slot` through the fault/retry loop and, when it
    /// completes, charge it to the totals and decide it ([`Pass::hand_over`];
    /// an error is the commit closure's). `resume` is [`run_job`]'s
    /// `(first_attempt, not_before)`.
    ///
    /// A job the device gave up on comes back as [`JobRun::Failed`] and
    /// leaves no trace in the output; the dispatcher decides whether to
    /// offer it elsewhere or to [`Pass::fail_job`] it.
    pub(crate) fn run_job_on(
        &mut self,
        slot: &mut DeviceSlot,
        job: usize,
        resume: (u32, f64),
    ) -> Result<JobRun, IdgError> {
        let group = self.groups[job];
        let JobModel {
            counts,
            times,
            charged,
            parts,
        } = self.job_model(slot, group);
        slot.compute_parts[job] = parts;

        let (data, tables, direction) = (self.data, self.tables, &self.direction);
        let n = self.plan.subgrid_size();
        let (nr_time, nr_chan) = (data.obs.nr_timesteps, data.obs.nr_channels());
        let device = &slot.device;
        // a single device stages the whole group as one chunk; a
        // degraded fleet member computes it in the chunks its smaller
        // buffers can stage at once
        let staged_items = slot.staged_items.max(1);
        let chunks = || {
            (0..group.len())
                .step_by(staged_items)
                .map(|lo| lo..(lo + staged_items).min(group.len()))
        };
        let vis = &mut self.vis;
        let mut computed = PendingChunks::new();
        let mut backend = |op: JobOp| -> Result<Vec<u8>, IdgError> {
            match (op, direction) {
                (JobOp::StageInput, Direction::Grid(..)) => {
                    Ok(staged_vis_bytes(data.visibilities, nr_time, nr_chan, group))
                }
                (JobOp::StageInput, Direction::Degrid(_)) => Ok(staged_uvw_bytes(data, group)),
                (JobOp::Compute, Direction::Grid(..)) => {
                    computed.clear();
                    for r in chunks() {
                        let mut subgrids = SubgridArray::new(r.len(), n);
                        gridder_gpu(data, &group[r.clone()], &mut subgrids, device, tables)?;
                        fft_subgrids(&mut subgrids, FftDirection::Forward, FftNorm::None);
                        computed.push((r, subgrids));
                    }
                    Ok(Vec::new())
                }
                (JobOp::Compute, Direction::Degrid(grid)) => {
                    for r in chunks() {
                        let chunk = &group[r];
                        let mut subgrids = SubgridArray::new(chunk.len(), n);
                        split_subgrids(grid, chunk, &mut subgrids, tables)?;
                        fft_subgrids(&mut subgrids, FftDirection::Inverse, FftNorm::None);
                        degridder_gpu(data, chunk, &subgrids, vis, device, tables)?;
                    }
                    Ok(Vec::new())
                }
                (JobOp::StageOutput, Direction::Grid(..)) => Ok(staged_subgrid_bytes(&computed)),
                (JobOp::StageOutput, Direction::Degrid(_)) => {
                    Ok(staged_vis_bytes(vis, nr_time, nr_chan, group))
                }
            }
        };
        let retries_before = self.retried.nr_retries;
        let result = run_job(
            &mut slot.pipeline,
            slot.injector.as_ref(),
            self.retry,
            &mut self.retried,
            job,
            times,
            resume,
            &mut backend,
        );
        slot.nr_retries += self.retried.nr_retries - retries_before;

        if let JobRun::Done { .. } = result {
            slot.jobs_completed += 1;
            let totals = &mut self.totals;
            totals.counts.add(&counts);
            let [kernel, fft, adder, htod, dtoh] = charged;
            totals.kernel_seconds += kernel;
            totals.fft_seconds += fft;
            totals.adder_seconds += adder;
            totals.htod_seconds += htod;
            totals.dtoh_seconds += dtoh;
            self.decided[job] = Some(Ok(computed));
            self.hand_over()?;
        }
        Ok(result)
    }

    /// Record that no device could complete `job`: its work is absent
    /// from the result and it is listed in [`PassTotals::failed_jobs`].
    /// The job is decided ([`Pass::hand_over`]; an error is the commit
    /// closure's).
    pub(crate) fn fail_job(
        &mut self,
        job: usize,
        error: IdgError,
        attempts: u32,
    ) -> Result<(), IdgError> {
        let group = self.groups[job];
        // a faulted attempt may have computed these visibility slots
        // before the chain died — failed jobs leave zeros
        if matches!(self.direction, Direction::Degrid(_)) {
            let obs = self.data.obs;
            for cols in vis_rows(group, obs.nr_timesteps, obs.nr_channels()) {
                self.vis[cols].fill(Visibility::zero());
            }
        }
        self.decided[job] = Some(Err(self.totals.failed_jobs.len()));
        self.totals.failed_jobs.push(JobFailure {
            job,
            first_item: job * self.work_group_size,
            nr_items: group.len(),
            error,
            attempts,
        });
        self.hand_over()
    }

    /// The one hand-over rule, run each time a job is decided: hand every
    /// job from the cursor whose turn has come to the caller's commit, in
    /// job order — each staged chunk's subgrids with its global
    /// `plan.items` range, or a failed job's whole range with its
    /// [`JobFailure`] — freeing the held subgrids as they go. Job order
    /// gives the caller the `add_subgrids` sequence of one sequential
    /// device, whichever device computed what, when — f32 addition is
    /// not associative. A degridding pass only moves the cursor.
    fn hand_over(&mut self) -> Result<(), IdgError> {
        while let Some(decided) = self.decided.get_mut(self.next).and_then(Option::take) {
            let first = self.next * self.work_group_size;
            self.next += 1;
            let Direction::Grid(commit) = &mut self.direction else {
                continue;
            };
            match decided {
                Ok(chunks) => {
                    for (r, subgrids) in chunks {
                        commit(first + r.start..first + r.end, Ok(subgrids))?;
                    }
                }
                Err(failure) => {
                    let failure = &self.totals.failed_jobs[failure];
                    commit(first..first + failure.nr_items, Err(failure))?;
                }
            }
        }
        Ok(())
    }

    /// Seal the report after dispatch: fold in the faulted attempts'
    /// engine time, take makespan and energy from the devices'
    /// pipelines (replaying them as modeled spans, device `d` in lanes
    /// `4d..`), and release their reservations. The first device's
    /// host drives the pass. A dispatch that left a job undecided is an
    /// [`IdgError::Internal`] naming the first such job.
    pub(crate) fn seal<'s>(
        &mut self,
        slots: impl IntoIterator<Item = &'s mut DeviceSlot>,
    ) -> Result<PassTotals, IdgError> {
        if self.next < self.nr_jobs() {
            return Err(IdgError::Internal(format!(
                "device job {} neither completed nor failed",
                self.next
            )));
        }
        let totals = &mut self.totals;
        totals.nr_retries = self.retried.nr_retries;
        totals.backoff_seconds = self.retried.backoff_seconds;
        totals.htod_seconds += self.retried.htod_seconds;
        totals.kernel_seconds += self.retried.kernel_seconds;
        totals.dtoh_seconds += self.retried.dtoh_seconds;
        totals.failed_jobs.sort_by_key(|f| f.job);
        idg_obs::add_retries(totals.nr_retries as u64);

        let mut host = None;
        for (d, slot) in slots.into_iter().enumerate() {
            emit_modeled_spans(&slot.pipeline.timeline, &slot.compute_parts, 4 * d as u32);
            let makespan = slot.pipeline.makespan();
            let busy = slot.pipeline.compute_busy();
            let energy = EnergyModel::new(slot.device.arch.clone());
            totals.device_energy_j += energy.device_energy(busy, 1.0)
                + energy.device_energy((makespan - busy).max(0.0), 0.0);
            totals.makespan = totals.makespan.max(makespan);
            slot.release();
            host.get_or_insert(energy);
        }
        if let Some(host) = host {
            totals.host_energy_j = host.host_energy(totals.makespan);
        }
        Ok(totals.clone())
    }

    /// The predicted visibilities of a degridding pass (failed jobs'
    /// slots are zero).
    pub(crate) fn into_vis(self) -> Vec<Visibility<f32>> {
        self.vis
    }
}

/// A commit closure that adds every handed-over job's subgrids onto
/// `grid` and skips a failed job: a gridding pass with no CPU fallback.
#[cfg(test)]
pub(crate) fn add_onto<'g>(
    grid: &'g mut Grid<f32>,
    plan: &'g Plan,
    tables: &'g KernelTables,
) -> impl FnMut(Range<usize>, GriddedJob<'_>) -> Result<(), IdgError> + 'g {
    move |range, job| match job {
        Ok(subgrids) => idg_kernels::add_subgrids(grid, &plan.items[range], &subgrids, tables),
        Err(_) => Ok(()),
    }
}
