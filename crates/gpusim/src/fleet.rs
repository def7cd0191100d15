//! Multi-device fleet execution: health-gated dispatch, circuit
//! breakers, and graceful OOM degradation over N simulated devices.
//!
//! The [`FleetExecutor`] partitions a pass's work groups across its
//! member devices round-robin (job `j` prefers device `j mod N`) and
//! runs each job through the same fault/retry machinery as the
//! single-device [`crate::GpuExecutor`]. On top of that it layers the
//! robustness the single executor lacks:
//!
//! - **Health-aware dispatch.** Every device carries a
//!   [`DeviceHealth`] tracker; a device whose breaker is `Open`
//!   admits nothing, so the jobs that would have preferred it flow to
//!   healthy peers — re-dispatch *before* CPU fallback. A job that
//!   fails persistently on one device re-enters the queue and is
//!   offered to the devices that have not yet rejected it.
//! - **Graceful OOM degradation.** Device memory pressure walks a
//!   ladder instead of failing the pass: full batches with triple
//!   buffering → halved staging batches → a single buffer set. Each
//!   rung shrinks the modeled reservation; only a device that cannot
//!   fit even the smallest rung is declared dead. Injected allocation
//!   faults ([`IdgError::is_degradable`]) take the same ladder and
//!   then *resume the job's retry loop* past the faulted attempt.
//! - **Deterministic order-preserving hand-over.** Gridding jobs may
//!   finish on any device in any order, but f32 accumulation is not
//!   associative — so the pass engine hands them to the caller's commit
//!   strictly in global job order, each as soon as every job before it
//!   is decided, which makes a fleet run bit-identical to the
//!   sequential single-device reference whatever the fault schedule did
//!   to the scheduling. Only the jobs decided behind an undecided one
//!   (a re-queued job) are held; a clean pass holds one job.
//!
//! Everything is measured on the modeled [`crate::PipelineSim`] clocks
//! (per-device); no wall time enters any decision, so a chaos run
//! with a given seed and fleet shape replays byte-identically.

use crate::device::Device;
use crate::fault::{FaultConfig, RetryPolicy};
use crate::health::{BreakerConfig, DeviceHealth, JobOutcome};
use crate::kernels::check_device;
use crate::pass::{DeviceSlot, Direction, GriddedJob, JobRun, Pass, PassTotals};
use idg_kernels::{KernelData, KernelTables};
use idg_plan::Plan;
use idg_types::{Grid, IdgError, Visibility};
use std::collections::VecDeque;
use std::ops::Range;

/// Deepest rung of the OOM degradation ladder (see [`level_shape`]).
const MAX_DEGRADATION_LEVEL: usize = 2;

/// The staging shape at one degradation-ladder rung: `(items staged
/// per buffer set, number of buffer sets)`.
///
/// Rung 0 is the paper's configuration (full work groups, triple
/// buffering); rung 1 halves the staged batch (jobs compute in two
/// half-chunks that fit the smaller buffers); rung 2 additionally
/// gives up the transfer/compute overlap by dropping to one buffer
/// set. The per-job *CPU fallback* rung lives above the fleet, in the
/// proxy: it only engages for jobs the whole fleet failed.
fn level_shape(work_group_size: usize, level: usize) -> (usize, usize) {
    match level {
        0 => (work_group_size, 3),
        1 => (work_group_size.div_ceil(2).max(1), 3),
        _ => (work_group_size.div_ceil(2).max(1), 1),
    }
}

/// One device of the fleet plus its (optional) fault schedule.
///
/// Heterogeneous fleets are expected: members may mix architectures
/// and fault configurations (the "lemon" of a chaos run is simply a
/// member with a much higher fault rate than its peers).
#[derive(Clone, Debug)]
pub struct FleetMember {
    /// The device model.
    pub device: Device,
    /// Fault-injection schedule for this device (None = fault-free).
    pub faults: Option<FaultConfig>,
}

/// Per-device slice of a [`FleetRunReport`].
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Architecture nickname (e.g. `"PASCAL"`).
    pub nickname: &'static str,
    /// Jobs whose results this device delivered.
    pub jobs_completed: usize,
    /// Transient-fault retries on this device.
    pub nr_retries: usize,
    /// Breaker trips on this device.
    pub breaker_trips: u64,
    /// Final degradation-ladder rung (0 = full configuration).
    pub degradation_level: usize,
    /// This device's pipeline makespan, modeled seconds.
    pub makespan: f64,
    /// Whether the device was still accepting work at pass end.
    pub alive: bool,
}

/// Outcome of one fleet pass.
#[derive(Clone, Debug)]
pub struct FleetRunReport {
    /// Counters, modeled stage times and energy summed over devices,
    /// the fleet makespan (the slowest device's), retries, and the jobs
    /// no device could complete — the proxy's per-job CPU fallback is
    /// the last rung.
    pub totals: PassTotals,
    /// Dispatches that did not land on the job's preferred device
    /// (breaker refusals, dead devices, and post-failure re-queues).
    pub redispatched_jobs: usize,
    /// Degradation-ladder rungs taken across the fleet.
    pub degradation_steps: usize,
    /// Breaker trips summed over devices.
    pub breaker_trips: u64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceReport>,
}

/// One member's execution state during a pass: its engine slot plus
/// what only the fleet tracks — health, ladder rung, liveness.
struct DeviceState {
    slot: DeviceSlot,
    health: DeviceHealth,
    level: usize,
    alive: bool,
}

impl DeviceState {
    /// Move the slot's reservation to the shape of the current rung.
    fn reserve(&mut self, pass: &Pass<'_>, work_group_size: usize) -> Result<(), IdgError> {
        let (staged_items, nr_buffers) = level_shape(work_group_size, self.level);
        self.slot.reserve(pass, staged_items, nr_buffers)
    }
}

/// Drives gridding / degridding passes across a fleet of modeled
/// devices (see the module docs for the dispatch and degradation
/// semantics).
pub struct FleetExecutor<'t> {
    /// The member devices with their fault schedules.
    pub members: Vec<FleetMember>,
    /// Work items per work group (kernel launch) at full strength.
    pub work_group_size: usize,
    /// Retry policy for transient device faults (shared by members).
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (shared by members).
    pub breaker: BreakerConfig,
    /// The kernel tables of the passes' observation, shared by every
    /// member (normally the owning proxy's).
    pub tables: &'t KernelTables,
}

impl<'t> FleetExecutor<'t> {
    /// Create a fleet from explicit members over `tables`. A zero group
    /// size is clamped to one, as in the single-device executor.
    pub fn new(
        members: Vec<FleetMember>,
        work_group_size: usize,
        tables: &'t KernelTables,
    ) -> Self {
        Self {
            members,
            work_group_size: work_group_size.max(1),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            tables,
        }
    }

    /// A homogeneous fleet: `nr_devices` fault-free clones of `device`.
    pub fn uniform(
        device: Device,
        nr_devices: usize,
        work_group_size: usize,
        tables: &'t KernelTables,
    ) -> Self {
        let members = (0..nr_devices.max(1))
            .map(|_| FleetMember {
                device: device.clone(),
                faults: None,
            })
            .collect();
        Self::new(members, work_group_size, tables)
    }

    /// Attach a fault schedule to one member (e.g. the chaos lemon). An
    /// index past the last member is an [`IdgError::InvalidParameter`].
    pub fn with_member_faults(
        mut self,
        member: usize,
        faults: FaultConfig,
    ) -> Result<Self, IdgError> {
        let nr_devices = self.members.len();
        let Some(m) = self.members.get_mut(member) else {
            return Err(IdgError::InvalidParameter(format!(
                "fleet member fault index {member} out of range (fleet has {nr_devices} devices)"
            )));
        };
        m.faults = Some(faults);
        Ok(self)
    }

    /// Override the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Override the retry policy for transient faults.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set up per-device state, walking each device down the
    /// degradation ladder until its reservation fits. A device that
    /// cannot fit even one buffer set, or whose launch configuration can
    /// run no kernel of this pass, starts the pass dead: its jobs flow to
    /// its peers.
    fn setup(&self, pass: &Pass<'_>, gridding: bool) -> Result<Vec<DeviceState>, IdgError> {
        if self.members.is_empty() {
            return Err(IdgError::InvalidParameter(
                "a fleet needs at least one device".into(),
            ));
        }
        self.breaker.validate()?;
        let mut states = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let mut state = DeviceState {
                slot: DeviceSlot::new(member.device.clone(), member.faults.clone(), pass),
                health: DeviceHealth::new(self.breaker)?,
                level: 0,
                alive: check_device(&member.device, gridding).is_ok(),
            };
            while state.alive && state.reserve(pass, self.work_group_size).is_err() {
                if state.level == MAX_DEGRADATION_LEVEL {
                    state.alive = false;
                    break;
                }
                state.level += 1;
                idg_obs::add_degradation_steps(1);
            }
            states.push(state);
        }
        Ok(states)
    }

    /// Choose a device for `job`: the first admitting device in
    /// round-robin order from the job's preferred owner, or — when
    /// every eligible breaker is `Open` — the device whose cooldown
    /// expires first, with the wait modeled into the job's release
    /// time. `None` means no device can ever take the job.
    fn choose_device(
        states: &mut [DeviceState],
        job: usize,
        tried: &[usize],
    ) -> Option<(usize, f64)> {
        let n = states.len();
        for k in 0..n {
            let d = (job + k) % n;
            if !states[d].alive || tried.contains(&d) {
                continue;
            }
            let now = states[d].slot.pipeline.makespan();
            if states[d].health.admit(now) {
                return Some((d, 0.0));
            }
        }
        // every eligible device refused: wait out the earliest cooldown
        let mut best: Option<(usize, f64)> = None;
        for (d, s) in states.iter().enumerate() {
            if !s.alive || tried.contains(&d) {
                continue;
            }
            if let Some(t) = s.health.cooldown_expiry() {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((d, t));
                }
            }
        }
        let (d, t) = best?;
        // At t the breaker half-opens and must admit a probe; a refusal
        // here would mean the state machine deadlocked.
        assert!(
            states[d].health.admit(t),
            "breaker refused its own cooldown expiry"
        );
        Some((d, t))
    }

    /// Walk one device down the degradation ladder after an OOM.
    /// Returns whether a deeper rung fit; a device that exhausts the
    /// ladder is dead (its pending job re-enters the fleet queue).
    fn degrade_device(state: &mut DeviceState, pass: &Pass<'_>, work_group_size: usize) -> bool {
        while state.level < MAX_DEGRADATION_LEVEL {
            state.level += 1;
            idg_obs::add_degradation_steps(1);
            if state.reserve(pass, work_group_size).is_ok() {
                return true;
            }
        }
        state.slot.release();
        state.alive = false;
        false
    }

    /// The health-gated dispatch loop shared by every pass: offer each
    /// job to the devices round-robin, resume OOM-degraded jobs on the
    /// same device one ladder rung down, re-queue a job a device gave
    /// up on for the peers that have not yet rejected it, and only fail
    /// it once nobody is left. [`FleetExecutor::setup`] has killed every
    /// member that can launch no kernel, so an error with no fault site
    /// is an input error a job's kernels return (such as a non-finite
    /// model-grid sample the splitter reads): no device's failure, it
    /// fails the pass at once, with no breaker outcome and no
    /// re-dispatch. So does an error the commit closure returns.
    /// Returns the number of re-dispatches.
    fn dispatch(&self, states: &mut [DeviceState], pass: &mut Pass<'_>) -> Result<usize, IdgError> {
        let nr_jobs = pass.nr_jobs();
        let nr_members = states.len();
        // Each job may be offered to every device once, plus ladder
        // headroom; the cap is a deadlock backstop, not a tunable.
        let dispatch_cap = (2 * nr_members).max(4) as u32;
        let mut queue: VecDeque<usize> = (0..nr_jobs).collect();
        let mut tried: Vec<Vec<usize>> = vec![Vec::new(); nr_jobs];
        let mut dispatches: Vec<u32> = vec![0; nr_jobs];
        let mut attempts_total: Vec<u32> = vec![0; nr_jobs];
        let mut last_error: Vec<Option<IdgError>> = vec![None; nr_jobs];
        let mut redispatched_jobs = 0;

        while let Some(job) = queue.pop_front() {
            let eligible = Self::choose_device(states, job, &tried[job]);
            let exhausted = dispatches[job] >= dispatch_cap;
            let Some((d, wait_until)) = eligible.filter(|_| !exhausted) else {
                let error = last_error[job].take().unwrap_or(IdgError::Internal(
                    "no fleet device available for job".to_string(),
                ));
                pass.fail_job(job, error, attempts_total[job])?;
                continue;
            };
            dispatches[job] += 1;
            if d != job % nr_members || dispatches[job] > 1 {
                redispatched_jobs += 1;
                idg_obs::add_redispatched_jobs(1);
            }

            // Ladder loop: an OOM-degraded device resumes the same job
            // past the faulted attempt instead of re-drawing it.
            let st = &mut states[d];
            let mut resume = (0u32, wait_until);
            loop {
                let result = pass.run_job_on(&mut st.slot, job, resume)?;
                let now = st.slot.pipeline.makespan();
                match result {
                    JobRun::Done { attempts } => {
                        attempts_total[job] += attempts - resume.0;
                        st.health
                            .record_outcome(JobOutcome::classify(attempts - 1, None), now);
                        break;
                    }
                    JobRun::Failed { error, .. } if error.fault_site().is_none() => {
                        return Err(error);
                    }
                    JobRun::Failed { error, attempts } => {
                        attempts_total[job] += attempts - resume.0;
                        if error.is_degradable()
                            && Self::degrade_device(st, pass, self.work_group_size)
                        {
                            resume = (attempts, resume.1);
                            continue;
                        }
                        st.health.record_outcome(JobOutcome::Failed, now);
                        last_error[job] = Some(error);
                        tried[job].push(d);
                        queue.push_back(job);
                        break;
                    }
                }
            }
        }
        Ok(redispatched_jobs)
    }

    /// Run one pass across the fleet: set the members up, dispatch
    /// every job, and fold the per-device state into the report.
    fn run<'a>(
        &'a self,
        data: &'a KernelData<'a>,
        plan: &'a Plan,
        direction: Direction<'a>,
    ) -> Result<(Pass<'a>, FleetRunReport), IdgError> {
        let w = self.work_group_size;
        let gridding = matches!(direction, Direction::Grid(..));
        let mut pass = Pass::new(data, plan, direction, w, self.tables, &self.retry)?;
        let mut states = self.setup(&pass, gridding)?;
        let redispatched_jobs = self.dispatch(&mut states, &mut pass)?;
        let totals = pass.seal(states.iter_mut().map(|s| &mut s.slot))?;
        let per_device: Vec<DeviceReport> = states
            .iter()
            .map(|s| DeviceReport {
                nickname: s.slot.device.arch.nickname,
                jobs_completed: s.slot.jobs_completed,
                nr_retries: s.slot.nr_retries,
                breaker_trips: s.health.trips(),
                degradation_level: s.level,
                makespan: s.slot.pipeline.makespan(),
                alive: s.alive,
            })
            .collect();
        let report = FleetRunReport {
            totals,
            redispatched_jobs,
            // every rung a device took moved its level by one
            degradation_steps: per_device.iter().map(|d| d.degradation_level).sum(),
            breaker_trips: per_device.iter().map(|d| d.breaker_trips).sum(),
            per_device,
        };
        Ok((pass, report))
    }

    /// Run a full gridding pass: visibilities → Fourier-domain subgrids,
    /// handed to `commit` in global job order, each job as soon as every
    /// job before it is decided, as
    /// [`GpuExecutor::grid`](crate::GpuExecutor::grid) hands them: a
    /// completed job's `plan.items` range with its subgrids (one call
    /// per staged chunk — a degraded job computed in half-chunks), a
    /// job the whole fleet failed with its
    /// [`JobFailure`](crate::JobFailure). The sequence is
    /// **bit-identical** to a fault-free single-device pass's over the
    /// completed jobs, regardless of which device computed what. A setup
    /// error returns before `commit` is first called; an input error a
    /// job's kernels return, or an error `commit` returns, ends dispatch
    /// at once with that error, the jobs before it handed over.
    pub fn grid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        mut commit: impl FnMut(Range<usize>, GriddedJob<'_>) -> Result<(), IdgError>,
    ) -> Result<FleetRunReport, IdgError> {
        let (_, report) = self.run(data, plan, Direction::Grid(&mut commit))?;
        Ok(report)
    }

    /// Run a full degridding pass: grid → predicted visibilities, in
    /// the extent of `data.obs` (a streamed chunk passes its own time
    /// window).
    ///
    /// Visibility slots belonging to fleet-failed jobs are left zero.
    /// Slots are disjoint per job, so no ordered merge is needed: a
    /// re-dispatched job simply overwrites its slots with the same
    /// deterministic values, whichever device ran it.
    pub fn degrid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(Vec<Visibility<f32>>, FleetRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Degrid(grid))?;
        Ok((pass.into_vis(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::GpuExecutor;
    use crate::fault::TargetedFault;
    use crate::fault::{FaultConfig, FaultKind};
    use crate::pass::add_onto;
    use idg_kernels::SubgridArray;
    use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};
    use idg_types::{FaultSite, Observation};

    fn dataset() -> Dataset {
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

    fn kernel_data<'a>(ds: &'a Dataset, taper: &'a [f32]) -> KernelData<'a> {
        KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper,
        }
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

    fn assert_bit_identical(a: &Grid<f32>, b: &Grid<f32>) {
        assert_eq!(a.as_slice().len(), b.as_slice().len());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "grids diverge at {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// A chronically flaky device: roughly half of all attempts fault
    /// somewhere in the HtoD → kernel → DtoH chain.
    fn lemon_faults(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transfer_corruption_rate: 0.25,
            kernel_fault_rate: 0.2,
            stall_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    /// A breaker tuned for short test passes: two unhealthy outcomes
    /// in a window of four trip it.
    fn test_breaker() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            trip_unhealthy: 2,
            cooldown_seconds: 0.5,
            half_open_probes: 2,
        }
    }

    /// The pass kinds both executors are held to: gridding added onto a
    /// grid, gridding with every handed-over job held as it arrives
    /// (pinning the hand-over itself), and degridding.
    const PASS_KINDS: [&str; 3] = ["grid", "grid_handover", "degrid"];

    fn complex_bits<'c>(
        samples: impl IntoIterator<Item = &'c idg_types::Complex<f32>>,
    ) -> Vec<u32> {
        samples
            .into_iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    /// What a gridding pass hands over, as bits: every work item's
    /// `plan.items` index followed by its subgrid, in commit order (a
    /// degraded job hands its subgrids back in half-chunk ranges, which
    /// cover the same items in the same order).
    fn handed_over_subgrid_bits(pending: &[(Range<usize>, SubgridArray)]) -> Vec<u32> {
        let mut bits = Vec::new();
        for (range, subgrids) in pending {
            for (plane, item) in range.clone().enumerate() {
                bits.push(item as u32);
                bits.extend(complex_bits(subgrids.subgrid(plane)));
            }
        }
        bits
    }

    /// A commit closure holding every handed-over job's subgrids in
    /// `pending`.
    fn hold(
        pending: &mut Vec<(Range<usize>, SubgridArray)>,
    ) -> impl FnMut(Range<usize>, GriddedJob<'_>) -> Result<(), IdgError> + '_ {
        |range, job| {
            pending.push((range, job.expect("a complete pass")));
            Ok(())
        }
    }

    /// Run one pass kind on the single-device executor; the output is
    /// flattened to its exact bit pattern.
    fn run_single(
        exec: &GpuExecutor,
        kind: &str,
        data: &KernelData<'_>,
        plan: &Plan,
        model: &Grid<f32>,
    ) -> (Vec<u32>, PassTotals) {
        match kind {
            "grid" => {
                let (grid, report) = fresh_grid(plan, |g| {
                    exec.grid(data, plan, add_onto(g, plan, exec.tables))
                })
                .unwrap();
                (complex_bits(grid.as_slice()), report)
            }
            "grid_handover" => {
                let mut pending = Vec::new();
                let report = exec.grid(data, plan, hold(&mut pending)).unwrap();
                (handed_over_subgrid_bits(&pending), report)
            }
            _ => {
                let (vis, report) = exec.degrid(data, plan, model).unwrap();
                (complex_bits(vis.iter().flat_map(|v| &v.pols)), report)
            }
        }
    }

    /// [`run_single`] for a fleet.
    fn run_fleet(
        fleet: &FleetExecutor,
        kind: &str,
        data: &KernelData<'_>,
        plan: &Plan,
        model: &Grid<f32>,
    ) -> (Vec<u32>, FleetRunReport) {
        match kind {
            "grid" => {
                let (grid, report) = fresh_grid(plan, |g| {
                    fleet.grid(data, plan, add_onto(g, plan, fleet.tables))
                })
                .unwrap();
                (complex_bits(grid.as_slice()), report)
            }
            "grid_handover" => {
                let mut pending = Vec::new();
                let report = fleet.grid(data, plan, hold(&mut pending)).unwrap();
                (handed_over_subgrid_bits(&pending), report)
            }
            _ => {
                let (vis, report) = fleet.degrid(data, plan, model).unwrap();
                (complex_bits(vis.iter().flat_map(|v| &v.pols)), report)
            }
        }
    }

    #[test]
    fn single_member_fleet_matches_the_single_device_executor() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4, &tables);
        let fleet = FleetExecutor::uniform(Device::pascal(), 1, 4, &tables);
        let (model, _) = fresh_grid(&plan, |g| {
            single.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        for kind in PASS_KINDS {
            let (gold, gold_totals) = run_single(&single, kind, &data, &plan, &model);
            let (out, report) = run_fleet(&fleet, kind, &data, &plan, &model);

            // one job model: outputs AND modeled accounting agree to
            // the last bit, whether the subgrids are added or held
            assert_eq!(out, gold, "{kind}: output bits");
            let totals = &report.totals;
            assert!(totals.complete(), "{kind}");
            assert_eq!(totals.counts, gold_totals.counts, "{kind}");
            assert_eq!(totals.makespan, gold_totals.makespan, "{kind}: makespan");
            assert_eq!(
                totals.htod_seconds, gold_totals.htod_seconds,
                "{kind}: HtoD"
            );
            assert_eq!(
                totals.dtoh_seconds, gold_totals.dtoh_seconds,
                "{kind}: DtoH"
            );
            assert_eq!(
                totals.kernel_seconds, gold_totals.kernel_seconds,
                "{kind}: kernel"
            );
            assert_eq!(totals.fft_seconds, gold_totals.fft_seconds, "{kind}: fft");
            assert_eq!(
                totals.adder_seconds, gold_totals.adder_seconds,
                "{kind}: adder"
            );
            assert_eq!(report.breaker_trips, 0);
            assert_eq!(report.redispatched_jobs, 0);
            assert_eq!(report.per_device.len(), 1);
            assert_eq!(
                report.per_device[0].jobs_completed,
                plan.work_groups(4).count()
            );
        }
    }

    #[test]
    fn clean_multi_device_gridding_is_bit_identical_to_one_device() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (gold, gold_report) = fresh_grid(&plan, |g| {
            single.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4, &tables);
        let (grid, report) = fresh_grid(&plan, |g| {
            fleet.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

        // f32 accumulation order is pinned by the ordered commit, so
        // splitting work across devices must not move a single bit
        assert_bit_identical(&grid, &gold);
        assert!(report.totals.complete());
        // jobs spread round-robin across all members
        assert!(report.per_device.iter().all(|d| d.jobs_completed > 0));
        // devices overlap in (modeled) time: the fleet finishes faster
        assert!(report.totals.makespan < gold_report.makespan);
    }

    #[test]
    fn a_commit_error_ends_fleet_dispatch_at_its_job() {
        // the pass hands each job over at its turn, so a commit that
        // refuses job k stops the fleet before it grids job k + 1
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let (wgs, k) = (4, 2);
        assert!(
            plan.work_groups(wgs).count() > k + 1,
            "want jobs after job k"
        );

        let fleet = FleetExecutor::uniform(Device::pascal(), 2, wgs, &tables);
        let session = idg_obs::Session::begin("commit_error");
        let result = fleet.grid(&data, &plan, |range, _| {
            if range.start >= k * wgs {
                return Err(IdgError::Internal("commit refused".into()));
            }
            Ok(())
        });
        let trace = session.finish();

        assert!(matches!(result, Err(IdgError::Internal(msg)) if msg == "commit refused"));
        assert_eq!(
            trace.metrics.gridder.invocations,
            ((k + 1) * wgs) as u64,
            "only jobs 0..=k were gridded"
        );
    }

    #[test]
    fn clean_multi_device_degridding_matches_one_device() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let single = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (grid, _) = fresh_grid(&plan, |g| {
            single.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

        let (gold, _) = single.degrid(&data, &plan, &grid).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4, &tables);
        let (vis, report) = fleet.degrid(&data, &plan, &grid).unwrap();

        assert!(report.totals.complete());
        assert_eq!(vis.len(), gold.len());
        for (a, b) in vis.iter().zip(&gold) {
            for (pa, pb) in a.pols.iter().zip(&b.pols) {
                assert_eq!(pa.re.to_bits(), pb.re.to_bits());
                assert_eq!(pa.im.to_bits(), pb.im.to_bits());
            }
        }
    }

    #[test]
    fn lemon_device_trips_its_breaker_and_the_fleet_still_delivers() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), 1, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
        })
        .unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 4, 1, &tables)
            .with_member_faults(1, lemon_faults(8))
            .unwrap()
            .with_breaker(test_breaker());
        let (grid, report) = fresh_grid(&plan, |g| {
            fleet.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();

        assert_bit_identical(&grid, &gold);
        assert!(
            report.totals.complete(),
            "failures: {:?}",
            report.totals.failed_jobs
        );
        assert!(
            report.breaker_trips > 0,
            "a ~35% fault rate must trip the lemon's breaker"
        );
        assert_eq!(report.per_device[1].breaker_trips, report.breaker_trips);
        assert!(
            report.redispatched_jobs > 0,
            "tripped device's jobs must flow to peers"
        );
    }

    #[test]
    fn targeted_oom_takes_the_degradation_ladder_not_cpu_fallback() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (model, _) = fresh_grid(&plan, |g| {
            single.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let oom = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]);
        let fleet = FleetExecutor::uniform(Device::pascal(), 2, 4, &tables)
            .with_member_faults(0, oom)
            .unwrap();
        // every pass kind resumes the job in half-chunks one rung down
        for kind in PASS_KINDS {
            let (gold, _) = run_single(&single, kind, &data, &plan, &model);
            let (out, report) = run_fleet(&fleet, kind, &data, &plan, &model);

            assert_eq!(out, gold, "{kind}: output bits");
            assert!(
                report.totals.complete(),
                "{kind}: OOM must degrade, not fail the job"
            );
            assert!(report.degradation_steps >= 1, "{kind}");
            assert!(report.per_device[0].degradation_level >= 1, "{kind}");
            assert!(report.per_device[0].alive, "{kind}");
            // the degraded job resumed on the same device: no re-dispatch
            assert_eq!(report.redispatched_jobs, 0, "{kind}");
        }
    }

    #[test]
    fn memory_starved_member_starts_on_a_lower_rung() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = fresh_grid(&plan, |g| {
            GpuExecutor::new(Device::pascal(), 4, &tables).grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables),
            )
        })
        .unwrap();
        // Enough for half-batch buffers (~184 kB at wgs 4) but not the
        // full-strength buffer sets (~369 kB), let alone the grid.
        let mut starved = Device::pascal();
        starved.arch.mem_size_gb = Some(0.0003);
        let fleet = FleetExecutor::new(
            vec![
                FleetMember {
                    device: starved,
                    faults: None,
                },
                FleetMember {
                    device: Device::pascal(),
                    faults: None,
                },
            ],
            4,
            &tables,
        );
        let (grid, report) = fresh_grid(&plan, |g| {
            fleet.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        assert_bit_identical(&grid, &gold);
        assert!(report.totals.complete());
        assert!(report.degradation_steps >= 1);
        assert!(report.per_device[0].degradation_level >= 1);
    }

    #[test]
    fn a_member_that_can_launch_no_kernel_starts_dead_and_its_peer_runs_its_jobs() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4, &tables);
        let (model, _) = fresh_grid(&plan, |g| {
            single.grid(&data, &plan, add_onto(g, &plan, &tables))
        })
        .unwrap();
        let (gold, _) = run_single(&single, "degrid", &data, &plan, &model);
        let mut broken = Device::pascal();
        broken.degridder_block_size = 0;
        let fleet = FleetExecutor::new(
            vec![
                FleetMember {
                    device: broken,
                    faults: None,
                },
                FleetMember {
                    device: Device::pascal(),
                    faults: None,
                },
            ],
            4,
            &tables,
        );
        let (out, report) = run_fleet(&fleet, "degrid", &data, &plan, &model);

        assert_eq!(out, gold, "output bits");
        assert!(report.totals.complete());
        assert!(!report.per_device[0].alive);
        assert_eq!(report.per_device[0].jobs_completed, 0);
        assert_eq!(
            report.per_device[1].jobs_completed,
            plan.work_groups(4).count()
        );
        // every job member 0 would have taken went to its peer
        assert_eq!(
            report.redispatched_jobs,
            plan.work_groups(4).count().div_ceil(2)
        );
        assert_eq!(report.breaker_trips, 0);
    }

    #[test]
    fn member_fault_index_out_of_range_is_rejected() {
        let tables = KernelTables::new(16, 0.05);
        let fleet = FleetExecutor::uniform(Device::pascal(), 2, 4, &tables);
        assert!(matches!(
            fleet.with_member_faults(2, lemon_faults(1)),
            Err(IdgError::InvalidParameter(msg))
                if msg == "fleet member fault index 2 out of range (fleet has 2 devices)"
        ));
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let ds = dataset();
        let tables = KernelTables::for_observation(&ds.obs);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let fleet = FleetExecutor::new(Vec::new(), 4, &tables);
        assert!(matches!(
            fresh_grid(&plan, |g| fleet.grid(
                &data,
                &plan,
                add_onto(g, &plan, &tables)
            )),
            Err(IdgError::InvalidParameter(_))
        ));
    }
}
