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
//! - **Deterministic order-preserving merge.** Gridding jobs may
//!   finish on any device in any order, but f32 accumulation is not
//!   associative — so computed subgrids are buffered and committed to
//!   the master grid strictly in global job order, which makes a
//!   fleet run bit-identical to the sequential single-device
//!   reference whatever the fault schedule did to the scheduling.
//!
//! Everything is measured on the modeled [`crate::PipelineSim`] clocks
//! (per-device); no wall time enters any decision, so a chaos run
//! with a given seed and fleet shape replays byte-identically.

use crate::device::Device;
use crate::executor::{DeferredSubgrids, DeferredVis};
use crate::fault::{FaultConfig, RetryPolicy};
use crate::health::{BreakerConfig, DeviceHealth, JobOutcome};
use crate::pass::{DeviceSlot, Direction, JobRun, Pass, PassTotals, Sink};
use idg_kernels::{KernelCache, KernelData};
use idg_plan::Plan;
use idg_types::{Grid, IdgError, Visibility};
use std::collections::VecDeque;
use std::sync::Arc;

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
pub struct FleetExecutor {
    /// The member devices with their fault schedules.
    pub members: Vec<FleetMember>,
    /// Work items per work group (kernel launch) at full strength.
    pub work_group_size: usize,
    /// Retry policy for transient device faults (shared by members).
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (shared by members).
    pub breaker: BreakerConfig,
    /// Pass-level kernel cache, shared with the owning proxy.
    pub cache: Arc<KernelCache>,
}

impl FleetExecutor {
    /// Create a fleet from explicit members. A zero group size is
    /// clamped to one, as in the single-device executor.
    pub fn new(members: Vec<FleetMember>, work_group_size: usize) -> Self {
        Self {
            members,
            work_group_size: work_group_size.max(1),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            cache: Arc::new(KernelCache::new()),
        }
    }

    /// A homogeneous fleet: `nr_devices` fault-free clones of `device`.
    pub fn uniform(device: Device, nr_devices: usize, work_group_size: usize) -> Self {
        let members = (0..nr_devices.max(1))
            .map(|_| FleetMember {
                device: device.clone(),
                faults: None,
            })
            .collect();
        Self::new(members, work_group_size)
    }

    /// Attach a fault schedule to one member (e.g. the chaos lemon).
    pub fn with_member_faults(mut self, member: usize, faults: FaultConfig) -> Self {
        if let Some(m) = self.members.get_mut(member) {
            m.faults = Some(faults);
        }
        self
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

    /// Share a pass-level kernel cache (normally the proxy's).
    pub fn with_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Set up per-device state, walking each device down the
    /// degradation ladder until its reservation fits (a device that
    /// cannot fit even one buffer set starts the pass dead).
    fn setup(&self, pass: &Pass<'_>) -> Result<Vec<DeviceState>, IdgError> {
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
                alive: true,
            };
            while state.reserve(pass, self.work_group_size).is_err() {
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
    /// it once nobody is left. Returns the number of re-dispatches.
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
                pass.fail_job(job, error, attempts_total[job]);
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
        sink: Sink,
    ) -> Result<(Pass<'a>, FleetRunReport), IdgError> {
        let w = self.work_group_size;
        let mut pass = Pass::new(data, plan, direction, sink, w, &self.cache, &self.retry)?;
        let mut states = self.setup(&pass)?;
        let redispatched_jobs = self.dispatch(&mut states, &mut pass)?;
        let totals = pass.seal(states.iter_mut().map(|s| &mut s.slot));
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

    /// Run a full gridding pass: visibilities → grid.
    ///
    /// Jobs the whole fleet failed are reported in
    /// [`PassTotals::failed_jobs`]; their subgrids are absent from
    /// the returned grid. The grid itself is **bit-identical** to a
    /// fault-free single-device pass over the completed jobs, because
    /// commits happen in global job order regardless of which device
    /// computed what.
    pub fn grid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
    ) -> Result<(Grid<f32>, FleetRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Grid, Sink::AddInOrder)?;
        Ok((pass.into_grid()?, report))
    }

    /// Run a gridding pass across the fleet with *deferred* commits:
    /// identical dispatch, health gating, and fault machinery to
    /// [`FleetExecutor::grid`], but instead of merging subgrids into a
    /// grid the computed `(plan.items range, subgrids)` pairs are
    /// returned in global job order. The streaming proxy collects
    /// these across chunk passes and commits everything with one
    /// adder call in one-shot plan order, so the streamed grid stays
    /// bit-identical whatever device finished what, when.
    pub fn grid_deferred(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
    ) -> Result<(DeferredSubgrids, FleetRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Grid, Sink::Defer)?;
        Ok((pass.into_deferred_subgrids(), report))
    }

    /// Run a full degridding pass: grid → predicted visibilities.
    ///
    /// Visibility slots belonging to fleet-failed jobs are left zero.
    /// Slots are disjoint per job, so no ordered merge is needed: a
    /// re-dispatched job simply overwrites its slots with the same
    /// deterministic values.
    pub fn degrid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(Vec<Visibility<f32>>, FleetRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Degrid(grid), Sink::AddInOrder)?;
        Ok((pass.into_vis(), report))
    }

    /// Streamed-degrid twin of [`FleetExecutor::grid_deferred`]: the
    /// degrid dispatch loop, but the predicted visibilities stay in a
    /// chunk-local buffer with the completed jobs' `plan.items` ranges
    /// recorded in global job order for the caller's in-order commit.
    ///
    /// The degridder's values depend only on the plan and inputs, not
    /// on which device ran the job, so health-gated re-dispatch keeps
    /// the buffer bit-identical to a fault-free single-device pass.
    pub fn split_deferred(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(DeferredVis, FleetRunReport), IdgError> {
        let (pass, report) = self.run(data, plan, Direction::Degrid(grid), Sink::Defer)?;
        Ok((pass.into_deferred_vis(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::GpuExecutor;
    use crate::fault::TargetedFault;
    use crate::fault::{FaultConfig, FaultKind};
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

    /// The four pass kinds every executor offers.
    const PASS_KINDS: [&str; 4] = ["grid", "grid_deferred", "degrid", "split_deferred"];

    fn complex_bits<'c>(
        samples: impl IntoIterator<Item = &'c idg_types::Complex<f32>>,
    ) -> Vec<u32> {
        samples
            .into_iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    /// The output bits of a deferred gridding pass: every work item's
    /// `plan.items` index followed by its subgrid, in commit order (a
    /// degraded job hands its subgrids back in half-chunk ranges, which
    /// cover the same items in the same order).
    fn deferred_subgrid_bits(pending: &DeferredSubgrids) -> Vec<u32> {
        let mut bits = Vec::new();
        for (range, subgrids) in pending {
            for (plane, item) in range.clone().enumerate() {
                bits.push(item as u32);
                bits.extend(complex_bits(subgrids.subgrid(plane)));
            }
        }
        bits
    }

    /// The output bits of a deferred degridding pass: the completed
    /// jobs' item ranges, then the chunk-local visibility buffer.
    fn deferred_vis_bits(deferred: &DeferredVis) -> Vec<u32> {
        let ranges = deferred.ranges.iter();
        let mut bits: Vec<u32> = ranges
            .flat_map(|r| [r.start as u32, r.end as u32])
            .collect();
        bits.extend(complex_bits(deferred.vis.iter().flat_map(|v| &v.pols)));
        bits
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
                let (grid, report) = exec.grid(data, plan).unwrap();
                (complex_bits(grid.as_slice()), report.totals)
            }
            "grid_deferred" => {
                let (pending, report) = exec.grid_deferred(data, plan).unwrap();
                (deferred_subgrid_bits(&pending), report.totals)
            }
            "degrid" => {
                let (vis, report) = exec.degrid(data, plan, model).unwrap();
                (
                    complex_bits(vis.iter().flat_map(|v| &v.pols)),
                    report.totals,
                )
            }
            _ => {
                let (deferred, report) = exec.split_deferred(data, plan, model).unwrap();
                (deferred_vis_bits(&deferred), report.totals)
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
                let (grid, report) = fleet.grid(data, plan).unwrap();
                (complex_bits(grid.as_slice()), report)
            }
            "grid_deferred" => {
                let (pending, report) = fleet.grid_deferred(data, plan).unwrap();
                (deferred_subgrid_bits(&pending), report)
            }
            "degrid" => {
                let (vis, report) = fleet.degrid(data, plan, model).unwrap();
                (complex_bits(vis.iter().flat_map(|v| &v.pols)), report)
            }
            _ => {
                let (deferred, report) = fleet.split_deferred(data, plan, model).unwrap();
                (deferred_vis_bits(&deferred), report)
            }
        }
    }

    #[test]
    fn single_member_fleet_matches_the_single_device_executor() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4);
        let fleet = FleetExecutor::uniform(Device::pascal(), 1, 4);
        let (model, _) = single.grid(&data, &plan).unwrap();
        for kind in PASS_KINDS {
            let (gold, gold_totals) = run_single(&single, kind, &data, &plan, &model);
            let (out, report) = run_fleet(&fleet, kind, &data, &plan, &model);

            // one job model: outputs AND modeled accounting agree to
            // the last bit, whatever the sink
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
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4);
        let (gold, gold_report) = single.grid(&data, &plan).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4);
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

        // f32 accumulation order is pinned by the ordered commit, so
        // splitting work across devices must not move a single bit
        assert_bit_identical(&grid, &gold);
        assert!(report.totals.complete());
        // jobs spread round-robin across all members
        assert!(report.per_device.iter().all(|d| d.jobs_completed > 0));
        // devices overlap in (modeled) time: the fleet finishes faster
        assert!(report.totals.makespan < gold_report.totals.makespan);
    }

    #[test]
    fn clean_multi_device_degridding_matches_one_device() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let single = GpuExecutor::new(Device::pascal(), 4);
        let (grid, _) = single.grid(&data, &plan).unwrap();

        let (gold, _) = single.degrid(&data, &plan, &grid).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4);
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
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = GpuExecutor::new(Device::pascal(), 1)
            .grid(&data, &plan)
            .unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 4, 1)
            .with_member_faults(1, lemon_faults(8))
            .with_breaker(test_breaker());
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

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
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4);
        let (model, _) = single.grid(&data, &plan).unwrap();
        let oom = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]);
        let fleet = FleetExecutor::uniform(Device::pascal(), 2, 4).with_member_faults(0, oom);
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
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = GpuExecutor::new(Device::pascal(), 4)
            .grid(&data, &plan)
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
        );
        let (grid, report) = fleet.grid(&data, &plan).unwrap();
        assert_bit_identical(&grid, &gold);
        assert!(report.totals.complete());
        assert!(report.degradation_steps >= 1);
        assert!(report.per_device[0].degradation_level >= 1);
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let fleet = FleetExecutor::new(Vec::new(), 4);
        assert!(matches!(
            fleet.grid(&data, &plan),
            Err(IdgError::InvalidParameter(_))
        ));
    }
}
