//! Streamed gridding: chunked ingestion driving the batch pipeline.
//!
//! [`Proxy::grid_streamed`] consumes the observation as a sequence of
//! bounded time-axis chunks (split by `idg_stream`), plans and executes
//! each chunk independently on `min(workers, max_inflight)` concurrent
//! lanes, and commits every chunk's subgrids in a single in-order pass
//! at the end. The streamed grid is **bit
//! identical** to the one-shot [`Proxy::grid`] result for every chunk
//! policy and worker count, because:
//!
//! 1. chunk boundaries snap to `aterm_interval` multiples, which are
//!    exactly the boundaries the one-shot planner's accumulation loop
//!    breaks on, and every chunk plan shares the whole-observation
//!    [`UvExtents`], so the chunk-local work items are *verbatim* a
//!    partition of the one-shot plan's items
//!    (see [`idg_plan::Plan::create_windowed`]);
//! 2. each work item's subgrid is produced by the same kernels over the
//!    same full input buffers (items carry global time offsets);
//! 3. the commit sorts all items by
//!    `(baseline_index, channel_offset, time_offset)` — recovering the
//!    one-shot plan order — and performs **one** `add_subgrids` call,
//!    so every f32 accumulation happens in the one-shot order. Summing
//!    per-chunk grids instead would reorder additions (f32 addition is
//!    not associative, and `0.0 + (-0.0)` even flips a sign bit).
//!
//! [`Proxy::degrid_streamed`] is the duplex twin: a deferred
//! **splitter** stage (`split_deferred` on the executors) extracts
//! each chunk's subgrids from the model grid, the chunk-local degrid
//! passes flow through the same scheduler, and each chunk's predicted
//! visibilities are committed into the caller's buffer exactly once —
//! guarded by a [`CommitLedger`] — in one-shot plan order. Because the
//! degridder *overwrites* disjoint per-item visibility slots (no
//! accumulation anywhere on the read side), the plain in-order copies
//! reproduce [`Proxy::degrid`] bit for bit on every back-end, policy,
//! worker count and fault schedule; see DESIGN.md §12 for the
//! commit-order argument.
//!
//! One-shot is deliberately *not* the one-chunk stream (DESIGN.md §12):
//! the commit's `combined` copy of every subgrid would add 8.6 MB to
//! `ska_dense`'s 80.8 MB peak RSS, and the one-shot GPU pass models the
//! paper's device-resident grid and device adder (Sec. V-C e,
//! `Sink::AddNow`), not a deferred host commit.

use super::{Backend, Proxy};
use crate::report::ExecutionReport;
use idg_gpusim::{DeferredSubgrids, DeferredVis, HOST_ADDER_BW};
use idg_kernels::{add_subgrids, KernelData, SubgridArray};
use idg_perf::{degridder_counts, gridder_counts};
use idg_plan::{Plan, UvExtents, WorkItem};
use idg_stream::{
    plan_chunk, ChunkPolicy, ChunkedDataset, CommitLedger, StreamDirection, StreamRun,
    StreamScheduler, StreamStats,
};
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Uvw, Visibility};
use std::time::Instant;

/// Configuration of a streamed gridding pass.
#[derive(Copy, Clone, Debug)]
pub struct StreamConfig {
    /// Time-axis chunking bounds (A-term snapping applies on top).
    pub policy: ChunkPolicy,
    /// Worker threads executing chunk passes concurrently.
    pub workers: usize,
    /// Cap on chunk passes running at once (`lanes = min(workers,
    /// max_inflight)`). It bounds concurrency, not memory: every
    /// chunk's output is held until the commit after the stream drains.
    pub max_inflight: usize,
}

impl StreamConfig {
    /// A streamed-pass configuration; parameters are validated by
    /// [`Proxy::grid_streamed`] (or eagerly via
    /// [`StreamConfig::validate`]).
    pub fn new(policy: ChunkPolicy, workers: usize, max_inflight: usize) -> Self {
        Self {
            policy,
            workers,
            max_inflight,
        }
    }

    /// Typed rejection of degenerate configurations: zero-sized chunk
    /// bounds, zero workers or a zero `max_inflight` would each leave
    /// the stream unable to make progress.
    pub fn validate(&self) -> Result<(), IdgError> {
        self.policy.validate()?;
        StreamScheduler::new(self.workers, self.max_inflight).map(|_| ())
    }
}

/// Everything one chunk's pass produced, pending the final commit.
struct ChunkOutput<P> {
    /// The chunk-local plan's work items (global time offsets).
    items: Vec<WorkItem>,
    /// What the commit consumes. Gridding: computed subgrids as ranges
    /// into `items` ([`DeferredSubgrids`]: job granularity on the GPU
    /// paths, one whole-chunk range on the CPU paths). Degridding: the
    /// chunk-local predicted visibilities with the covered `items`
    /// ranges ([`DeferredVis`]). CPU-fallback ranges are appended last.
    payload: P,
    /// The chunk pass's own report: modeled end-to-end time (GPU) or
    /// measured wall (CPU) in `total_seconds`, fallback jobs with
    /// chunk-local indices.
    report: ExecutionReport,
}

/// Every chunk's work items and pending payload, in ingestion order.
type GatheredChunks<P> = Vec<(Vec<WorkItem>, P)>;

/// The accounting of one stream's chunk passes, pending the commit.
struct StreamTotals {
    /// The chunk reports summed (fallback indices remapped to
    /// stream-global ones); sealed by [`StreamTotals::seal`].
    report: ExecutionReport,
    /// Per-chunk end-to-end times, in ingestion order.
    makespans: Vec<f64>,
    stats: StreamStats,
    started: Instant,
}

impl StreamTotals {
    /// Seal the summed report after the final commit: the commit joins
    /// the adder/splitter column — its modeled host-bandwidth cost on
    /// modeled back-ends, its measured wall time otherwise — and the
    /// total is the list-scheduled chunk makespans plus the commit
    /// (modeled) or the wall clock since the stream started.
    fn seal(self, config: &StreamConfig, commit_wall: f64, commit_model: f64) -> ExecutionReport {
        let mut report = self.report;
        if report.modeled {
            let lanes = config.workers.min(config.max_inflight);
            report.adder_seconds += commit_model;
            report.total_seconds = stream_makespan(&self.makespans, lanes) + commit_model;
        } else {
            report.adder_seconds += commit_wall;
            report.total_seconds = self.started.elapsed().as_secs_f64();
        }
        // per-chunk device breakdowns are not aggregated across the
        // stream (each chunk ran its own fleet pass); only the scalar
        // fault-tolerance counters are summed
        if let Some(fleet) = &mut report.fleet {
            fleet.per_device.clear();
        }
        report.stream = Some(self.stats);
        report
    }
}

/// Deterministic makespan model of the concurrent chunk passes: greedy
/// list scheduling of the chunk makespans, in ingestion order, onto
/// `lanes` modeled workers — `min(workers, max_inflight)`, the number
/// of threads the scheduler runs.
fn stream_makespan(chunk_makespans: &[f64], lanes: usize) -> f64 {
    let mut lane_busy = vec![0.0f64; lanes.max(1)];
    for &m in chunk_makespans {
        let mut earliest = 0usize;
        for (i, &t) in lane_busy.iter().enumerate() {
            if t < lane_busy[earliest] {
                earliest = i;
            }
        }
        lane_busy[earliest] += m;
    }
    lane_busy.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// Add chunk report `b` onto the running stream report `a`: stage
/// seconds, counters, launches, energies and the scalar fault-tolerance
/// counters are additive across chunk passes; `total_seconds` is not
/// (chunks overlap) and is set when the stream report is sealed. `b`'s
/// chunk-local fallback indices become stream-global ones.
fn sum_reports(mut a: ExecutionReport, mut b: ExecutionReport) -> ExecutionReport {
    for failure in &mut b.fallback_jobs {
        failure.job += a.launched_jobs;
        failure.first_item += a.launched_items;
    }
    a.counts.add(&b.counts);
    a.launched_items += b.launched_items;
    a.launched_jobs += b.launched_jobs;
    a.kernel_seconds += b.kernel_seconds;
    a.fft_seconds += b.fft_seconds;
    a.adder_seconds += b.adder_seconds;
    a.transfer_seconds += b.transfer_seconds;
    a.device_energy_j = a.device_energy_j.zip(b.device_energy_j).map(|(x, y)| x + y);
    a.host_energy_j = a.host_energy_j.zip(b.host_energy_j).map(|(x, y)| x + y);
    a.nr_retries += b.nr_retries;
    a.backoff_seconds += b.backoff_seconds;
    a.fallback_jobs.extend(b.fallback_jobs);
    if let (Some(fleet), Some(other)) = (&mut a.fleet, b.fleet) {
        fleet.redispatched_jobs += other.redispatched_jobs;
        fleet.degradation_steps += other.degradation_steps;
        fleet.breaker_trips += other.breaker_trips;
    }
    a
}

/// The one-shot plan's item order: sorting the streamed work items by
/// `(baseline, channel group, time)` recovers it exactly.
fn plan_order(item: &WorkItem) -> (usize, usize, usize) {
    (item.baseline_index, item.channel_offset, item.time_offset)
}

/// One committed subgrid: its work item, and where its pixels live in
/// the per-chunk pending arrays.
struct CommitSlot {
    item: WorkItem,
    src: usize,
    plane: usize,
}

/// One committed work item of a streamed degrid pass: the item whose
/// visibility rows are copied, and which chunk's local buffer holds
/// them.
struct DegridCommitSlot {
    item: WorkItem,
    src: usize,
}

impl Proxy {
    /// Drive the observation's chunks through `pass` — one chunk-local
    /// plan each, against the shared whole-observation uv extents — on
    /// the stream scheduler. Returns every chunk's work items
    /// and pending payload in ingestion order, and the summed reports.
    fn stream_chunks<P: Send>(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        direction: StreamDirection,
        pass: impl Fn(Plan, Option<u32>) -> Result<ChunkOutput<P>, IdgError> + Sync,
    ) -> Result<(GatheredChunks<P>, StreamTotals), IdgError> {
        config.policy.validate()?;
        let scheduler = StreamScheduler::new(config.workers, config.max_inflight)?;
        let chunks = ChunkedDataset::split(&self.obs, &config.policy)?;
        let extents = UvExtents::compute(&self.obs, uvw)?;

        let started = Instant::now();
        let StreamRun { results, mut stats } = scheduler.run_stream(chunks.chunks(), |chunk| {
            let plan = plan_chunk(&self.obs, uvw, &extents, chunk)?;
            pass(plan, u32::try_from(chunk.index).ok())
        })?;
        stats.direction = direction;

        let mut gathered = Vec::with_capacity(results.len());
        let mut makespans = Vec::with_capacity(results.len());
        let mut summed: Option<ExecutionReport> = None;
        for result in results {
            let ChunkOutput {
                items,
                payload,
                report,
            } = result?;
            makespans.push(report.total_seconds);
            summed = Some(match summed {
                Some(sum) => sum_reports(sum, report),
                None => report,
            });
            gathered.push((items, payload));
        }
        let report =
            summed.ok_or_else(|| IdgError::Internal("stream produced no chunks".into()))?;
        let totals = StreamTotals {
            report,
            makespans,
            stats,
            started,
        };
        Ok((gathered, totals))
    }

    /// Grid visibilities through the streaming front-end: chunked
    /// ingestion, a concurrent pass scheduler, and a single deferred
    /// in-order commit.
    ///
    /// The returned grid is bit-identical to [`Proxy::grid`] over the
    /// same inputs, for every chunk policy, worker count and completion
    /// order (see the module docs for the argument); the report carries
    /// the scheduling summary in [`ExecutionReport::stream`].
    pub fn grid_streamed(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport), IdgError> {
        let data = self.gridding_input(uvw, visibilities, aterms)?;
        let (chunks, totals) =
            self.stream_chunks(config, uvw, StreamDirection::Gridding, |plan, tag| {
                self.run_chunk(&data, plan, tag)
            })?;

        // gather every pending subgrid behind a commit slot
        let mut arrays: Vec<SubgridArray> = Vec::new();
        let mut slots: Vec<CommitSlot> = Vec::new();
        let mut nr_items = 0;
        for (items, pending) in chunks {
            nr_items += items.len();
            for (range, subgrids) in pending {
                let src = arrays.len();
                for (plane, idx) in range.enumerate() {
                    slots.push(CommitSlot {
                        item: items[idx],
                        src,
                        plane,
                    });
                }
                arrays.push(subgrids);
            }
        }
        if slots.len() != nr_items {
            return Err(IdgError::Internal(format!(
                "streamed commit covers {} of {nr_items} work items",
                slots.len()
            )));
        }

        // the single in-order commit
        slots.sort_by_key(|s| plan_order(&s.item));
        let n = self.obs.subgrid_size;
        let mut combined = SubgridArray::new(slots.len(), n);
        let mut items: Vec<WorkItem> = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            combined
                .subgrid_mut(i)
                .copy_from_slice(arrays[slot.src].subgrid(slot.plane));
            items.push(slot.item);
        }
        let mut grid = Grid::<f32>::new(self.obs.grid_size);
        let t_commit = Instant::now();
        {
            let _span = idg_obs::wall_span("adder", "stage", None);
            add_subgrids(&mut grid, &items, &combined, &self.cache)?;
        }
        let commit_wall = t_commit.elapsed().as_secs_f64();
        let commit_model = (slots.len() * 4 * n * n * 8) as f64 / HOST_ADDER_BW;
        Ok((grid, totals.seal(config, commit_wall, commit_model)))
    }

    /// Run [`Proxy::grid_streamed`] under an observability session (the
    /// streamed counterpart of [`Proxy::grid_observed`], with the same
    /// self-validation contract adapted to chunked execution).
    pub fn grid_streamed_observed(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed("gridding", || {
            self.grid_streamed(config, uvw, visibilities, aterms)
        })
    }

    /// Predict visibilities from a model grid through the streaming
    /// front-end — the duplex twin of [`Proxy::grid_streamed`]: a
    /// deferred splitter stage extracts each chunk's subgrids, the
    /// chunk-local degrid passes run across the same scheduler, and
    /// every chunk's predicted visibilities are
    /// committed into the output buffer exactly once, in one-shot plan
    /// order.
    ///
    /// The returned visibilities are bit-identical to
    /// [`Proxy::degrid`] over the same inputs, for every chunk policy,
    /// worker count, completion order and fault schedule: the chunk
    /// plans partition the one-shot plan's items verbatim, the
    /// degridder overwrites disjoint per-item slots (no accumulation
    /// on the read side), and the commit copies each item's rows from
    /// its chunk's buffer — guarded by a [`CommitLedger`] so each
    /// chunk commits exactly once.
    pub fn degrid_streamed(
        &self,
        config: &StreamConfig,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let data = self.degridding_input(grid, uvw, &zeros, aterms)?;
        let (chunks, totals) =
            self.stream_chunks(config, uvw, StreamDirection::Degridding, |plan, tag| {
                self.run_degrid_chunk(&data, plan, grid, tag)
            })?;

        // gather every covered work item behind a commit slot; the
        // ledger pins the exactly-once-per-chunk commit discipline
        let mut chunk_vis: Vec<Vec<Visibility<f32>>> = Vec::with_capacity(chunks.len());
        let mut slots: Vec<DegridCommitSlot> = Vec::new();
        let mut nr_items = 0;
        let mut ledger = CommitLedger::new(chunks.len());
        for (src, (items, deferred)) in chunks.into_iter().enumerate() {
            ledger.commit(src)?;
            nr_items += items.len();
            for idx in deferred.ranges.into_iter().flatten() {
                slots.push(DegridCommitSlot {
                    item: items[idx],
                    src,
                });
            }
            chunk_vis.push(deferred.vis);
        }
        ledger.finish()?;
        if slots.len() != nr_items {
            return Err(IdgError::Internal(format!(
                "streamed degrid commit covers {} of {nr_items} work items",
                slots.len()
            )));
        }

        // the exactly-once in-order commit: each item's rows are plain
        // copies of disjoint slots
        slots.sort_by_key(|s| plan_order(&s.item));
        let nr_time = self.obs.nr_timesteps;
        let nr_chan = self.obs.nr_channels();
        let mut vis = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let mut committed_vis = 0u64;
        let t_commit = Instant::now();
        {
            let _span = idg_obs::wall_span("vis_commit", "stage", None);
            for slot in &slots {
                let item = &slot.item;
                let src = &chunk_vis[slot.src];
                for dt in 0..item.nr_timesteps {
                    let row = (item.baseline_index * nr_time + item.time_offset + dt) * nr_chan;
                    let cols =
                        row + item.channel_offset..row + item.channel_offset + item.nr_channels;
                    vis[cols.clone()].copy_from_slice(&src[cols]);
                }
                committed_vis += (item.nr_timesteps * item.nr_channels) as u64;
            }
        }
        let commit_wall = t_commit.elapsed().as_secs_f64();
        // each committed visibility is one 4-pol read + write (32 B)
        let commit_model = (committed_vis * 2 * 32) as f64 / HOST_ADDER_BW;
        Ok((vis, totals.seal(config, commit_wall, commit_model)))
    }

    /// Run [`Proxy::degrid_streamed`] under an observability session
    /// (the streamed counterpart of [`Proxy::degrid_observed`], with
    /// the self-validation contract adapted to chunked execution).
    pub fn degrid_streamed_observed(
        &self,
        config: &StreamConfig,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed("degridding", || {
            self.degrid_streamed(config, grid, uvw, aterms)
        })
    }

    /// One chunk's gridding pass over its chunk-local `plan`: the
    /// back-end's gridder + subgrid FFT, leaving the commit to the
    /// caller. On the device paths, persistently failed jobs are
    /// recomputed on the CPU reference kernels and appended to the
    /// pending set, so they join the same single in-order commit as the
    /// device-produced subgrids (the one-shot fallback instead adds
    /// them after the device pass committed). Runs on a scheduler
    /// worker thread.
    fn run_chunk(
        &self,
        data: &KernelData<'_>,
        plan: Plan,
        tag: Option<u32>,
    ) -> Result<ChunkOutput<DeferredSubgrids>, IdgError> {
        let (payload, report) = match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let (subgrids, [kernel, fft]) = self.host_grid_chain(data, &plan.items, tag)?;
                let counts = gridder_counts(&plan.items, self.obs.subgrid_size);
                (
                    vec![(0..plan.items.len(), subgrids)],
                    self.measured_report("gridding", counts, plan.items.len(), [kernel, fft, 0.0]),
                )
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let (mut pending, totals, fleet) = self.on_device(
                    |e| e.grid_deferred(data, &plan),
                    |f| f.grid_deferred(data, &plan),
                )?;
                let fallback_jobs =
                    self.cpu_fallback(&plan, &totals.failed_jobs, |range, items| {
                        pending.push((range, self.reference_subgrids(data, items)?));
                        Ok(())
                    })?;
                let report = self.device_report(totals, plan.items.len(), fallback_jobs, fleet);
                (pending, report)
            }
        };
        Ok(ChunkOutput {
            items: plan.items,
            payload,
            report,
        })
    }

    /// One chunk's degrid pass over its chunk-local `plan`: split the
    /// chunk's subgrids out of the model grid and predict its
    /// visibilities into a chunk-local buffer, leaving the commit to
    /// the caller. On the device paths, persistently failed jobs are
    /// re-predicted with the CPU reference kernels into the same buffer
    /// (the executor already zeroed their slots) and their ranges
    /// appended, so they join the same exactly-once commit. Runs on a
    /// scheduler worker thread.
    fn run_degrid_chunk(
        &self,
        data: &KernelData<'_>,
        plan: Plan,
        grid: &Grid<f32>,
        tag: Option<u32>,
    ) -> Result<ChunkOutput<DeferredVis>, IdgError> {
        let (payload, report) = match self.backend {
            Backend::CpuReference | Backend::CpuOptimized => {
                let (vis, seconds) = self.host_degrid_chain(data, &plan.items, grid, tag)?;
                let counts = degridder_counts(&plan.items, self.obs.subgrid_size);
                // one covering range: the whole chunk is one CPU "job"
                let ranges = std::iter::once(0..plan.items.len()).collect();
                (
                    DeferredVis { ranges, vis },
                    self.measured_report("degridding", counts, plan.items.len(), seconds),
                )
            }
            Backend::GpuPascal | Backend::GpuFiji => {
                let (mut deferred, totals, fleet) = self.on_device(
                    |e| e.split_deferred(data, &plan, grid),
                    |f| f.split_deferred(data, &plan, grid),
                )?;
                let fallback_jobs =
                    self.cpu_fallback(&plan, &totals.failed_jobs, |range, items| {
                        deferred.ranges.push(range);
                        self.reference_predict(data, items, grid, &mut deferred.vis)
                    })?;
                let report = self.device_report(totals, plan.items.len(), fallback_jobs, fleet);
                (deferred, report)
            }
        };
        Ok(ChunkOutput {
            items: plan.items,
            payload,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(48)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 900.0, 171);
        let sky = SkyModel::random(&obs, 4, 0.6, 173);
        let beam = GaussianBeam::new(&obs, 0.8, 179);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    fn assert_bit_identical(a: &Grid<f32>, b: &Grid<f32>) {
        assert_eq!(a.size(), b.size());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn streamed_grid_is_bit_identical_to_one_shot_on_every_backend() {
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (reference, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
            let (streamed, report) = proxy
                .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_bit_identical(&reference, &streamed);
            let stats = report.stream.expect("streamed pass reports stream stats");
            assert_eq!(stats.nr_chunks, 6, "{backend:?}");
            assert_eq!(stats.completed_chunks, 6);
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.inflight_max, 2);
            assert_eq!(stats.backpressure_waits, 4);
        }
    }

    #[test]
    fn streamed_pass_survives_chunk_policies_tighter_than_one_interval() {
        // a 1-timestep policy snaps up to whole A-term intervals; the
        // grid stays bit-identical and every timestep is still covered
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (reference, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(1), 3, 4);
        let (streamed, report) = proxy
            .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_bit_identical(&reference, &streamed);
        assert_eq!(report.stream.unwrap().nr_chunks, 6);
    }

    #[test]
    fn stream_config_rejects_degenerate_parameters() {
        let bad = [
            StreamConfig::new(ChunkPolicy::by_timesteps(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_visibilities(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 0, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 0),
        ];
        for config in bad {
            assert!(matches!(
                config.validate(),
                Err(IdgError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn observed_streamed_runs_self_validate_on_every_backend() {
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 3);
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let (_, report, trace) = proxy
                .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            // the chunk plans partition the one-shot plan's items
            let plan = proxy.plan(&ds.uvw).unwrap();
            assert_eq!(report.launched_items, plan.items.len(), "{backend:?}");
            let metrics = report.metrics.expect("observed run attaches metrics");
            assert_eq!(metrics.chunks_ingested, 3, "{backend:?}");
            assert_eq!(metrics.passes_inflight_max, 3);
            assert!(trace
                .spans
                .iter()
                .any(|s| s.name == "chunk" || s.name == "adder"));
        }
    }

    fn assert_vis_bit_identical(a: &[Visibility<f32>], b: &[Visibility<f32>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            for (p, q) in x.pols.iter().zip(y.pols.iter()) {
                assert_eq!(p.re.to_bits(), q.re.to_bits());
                assert_eq!(p.im.to_bits(), q.im.to_bits());
            }
        }
    }

    #[test]
    fn streamed_degrid_is_bit_identical_to_one_shot_on_every_backend() {
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let (reference, _) = proxy.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();
            let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
            let (streamed, report) = proxy
                .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_vis_bit_identical(&reference, &streamed);
            assert_eq!(report.pass, "degridding");
            let stats = report.stream.expect("streamed pass reports stream stats");
            assert_eq!(stats.direction, idg_stream::StreamDirection::Degridding);
            assert_eq!(stats.nr_chunks, 6, "{backend:?}");
            assert_eq!(stats.completed_chunks, 6);
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.inflight_max, 2);
            assert_eq!(stats.backpressure_waits, 4);
        }
    }

    #[test]
    fn observed_streamed_degrid_runs_self_validate_on_every_backend() {
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 3);
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let (_, report, trace) = proxy
                .degrid_streamed_observed(&config, &model, &ds.uvw, &ds.aterms)
                .unwrap();
            let metrics = report.metrics.expect("observed run attaches metrics");
            assert_eq!(metrics.chunks_ingested, 3, "{backend:?}");
            assert_eq!(metrics.passes_inflight_max, 3);
            assert!(trace
                .spans
                .iter()
                .any(|s| s.name == "chunk" || s.name == "vis_commit"));
        }
    }

    #[test]
    fn streamed_degrid_rejects_degenerate_parameters_typed() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (model, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let bad = [
            StreamConfig::new(ChunkPolicy::by_timesteps(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_visibilities(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 0, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 0),
        ];
        for config in bad {
            assert!(matches!(
                proxy.degrid_streamed(&config, &model, &ds.uvw, &ds.aterms),
                Err(IdgError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn modeled_stream_makespan_overlaps_chunks_across_lanes() {
        // two equal chunks on two lanes finish in one chunk's time
        let span = stream_makespan(&[1.0, 1.0], 2);
        assert!((span - 1.0).abs() < 1e-12);
        // one lane serializes them
        assert!((stream_makespan(&[1.0, 1.0], 1) - 2.0).abs() < 1e-12);
        // list scheduling packs the short chunks behind the long one
        assert!((stream_makespan(&[3.0, 1.0, 1.0, 1.0], 2) - 3.0).abs() < 1e-12);
    }
}
