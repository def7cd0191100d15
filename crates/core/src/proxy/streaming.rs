//! Streamed gridding and degridding: chunked ingestion driving the
//! batch pipeline.
//!
//! [`Proxy::grid_streamed`] plans the observation once, consumes it
//! as a sequence of bounded time-axis chunks (split by `idg_stream`),
//! executes each chunk's cut of the one plan independently on
//! `min(workers, max_inflight)` concurrent lanes, and adds each chunk's
//! subgrids onto the grid at the chunk's turn, in chunk order, while
//! later chunks run. A gridding chunk is the one-shot gridding body
//! (the one behind [`Proxy::grid_into`]) over the chunk's cut, its
//! commit closure holding the chunk's jobs until its turn. The streamed
//! grid is **bit identical** to the one-shot [`Proxy::grid`] result for
//! every chunk policy, worker count and fault schedule the one-shot
//! pass shares, because:
//!
//! 1. chunk boundaries snap to `aterm_interval` multiples, no work item
//!    crosses an A-term boundary, and the plan orders its items by
//!    A-term interval: each chunk's sub-plan is *verbatim* one
//!    contiguous range of the plan's items, and the ranges tile the
//!    plan in chunk order (checked before any chunk runs);
//! 2. each work item's subgrid is produced by the same kernels over the
//!    same full input buffers (items carry global time offsets); a
//!    device job that failed for good is re-gridded by the CPU reference
//!    kernels at its turn in job order, in both passes;
//! 3. the scheduler hands chunks over in chunk order and each chunk adds
//!    its jobs in job order — the adder closure of [`Proxy::grid_into`]
//!    over the chunk's range of the plan — so every f32 accumulation
//!    happens in the one-shot plan order. Summing per-chunk grids
//!    instead would reorder additions (f32 addition is not associative,
//!    and `0.0 + (-0.0)` even flips a sign bit).
//!
//! [`Proxy::degrid_streamed`] is the duplex twin. A degrid chunk is
//! the one-shot degrid pass (the body behind [`Proxy::degrid`]) run
//! over the chunk's own window of the observation — its timesteps of
//! `uvw`, its items re-based onto them — so every buffer it allocates
//! (host job loop, device pass, CPU fallback) holds only its own rows.
//! The chunk passes flow through the same scheduler, and each chunk's
//! rows are copied into the caller's buffer at its turn, as one
//! contiguous block per baseline. Because the degridder *overwrites*
//! disjoint per-item visibility slots (no accumulation anywhere on the
//! read side), chunks cover disjoint time ranges, no kernel reads a
//! time offset except to index `uvw`, and a row no work item predicts
//! is zero in the window as in the one-shot output, the block copies
//! reproduce [`Proxy::degrid`] bit for bit on every back-end, policy,
//! worker count and fault schedule; see DESIGN.md §12.
//!
//! A stream holds the chunks that finished ahead of their turn: a
//! chunk's output waits only for the chunks before it. One-shot is
//! deliberately *not* the one-chunk stream (DESIGN.md §12): that chunk
//! would hold every job's subgrids until it ends — all 8.6 MB of them
//! on `ska_dense`, where the one-shot host pass holds one job's — and
//! the one-shot GPU pass models the paper's device-resident grid and
//! device adder (Sec. V-C e, [`Sink::Commit`]), not a deferred host
//! commit ([`Sink::Defer`]). The two share the body and differ in that
//! argument and in their commit closure.

use super::Proxy;
use crate::report::ExecutionReport;
use idg_gpusim::{host_adder_time, Sink, HOST_ADDER_BW};
use idg_kernels::{add_subgrids, KernelData, SubgridArray};
use idg_plan::{Plan, WorkItem};
use idg_stream::{chunk_observation, Chunk, ChunkPolicy, StreamScheduler, StreamStats};
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Observation, Uvw, Visibility};
use std::ops::Range;
use std::time::Instant;

/// Configuration of a streamed pass, gridding or degridding.
#[derive(Copy, Clone, Debug)]
pub struct StreamConfig {
    /// Time-axis chunking bounds (A-term snapping applies on top).
    pub policy: ChunkPolicy,
    /// Worker threads executing chunk passes concurrently.
    pub workers: usize,
    /// Cap on chunk passes running at once (`lanes = min(workers,
    /// max_inflight)`). It bounds concurrency, not memory: each chunk's
    /// output — its subgrids, or its own visibility rows — is held
    /// until every chunk before it has been committed.
    pub max_inflight: usize,
}

impl StreamConfig {
    /// A streamed-pass configuration; parameters are validated by
    /// either streamed entry point, [`Proxy::grid_streamed`] or
    /// [`Proxy::degrid_streamed`] (or eagerly via
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

/// A chunk's pass output: what its commit consumes — gridding, each
/// job's range of the chunk's sub-plan with its Fourier-domain subgrids
/// in job order (a CPU-fallback job's range at its job's place);
/// degridding, its predicted rows in the extent of its [`ChunkWindow`] —
/// and its own report: modeled end-to-end time (GPU) or measured wall
/// (CPU) in `total_seconds`, fallback jobs with chunk-local indices.
type ChunkOutput<P> = (P, ExecutionReport);

/// A gridding chunk's payload: each job's range of the chunk's sub-plan
/// with its Fourier-domain subgrids, in job order.
type ChunkSubgrids = Vec<(Range<usize>, SubgridArray)>;

/// The chunks' cut of the one-shot `plan`: for each chunk, the sub-plan
/// of the items whose first time step falls in its time range, and the
/// index of its first item in the plan. The plan orders its items by
/// A-term interval and chunks end on A-term multiples, so each sub-plan
/// is one contiguous range of the plan's items, the ranges tile the plan
/// in chunk order, and each item also ends inside its chunk — which a
/// degrid [`ChunkWindow`] relies on. A cut that breaks any of these is
/// an [`IdgError::Internal`].
fn partition(plan: &Plan, chunks: &[Chunk]) -> Result<Vec<(Plan, usize)>, IdgError> {
    let mut offset = 0;
    let parts = chunks
        .iter()
        .map(|chunk| {
            let time = &chunk.time_range;
            let sub = plan.subset(|item| time.contains(&item.time_offset));
            let first = offset;
            offset += sub.items.len();
            if plan.items.get(first..offset) != Some(&sub.items[..]) {
                return Err(IdgError::Internal(format!(
                    "chunk {}'s work items are not one range of the plan from item {first}",
                    chunk.index
                )));
            }
            if let Some(item) = sub
                .items
                .iter()
                .find(|i| i.time_offset + i.nr_timesteps > time.end)
            {
                return Err(IdgError::Internal(format!(
                    "work item over time steps {}..{} crosses the end of chunk {} ({time:?})",
                    item.time_offset,
                    item.time_offset + item.nr_timesteps,
                    chunk.index
                )));
            }
            Ok((sub, first))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if offset != plan.items.len() {
        return Err(IdgError::Internal(format!(
            "the chunks cover {offset} of the plan's {} work items",
            plan.items.len()
        )));
    }
    Ok(parts)
}

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
    /// Seal the summed report after the last chunk's commit: the commits join
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

/// One streamed degrid chunk's window of the observation: the chunk's
/// timesteps as an observation of their own, its rows of `uvw`, and its
/// plan with every item's time offset re-based onto the window. A pass
/// over the window allocates and indexes only the chunk's visibility
/// rows, through the same code as a whole-observation pass. Nothing
/// else moves: items keep their baselines, channel groups, A-term slots
/// (the A-term cube is shared, read-only) and subgrid placements, and
/// no kernel reads a time offset except to index `uvw`.
struct ChunkWindow {
    obs: Observation,
    uvw: Vec<Uvw>,
    plan: Plan,
}

impl ChunkWindow {
    /// The window of `time` over `obs`/`uvw`, for `plan`, the chunk's
    /// sub-plan of that time range (global time offsets).
    fn new(obs: &Observation, uvw: &[Uvw], time: &Range<usize>, plan: &Plan) -> Self {
        let nr_time = obs.nr_timesteps;
        let uvw = (0..obs.nr_baselines())
            .flat_map(|b| &uvw[b * nr_time + time.start..b * nr_time + time.end])
            .copied()
            .collect();
        let mut plan = plan.clone();
        for item in &mut plan.items {
            item.time_offset -= time.start;
        }
        Self {
            obs: Observation {
                nr_timesteps: time.len(),
                ..obs.clone()
            },
            uvw,
            plan,
        }
    }

    /// The kernel inputs of a degrid pass over the window.
    fn data<'a>(&'a self, whole: &KernelData<'a>) -> KernelData<'a> {
        KernelData {
            obs: &self.obs,
            uvw: &self.uvw,
            visibilities: &[],
            aterms: whole.aterms,
            taper: whole.taper,
        }
    }
}

impl Proxy {
    /// Plan the observation once and drive its chunks through `pass` —
    /// each over its sub-plan of the one plan — on the stream scheduler,
    /// handing each chunk's payload to `commit` at its turn, in chunk
    /// order, with the chunk and its range of the plan's items. The
    /// first error in chunk order, a pass's or a commit's, ends the
    /// commits and is the stream's. Returns the report summed over the
    /// chunks and sealed with the commits' wall time and
    /// `commit_model(&plan)`, their modeled time.
    fn stream_chunks<P: Send>(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        pass: impl Fn(&Chunk, &Plan) -> Result<ChunkOutput<P>, IdgError> + Sync,
        mut commit: impl FnMut(&Chunk, &[WorkItem], P) -> Result<(), IdgError>,
        commit_model: impl FnOnce(&Plan) -> f64,
    ) -> Result<ExecutionReport, IdgError> {
        let chunks = chunk_observation(&self.obs, &config.policy)?;
        let scheduler = StreamScheduler::new(config.workers, config.max_inflight)?;

        let started = Instant::now();
        let plan = self.plan(uvw)?;
        let parts = partition(&plan, &chunks)?;
        let mut makespans = Vec::with_capacity(chunks.len());
        let mut commit_wall = 0.0;
        let mut summed: Result<Option<ExecutionReport>, IdgError> = Ok(None);
        let stats = scheduler.run_stream(
            &chunks,
            |chunk| pass(chunk, &parts[chunk.index].0),
            |index, result| {
                let Ok(sum) = &mut summed else { return };
                let t = Instant::now();
                let (sub, first) = &parts[index];
                let items = &plan.items[*first..*first + sub.items.len()];
                let committed = result.and_then(|(payload, report)| {
                    commit(&chunks[index], items, payload).map(|()| report)
                });
                commit_wall += t.elapsed().as_secs_f64();
                match committed {
                    Ok(report) => {
                        makespans.push(report.total_seconds);
                        *sum = Some(match sum.take() {
                            Some(sum) => sum_reports(sum, report),
                            None => report,
                        });
                    }
                    Err(e) => summed = Err(e),
                }
            },
        );
        let report =
            summed?.ok_or_else(|| IdgError::Internal("stream produced no chunks".into()))?;
        let totals = StreamTotals {
            report,
            makespans,
            stats,
            started,
        };
        Ok(totals.seal(config, commit_wall, commit_model(&plan)))
    }

    /// Grid visibilities through the streaming front-end: chunked
    /// ingestion, a concurrent pass scheduler, and each chunk's commit
    /// at its turn.
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
        let mut grid = Grid::<f32>::new(self.obs.grid_size);
        let n = self.obs.subgrid_size;
        let report = self.stream_chunks(
            config,
            uvw,
            |chunk, plan| self.run_chunk(&data, chunk, plan),
            |chunk, items, jobs| {
                let _span = idg_obs::wall_span("adder", "stage", u32::try_from(chunk.index).ok());
                jobs.iter().try_for_each(|(range, subgrids)| {
                    add_subgrids(&mut grid, &items[range.clone()], subgrids, &self.tables)
                })
            },
            |plan| host_adder_time(plan.items.len(), n),
        )?;
        Ok((grid, report))
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
    /// front-end — the duplex twin of [`Proxy::grid_streamed`]: each
    /// chunk runs the one-shot degrid pass over its own window of the
    /// observation, the chunk passes run across the same scheduler, and
    /// each chunk's predicted rows are copied into the output buffer at
    /// the chunk's turn.
    ///
    /// The returned visibilities are bit-identical to
    /// [`Proxy::degrid`] over the same inputs, for every chunk policy,
    /// worker count, completion order and fault schedule: the chunks'
    /// sub-plans partition the one-shot plan's items verbatim, the
    /// degridder overwrites disjoint per-item slots (no accumulation on
    /// the read side), and the commit copies each chunk's rows of each
    /// baseline to their place in the observation as one block. The
    /// returned buffer is the only observation-sized one the pass
    /// allocates.
    ///
    /// # Errors
    /// Every error of [`Proxy::degrid`], from the chunk pass that meets
    /// it: a non-finite model-grid sample fails the pass only if a
    /// chunk's footprints read it. [`IdgError::InvalidParameter`] for a
    /// degenerate [`StreamConfig`]: a zero chunk bound, worker count or
    /// admission window.
    pub fn degrid_streamed(
        &self,
        config: &StreamConfig,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let data = self.degridding_input(grid, uvw, aterms)?;
        let nr_chan = self.obs.nr_channels();
        let per_baseline = self.obs.nr_timesteps * nr_chan;
        let mut vis = Visibility::<f32>::zeroed_vec(self.obs.nr_visibilities());
        let report = self.stream_chunks(
            config,
            uvw,
            |chunk, plan| self.run_degrid_chunk(&data, chunk, plan, grid),
            // a chunk's window holds each baseline's rows of its time
            // range contiguously, as the observation does
            |chunk, _, rows: Vec<Visibility<f32>>| {
                let _span =
                    idg_obs::wall_span("vis_commit", "stage", u32::try_from(chunk.index).ok());
                let time = &chunk.time_range;
                let block = time.start * nr_chan..time.end * nr_chan;
                let baselines = vis.chunks_exact_mut(per_baseline);
                for (dst, src) in baselines.zip(rows.chunks_exact(block.len())) {
                    dst[block.clone()].copy_from_slice(src);
                }
                Ok(())
            },
            // each predicted visibility is one 4-pol read + write (32 B)
            |plan| (plan.nr_gridded_visibilities() * 2 * 32) as f64 / HOST_ADDER_BW,
        )?;
        Ok((vis, report))
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

    /// One chunk's gridding pass over its sub-plan `plan`: the one-shot
    /// gridding body with a [`Sink::Defer`] sink, holding every job's
    /// subgrids — a device job that fell back to the CPU at its turn —
    /// for the chunk's commit. Runs on a scheduler worker thread.
    fn run_chunk(
        &self,
        data: &KernelData<'_>,
        chunk: &Chunk,
        plan: &Plan,
    ) -> Result<ChunkOutput<ChunkSubgrids>, IdgError> {
        let tag = u32::try_from(chunk.index).ok();
        let mut jobs = ChunkSubgrids::new();
        let report = self.grid_pass(data, plan, Sink::Defer, tag, |range, subgrids| {
            jobs.push((range, subgrids));
            Ok(None)
        })?;
        Ok((jobs, report))
    }

    /// One chunk's degrid pass over its sub-plan `plan`: the
    /// one-shot degrid body run over the chunk's [`ChunkWindow`], into
    /// the chunk's own rows, leaving the commit to the caller. Runs on a
    /// scheduler worker thread.
    fn run_degrid_chunk(
        &self,
        data: &KernelData<'_>,
        chunk: &Chunk,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<ChunkOutput<Vec<Visibility<f32>>>, IdgError> {
        let tag = u32::try_from(chunk.index).ok();
        let window = ChunkWindow::new(data.obs, data.uvw, &chunk.time_range, plan);
        self.degrid_pass(&window.data(data), &window.plan, grid, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};

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

    /// [`dataset`] with baseline 1 moved far off the grid: the plan
    /// skips all its visibilities. Returns the dataset and that
    /// baseline's range in the visibility buffer.
    fn off_grid_dataset() -> (Dataset, Range<usize>) {
        let mut ds = dataset();
        let nr_time = ds.obs.nr_timesteps;
        for c in &mut ds.uvw[nr_time..2 * nr_time] {
            (c.u, c.v) = (1e9, 1e9);
        }
        let per_baseline = nr_time * ds.obs.nr_channels();
        (ds, per_baseline..2 * per_baseline)
    }

    #[test]
    fn streamed_grid_is_bit_identical_to_one_shot_on_every_backend() {
        // the second input's plan skips baseline 1's visibilities: no
        // chunk may grid them
        let inputs = [(dataset(), 0..0), off_grid_dataset()];
        for ((ds, skipped), backend) in inputs
            .iter()
            .flat_map(|input| Backend::all().map(|b| (input, b)))
        {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            assert_eq!(plan.skipped_visibilities, skipped.len());
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
    fn chunks_cut_the_one_shot_plan_into_whole_items() {
        // 48 time steps, A-term interval 8, 40 visibilities per step
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let policies = [
            ChunkPolicy::by_timesteps(1),        // snaps up to one interval
            ChunkPolicy::by_timesteps(36),       // 32-step stride, 16-step tail
            ChunkPolicy::by_visibilities(1_000), // 24-step stride
        ];
        for policy in policies {
            let chunks = chunk_observation(&ds.obs, &policy).unwrap();
            assert!(chunks.len() > 1, "{policy:?}");
            let parts = partition(&plan, &chunks).unwrap();
            // each chunk's sub-plan is one contiguous range of the plan's
            // items, the ranges tile the plan in chunk order, and every
            // item ends inside its chunk
            let mut next = 0;
            for (chunk, (sub, first)) in chunks.iter().zip(&parts) {
                assert_eq!(*first, next, "{policy:?}");
                next += sub.items.len();
                assert_eq!(sub.items, plan.items[*first..next], "{policy:?}");
                for item in &sub.items {
                    let (start, end) = (item.time_offset, item.time_offset + item.nr_timesteps);
                    assert!(chunk.time_range.start <= start && end <= chunk.time_range.end);
                }
            }
            assert_eq!(next, plan.items.len(), "{policy:?}");

            // a plan out of A-term-interval order is not cut into ranges
            let mut reversed = plan.clone();
            reversed.items.reverse();
            assert!(matches!(
                partition(&reversed, &chunks),
                Err(IdgError::Internal(_))
            ));
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
            // the chunks' sub-plans partition the one-shot plan's items
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
        // the second input's plan skips baseline 1's rows, and the
        // block commit copies them from the chunk windows all the same —
        // they must read zero
        let inputs = [(dataset(), 0..0), off_grid_dataset()];
        for ((ds, skipped), backend) in inputs
            .iter()
            .flat_map(|input| Backend::all().map(|b| (input, b)))
        {
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
            let zero = |v: &Visibility<f32>| *v == Visibility::zero();
            assert!(streamed[skipped.clone()].iter().all(zero), "{backend:?}");
            assert_eq!(report.pass, "degridding");
            let stats = report.stream.expect("streamed pass reports stream stats");
            assert_eq!(stats.nr_chunks, 6, "{backend:?}");
            assert_eq!(stats.completed_chunks, 6);
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.inflight_max, 2);
            assert_eq!(stats.backpressure_waits, 4);
        }
    }

    #[test]
    fn streamed_degrid_chunks_hold_only_their_own_rows() {
        // two chunks, the second shorter: each chunk pass predicts into
        // a buffer of exactly its own visibility count, on every back-end
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(32), 2, 2);
        let per_step = ds.obs.nr_baselines() * ds.obs.nr_channels();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let data = proxy.degridding_input(&model, &ds.uvw, &ds.aterms).unwrap();
            let mut times = Vec::new();
            proxy
                .stream_chunks(
                    &config,
                    &ds.uvw,
                    |chunk, plan| proxy.run_degrid_chunk(&data, chunk, plan, &model),
                    |chunk, _, rows| {
                        let time = chunk.time_range.clone();
                        assert_eq!(rows.len(), time.len() * per_step, "{backend:?}");
                        times.push(time);
                        Ok(())
                    },
                    |_| 0.0,
                )
                .unwrap();
            assert_eq!(times, [0..32, 32..48], "{backend:?}");
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
