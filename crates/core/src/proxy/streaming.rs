//! Streamed gridding and degridding: chunked ingestion driving the
//! batch pipeline.
//!
//! [`Proxy::grid_streamed`] plans the observation once, consumes it
//! as a sequence of bounded time-axis chunks (split by [`crate::stream`]),
//! and runs each chunk's cut of the one plan in chunk order on the
//! calling thread. A gridding chunk is the one-shot gridding body (the
//! one behind [`Proxy::grid_into`]) over the chunk's cut, adding each
//! job onto the caller's grid as it is handed over. The streamed grid
//! is **bit identical** to the one-shot [`Proxy::grid`] result for
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
//! 3. the chunks run in chunk order and each adds its jobs in job order
//!    — the adds of [`Proxy::grid_into`] over the chunk's range of the
//!    plan — so every f32 accumulation happens in the one-shot plan
//!    order. Summing per-chunk grids instead would reorder additions
//!    (f32 addition is not associative, and `0.0 + (-0.0)` even flips a
//!    sign bit).
//!
//! [`Proxy::degrid_streamed`] is the duplex twin. A degrid chunk is
//! the one-shot degrid pass (the body behind [`Proxy::degrid`]) run
//! over the chunk's own window of the observation — its timesteps of
//! `uvw`, its items re-based onto them — so every buffer it allocates
//! (host job loop, device pass, CPU fallback) holds only its own rows,
//! which the chunk then copies into the caller's buffer as one
//! contiguous block per baseline. Because the degridder *overwrites*
//! disjoint per-item visibility slots (no accumulation anywhere on the
//! read side), chunks cover disjoint time ranges, no kernel reads a
//! time offset except to index `uvw`, and a row no work item predicts
//! is zero in the window as in the one-shot output, the block copies
//! reproduce [`Proxy::degrid`] bit for bit on every back-end, policy,
//! worker count and fault schedule; see DESIGN.md §12.
//!
//! A stream holds what a one-shot pass holds: one job's subgrids on a
//! clean gridding pass, one chunk's rows on a degrid pass. Each chunk
//! is the one-shot pass over its cut of the plan, and the stream's
//! report is the sum of the chunk passes' reports, its modeled total
//! the sum of their makespans in chunk order (the chunks run one after
//! another). One-shot differs from the one-chunk stream only in its
//! report, which carries no stream stats (DESIGN.md §12).

use super::Proxy;
use crate::report::ExecutionReport;
use crate::stream::{chunk_observation, Chunk, ChunkPolicy, StreamStats};
use idg_kernels::KernelData;
use idg_plan::Plan;
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Observation, Uvw, Visibility};
use std::ops::Range;
use std::time::Instant;

/// Configuration of a streamed pass, gridding or degridding.
#[derive(Copy, Clone, Debug)]
pub struct StreamConfig {
    /// Time-axis chunking bounds (A-term snapping applies on top).
    pub policy: ChunkPolicy,
    /// Reported as [`StreamStats::nr_workers`] and validated positive;
    /// changes nothing that runs or is modeled (the chunks run in order
    /// on the calling thread). Kept for the benchmark's callers until
    /// the benchmark stops reading it, when it goes.
    pub workers: usize,
    /// The closed form of the stream's `inflight_max` and
    /// `backpressure_waits`, validated positive; changes nothing that
    /// runs or is modeled. Kept, like `workers`, until the benchmark
    /// stops reading it.
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
    /// bounds, zero workers or a zero `max_inflight`.
    pub fn validate(&self) -> Result<(), IdgError> {
        self.policy.validate()?;
        if self.workers == 0 {
            return Err(IdgError::InvalidParameter(
                "stream config: workers must be positive".into(),
            ));
        }
        if self.max_inflight == 0 {
            return Err(IdgError::InvalidParameter(
                "stream config: max_inflight must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The chunks' cut of the one-shot `plan`: for each chunk, the sub-plan
/// of the items whose first time step falls in its time range. The plan orders its items by
/// A-term interval and chunks end on A-term multiples, so each sub-plan
/// is one contiguous range of the plan's items, the ranges tile the plan
/// in chunk order, and each item also ends inside its chunk — which a
/// degrid [`ChunkWindow`] relies on. A cut that breaks any of these is
/// an [`IdgError::Internal`].
fn partition(plan: &Plan, chunks: &[Chunk]) -> Result<Vec<Plan>, IdgError> {
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
            Ok(sub)
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

/// Add chunk report `b` onto the running stream report `a`: the total,
/// stage seconds, counters, launches, energies and the scalar
/// fault-tolerance counters are additive across chunk passes, which run
/// one after another. `b`'s chunk-local fallback indices become
/// stream-global ones.
fn sum_reports(mut a: ExecutionReport, mut b: ExecutionReport) -> ExecutionReport {
    for failure in &mut b.fallback_jobs {
        failure.job += a.launched_jobs;
        failure.first_item += a.launched_items;
    }
    a.counts.add(&b.counts);
    a.launched_items += b.launched_items;
    a.launched_jobs += b.launched_jobs;
    a.total_seconds += b.total_seconds;
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
    /// Plan the observation once and run its chunks through `pass` —
    /// each over its sub-plan of the one plan, committing its own
    /// output — in chunk order on the calling thread, each under a
    /// `chunk` span; the first error ends the stream: no later chunk
    /// runs. A pass that panics unwinds to the caller, as a one-shot
    /// pass does. Returns the chunk reports summed in chunk order, so a
    /// modeled total is the sum of the chunk makespans; on the host the
    /// total is the wall clock since the stream started.
    fn stream_chunks(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        mut pass: impl FnMut(&Chunk, &Plan) -> Result<ExecutionReport, IdgError>,
    ) -> Result<ExecutionReport, IdgError> {
        config.validate()?;
        let chunks = chunk_observation(&self.obs, &config.policy)?;

        let started = Instant::now();
        let plan = self.plan(uvw)?;
        let parts = partition(&plan, &chunks)?;
        idg_obs::add_chunks_ingested(chunks.len() as u64);
        let mut summed: Option<ExecutionReport> = None;
        for (chunk, part) in chunks.iter().zip(&parts) {
            let _span = idg_obs::wall_span("chunk", "stage", u32::try_from(chunk.index).ok());
            let report = pass(chunk, part)?;
            summed = Some(match summed {
                Some(sum) => sum_reports(sum, report),
                None => report,
            });
        }
        let mut report =
            summed.ok_or_else(|| IdgError::Internal("stream produced no chunks".into()))?;
        if !report.modeled {
            report.total_seconds = started.elapsed().as_secs_f64();
        }
        // per-chunk device breakdowns are not aggregated across the
        // stream (each chunk ran its own fleet pass); only the scalar
        // fault-tolerance counters are summed
        if let Some(fleet) = &mut report.fleet {
            fleet.per_device.clear();
        }
        let n = chunks.len();
        report.stream = Some(StreamStats {
            nr_chunks: n,
            nr_workers: config.workers,
            max_inflight: config.max_inflight,
            inflight_max: config.max_inflight.min(n),
            backpressure_waits: n.saturating_sub(config.max_inflight) as u64,
            failed_chunks: 0,
        });
        Ok(report)
    }

    /// Grid visibilities through the streaming front-end: chunked
    /// ingestion, each chunk's pass adding its jobs onto the grid, in
    /// chunk order.
    ///
    /// The returned grid is bit-identical to [`Proxy::grid`] over the
    /// same inputs, for every chunk policy and worker count (see the
    /// module docs for the argument); the report carries
    /// the stream's stats in [`ExecutionReport::stream`].
    pub fn grid_streamed(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport), IdgError> {
        let data = self.gridding_input(uvw, visibilities, aterms)?;
        let mut grid = Grid::<f32>::new(self.obs.grid_size);
        let report = self.stream_chunks(config, uvw, |chunk, plan| {
            let tag = u32::try_from(chunk.index).ok();
            self.grid_pass(&mut grid, &data, plan, tag)
        })?;
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
    /// chunk, in chunk order, runs the one-shot degrid pass over its own
    /// window of the observation and copies its predicted rows into the
    /// output buffer.
    ///
    /// The returned visibilities are bit-identical to
    /// [`Proxy::degrid`] over the same inputs, for every chunk policy,
    /// worker count and fault schedule: the chunks' sub-plans partition
    /// the one-shot plan's items verbatim, the degridder overwrites
    /// disjoint per-item slots (no accumulation on the read side), and
    /// each chunk copies its rows of each baseline to their place in the
    /// observation as one block. The
    /// returned buffer is the only observation-sized one the pass
    /// allocates.
    ///
    /// # Errors
    /// Every error of [`Proxy::degrid`], from the first chunk pass that
    /// meets it (no later chunk runs): a non-finite model-grid sample
    /// fails the pass only if a chunk's footprints read it.
    /// [`IdgError::InvalidParameter`] for a
    /// degenerate [`StreamConfig`]: a zero chunk bound, `workers` or
    /// `max_inflight`.
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
        let report = self.stream_chunks(config, uvw, |chunk, plan| {
            let (rows, mut report) = self.run_degrid_chunk(&data, chunk, plan, grid)?;
            let _span = idg_obs::wall_span("vis_commit", "stage", u32::try_from(chunk.index).ok());
            let t = Instant::now();
            // a chunk's window holds each baseline's rows of its time
            // range contiguously, as the observation does
            let time = &chunk.time_range;
            let block = time.start * nr_chan..time.end * nr_chan;
            let baselines = vis.chunks_exact_mut(per_baseline);
            for (dst, src) in baselines.zip(rows.chunks_exact(block.len())) {
                dst[block.clone()].copy_from_slice(src);
            }
            // a modeled chunk reports its one-shot pass alone
            if !report.modeled {
                report.adder_seconds += t.elapsed().as_secs_f64();
            }
            Ok(report)
        })?;
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

    /// One chunk's degrid pass over its sub-plan `plan`: the
    /// one-shot degrid body run over the chunk's [`ChunkWindow`], into
    /// the chunk's own rows, and its report (fallback jobs with
    /// chunk-local indices).
    fn run_degrid_chunk(
        &self,
        data: &KernelData<'_>,
        chunk: &Chunk,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
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
            for (chunk, sub) in chunks.iter().zip(&parts) {
                let first = next;
                next += sub.items.len();
                assert_eq!(sub.items, plan.items[first..next], "{policy:?}");
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
                .stream_chunks(&config, &ds.uvw, |chunk, plan| {
                    let (rows, report) = proxy.run_degrid_chunk(&data, chunk, plan, &model)?;
                    let time = chunk.time_range.clone();
                    assert_eq!(rows.len(), time.len() * per_step, "{backend:?}");
                    times.push(time);
                    Ok(report)
                })
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
    fn modeled_streamed_report_is_the_sum_of_one_shot_chunk_passes() {
        // each chunk is the one-shot pass over its cut of the plan, and
        // the chunks run one after another: the stream's report is their
        // reports summed in chunk order, to the bit
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 2);
        let chunks = chunk_observation(&ds.obs, &config.policy).unwrap();
        assert_eq!(chunks.len(), 3);
        let device = || Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        let proxies = [("single", device()), ("fleet", device().with_fleet(2))];
        for ((shape, proxy), direction) in proxies
            .iter()
            .flat_map(|p| ["gridding", "degridding"].map(|d| (p, d)))
        {
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let one_shot = |sub: &Plan| match direction {
                "gridding" => {
                    proxy
                        .grid(sub, &ds.uvw, &ds.visibilities, &ds.aterms)
                        .unwrap()
                        .1
                }
                _ => proxy.degrid(sub, &model, &ds.uvw, &ds.aterms).unwrap().1,
            };
            let streamed = match direction {
                "gridding" => {
                    proxy
                        .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                        .unwrap()
                        .1
                }
                _ => {
                    proxy
                        .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
                        .unwrap()
                        .1
                }
            };
            let mut seconds = [0.0f64; 5];
            let mut energy = [0.0f64; 2];
            let mut counts = idg_perf::OpCounts::default();
            let (mut items, mut jobs) = (0, 0);
            for chunk in &chunks {
                let time = &chunk.time_range;
                let r = one_shot(&plan.subset(|item| time.contains(&item.time_offset)));
                let parts = [
                    r.total_seconds,
                    r.kernel_seconds,
                    r.fft_seconds,
                    r.adder_seconds,
                    r.transfer_seconds,
                ];
                for (sum, part) in seconds.iter_mut().zip(parts) {
                    *sum += part;
                }
                energy[0] += r.device_energy_j.unwrap();
                energy[1] += r.host_energy_j.unwrap();
                counts.add(&r.counts);
                items += r.launched_items;
                jobs += r.launched_jobs;
            }
            let got = [
                streamed.total_seconds,
                streamed.kernel_seconds,
                streamed.fft_seconds,
                streamed.adder_seconds,
                streamed.transfer_seconds,
            ];
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let tag = (shape, direction);
            assert_eq!(bits(&got), bits(&seconds), "{tag:?}: stage seconds");
            let got_energy = [
                streamed.device_energy_j.unwrap(),
                streamed.host_energy_j.unwrap(),
            ];
            assert_eq!(bits(&got_energy), bits(&energy), "{tag:?}: energies");
            assert_eq!(streamed.counts, counts, "{tag:?}");
            assert_eq!(streamed.launched_items, items, "{tag:?}");
            assert_eq!(streamed.launched_jobs, jobs, "{tag:?}");
        }
    }
}
