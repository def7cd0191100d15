//! # idg-stream — chunked ingestion and concurrent pass scheduling
//!
//! The paper's proxy consumes a whole observation in one shot; a
//! serving system cannot. This crate is the streaming front-end that
//! sits between an arriving visibility stream and the batch pipeline:
//!
//! - [`ChunkPolicy`] / [`ChunkedDataset`] partition the observation's
//!   time axis into bounded chunks. Chunk boundaries snap to
//!   `aterm_interval` multiples, because the planner's greedy
//!   accumulation never crosses an A-term boundary — so a chunk-local
//!   plan started on one reproduces exactly the work items the
//!   one-shot plan emits there (see [`idg_plan::Plan::create_windowed`]).
//! - [`StreamScheduler::run_stream`] drives the chunks through a
//!   bounded submission queue with backpressure: the producer admits
//!   at most `max_inflight` un-completed chunks, worker threads
//!   execute them concurrently, and every chunk's result lands in its
//!   own slot exactly once, whatever order completions arrive in.
//!
//! The scheduler is deliberately generic over the per-chunk pass
//! (`Fn(&Chunk) -> Result<T, IdgError>`): the proxy plugs in CPU
//! kernels, the single-device GPU executor, or the fleet without this
//! crate depending on any of them. Bit-identity of the streamed grid
//! is then the *caller's* obligation — commit every chunk's subgrids
//! in the one-shot plan order after the stream drains (see
//! `Proxy::grid_streamed` in `idg`), never by summing per-chunk grids
//! (f32 addition is order-sensitive and `0.0 + (-0.0)` even flips a
//! sign bit).
//!
//! Both backpressure metrics are deterministic by construction, so
//! same-seed soak runs snapshot byte-identically:
//! `backpressure_waits` counts *window-constrained admissions* (chunk
//! `k` with `k ≥ max_inflight` must wait for completion `k −
//! max_inflight`, whether or not the wait blocks), which is
//! `max(0, nr_chunks − max_inflight)`; `passes_inflight_max` is
//! pinned at `min(max_inflight, nr_chunks)` because workers only
//! start once the admission window is pre-filled.

#![deny(missing_docs)]

use idg_plan::{Plan, UvExtents};
use idg_sync::{thread, Condvar, Mutex};
use idg_types::{IdgError, Observation, Uvw};
use std::collections::VecDeque;
use std::ops::Range;

/// How to bound one ingestion chunk along the time axis.
///
/// Both limits apply together: a chunk covers at most
/// `max_timesteps` time steps *and* at most `max_visibilities`
/// visibilities (each time step carries `nr_baselines × nr_channels`
/// of them). The resulting stride additionally snaps **up** to a
/// whole number of A-term intervals so chunk-local plans stay
/// bit-compatible with the one-shot plan; a policy tighter than one
/// interval therefore still yields `aterm_interval`-sized chunks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Maximum time steps per chunk (before A-term snapping).
    pub max_timesteps: usize,
    /// Maximum visibilities per chunk (before A-term snapping).
    pub max_visibilities: usize,
}

impl ChunkPolicy {
    /// A policy bounded by time steps only.
    pub fn by_timesteps(max_timesteps: usize) -> Self {
        Self {
            max_timesteps,
            max_visibilities: usize::MAX,
        }
    }

    /// A policy bounded by visibility count only.
    pub fn by_visibilities(max_visibilities: usize) -> Self {
        Self {
            max_timesteps: usize::MAX,
            max_visibilities,
        }
    }

    /// Reject zero-sized chunk bounds (either limit at zero would
    /// admit no data at all and stall the stream forever).
    pub fn validate(&self) -> Result<(), IdgError> {
        if self.max_timesteps == 0 {
            return Err(IdgError::InvalidParameter(
                "chunk policy: max_timesteps must be positive".into(),
            ));
        }
        if self.max_visibilities == 0 {
            return Err(IdgError::InvalidParameter(
                "chunk policy: max_visibilities must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// One bounded slice of the observation's time axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Position in ingestion order (0-based).
    pub index: usize,
    /// Global time-step range `[start, end)` this chunk covers.
    pub time_range: Range<usize>,
}

impl Chunk {
    /// Number of time steps covered.
    pub fn nr_timesteps(&self) -> usize {
        self.time_range.end - self.time_range.start
    }
}

/// The observation's time axis split into policy-bounded,
/// A-term-aligned chunks: a lossless, order-preserving,
/// non-overlapping cover of `0..nr_timesteps`.
#[derive(Clone, Debug)]
pub struct ChunkedDataset {
    chunks: Vec<Chunk>,
}

impl ChunkedDataset {
    /// Split `obs` under `policy`. The stride is the largest multiple
    /// of `aterm_interval` within the policy bounds (at least one
    /// interval); the final chunk keeps whatever remainder is left.
    pub fn split(obs: &Observation, policy: &ChunkPolicy) -> Result<ChunkedDataset, IdgError> {
        policy.validate()?;
        let chunks = chunk_observation(obs, policy)?;
        Ok(ChunkedDataset { chunks })
    }

    /// The chunks, in ingestion (time) order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the observation produced no chunks (zero time steps).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Compute the policy-bounded, A-term-aligned chunk cover of the
/// observation's time axis (the work behind [`ChunkedDataset::split`]).
pub fn chunk_observation(obs: &Observation, policy: &ChunkPolicy) -> Result<Vec<Chunk>, IdgError> {
    policy.validate()?;
    let nr_time = obs.nr_timesteps;
    let vis_per_timestep = obs.nr_baselines() * obs.nr_channels();
    let by_vis = policy
        .max_visibilities
        .checked_div(vis_per_timestep)
        .unwrap_or(usize::MAX);
    let bound = policy.max_timesteps.min(by_vis).max(1);
    // snap the stride UP to whole A-term intervals: chunk-local plans
    // must start on the boundaries the one-shot planner breaks on
    let aterm = obs.aterm_interval.max(1);
    let stride = if bound < aterm {
        aterm
    } else {
        (bound / aterm) * aterm
    };
    let mut chunks = Vec::new();
    let mut t = 0usize;
    while t < nr_time {
        let end = (t + stride).min(nr_time);
        chunks.push(Chunk {
            index: chunks.len(),
            time_range: t..end,
        });
        t = end;
    }
    Ok(chunks)
}

/// Plan one chunk against the shared whole-observation uv extents —
/// the chunk-local planning entry point the streaming workers call.
/// Thin delegation to [`Plan::create_windowed`]; `uvw` is the full
/// buffer and the returned items carry global time offsets.
pub fn plan_chunk(
    obs: &Observation,
    uvw: &[Uvw],
    extents: &UvExtents,
    chunk: &Chunk,
) -> Result<Plan, IdgError> {
    Plan::create_windowed(obs, uvw, extents, chunk.time_range.clone())
}

/// Which data direction a streamed pass moved through the pipeline.
///
/// The scheduler itself is direction-agnostic — it drives opaque
/// per-chunk passes — so [`StreamScheduler::run_stream`] tags its
/// stats [`StreamDirection::Gridding`] and the degrid caller retags
/// them before publishing the report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StreamDirection {
    /// Visibilities → grid (`Proxy::grid_streamed`).
    Gridding,
    /// Model grid → predicted visibilities (`Proxy::degrid_streamed`).
    Degridding,
}

impl StreamDirection {
    /// Human-readable pass label.
    pub fn label(&self) -> &'static str {
        match self {
            StreamDirection::Gridding => "gridding",
            StreamDirection::Degridding => "degridding",
        }
    }
}

/// Summary of one streamed pass, carried in
/// `ExecutionReport::stream`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Data direction of the streamed pass.
    pub direction: StreamDirection,
    /// Chunks the splitter produced (and the scheduler ingested).
    pub nr_chunks: usize,
    /// Worker threads the scheduler ran.
    pub nr_workers: usize,
    /// Admission-window bound (backpressure threshold).
    pub max_inflight: usize,
    /// Peak admitted-but-uncompleted chunks observed
    /// (`min(max_inflight, nr_chunks)` by construction).
    pub inflight_max: usize,
    /// Window-constrained admissions (`max(0, nr_chunks −
    /// max_inflight)` by construction).
    pub backpressure_waits: u64,
    /// Chunks whose pass returned `Ok`.
    pub completed_chunks: usize,
    /// Chunks whose pass returned `Err`.
    pub failed_chunks: usize,
}

/// Everything one [`StreamScheduler::run_stream`] call produced:
/// per-chunk results in chunk order, plus the scheduling stats.
#[derive(Debug)]
pub struct StreamRun<T> {
    /// `results[i]` is chunk `i`'s pass outcome — exactly one per
    /// chunk, whatever order the workers finished in.
    pub results: Vec<Result<T, IdgError>>,
    /// Scheduling summary.
    pub stats: StreamStats,
}

/// Bounded concurrent pass scheduler: a producer admits chunks into a
/// queue capped at `max_inflight`, `workers` threads drain it.
#[derive(Copy, Clone, Debug)]
pub struct StreamScheduler {
    workers: usize,
    max_inflight: usize,
}

/// Producer/worker shared state behind the scheduler's mutex.
struct SchedState {
    queue: VecDeque<usize>,
    admitted: usize,
    completed: usize,
    inflight_max: usize,
    waits: u64,
    /// Workers hold off until the admission window is pre-filled, so
    /// the observed `inflight_max` is deterministic.
    started: bool,
    producer_done: bool,
}

impl StreamScheduler {
    /// A scheduler with `workers` threads and an admission window of
    /// `max_inflight` chunks. Both must be positive.
    pub fn new(workers: usize, max_inflight: usize) -> Result<StreamScheduler, IdgError> {
        if workers == 0 {
            return Err(IdgError::InvalidParameter(
                "stream scheduler: workers must be positive".into(),
            ));
        }
        if max_inflight == 0 {
            return Err(IdgError::InvalidParameter(
                "stream scheduler: max_inflight must be positive".into(),
            ));
        }
        Ok(StreamScheduler {
            workers,
            max_inflight,
        })
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Admission-window bound.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Drive every chunk through `exec` across the worker pool, under
    /// the bounded admission window.
    ///
    /// The calling thread is the producer: it admits chunk `k` only
    /// once fewer than `max_inflight` admitted chunks remain
    /// uncompleted, counting each window-constrained admission in
    /// `backpressure_waits`. Results are delivered exactly once per
    /// chunk, in per-chunk slots — completion order never reorders
    /// them. A chunk whose pass fails does not abort the stream; its
    /// error is returned in its slot.
    pub fn run_stream<T, F>(&self, chunks: &[Chunk], exec: F) -> Result<StreamRun<T>, IdgError>
    where
        T: Send,
        F: Fn(&Chunk) -> Result<T, IdgError> + Sync,
    {
        let n = chunks.len();
        let cap = self.max_inflight;
        let prefill = cap.min(n);
        idg_obs::add_chunks_ingested(n as u64);

        let state = Mutex::new(SchedState {
            queue: VecDeque::new(),
            admitted: 0,
            completed: 0,
            inflight_max: 0,
            waits: 0,
            started: n == 0,
            producer_done: false,
        });
        let cond_work = Condvar::new();
        let cond_space = Condvar::new();
        let slots: Vec<Mutex<Option<Result<T, IdgError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // the workers work for the producer's session, if it has one
        let recorder = idg_obs::current();

        thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    let _entered = recorder.as_ref().map(idg_obs::Recorder::enter);
                    loop {
                        let job = {
                            let mut st = state.lock();
                            loop {
                                if st.started {
                                    if let Some(j) = st.queue.pop_front() {
                                        break Some(j);
                                    }
                                    if st.producer_done {
                                        break None;
                                    }
                                }
                                st = cond_work.wait(st);
                            }
                        };
                        let Some(job) = job else { return };
                        let out = {
                            let _span =
                                idg_obs::wall_span("chunk", "stage", u32::try_from(job).ok());
                            exec(&chunks[job])
                        };
                        *slots[job].lock() = Some(out);
                        let mut st = state.lock();
                        st.completed += 1;
                        cond_space.notify_all();
                    }
                });
            }

            // producer: bounded-window admission on the calling thread
            for k in 0..n {
                let mut st = state.lock();
                if k >= cap {
                    st.waits += 1;
                    while st.completed + cap < k + 1 {
                        st = cond_space.wait(st);
                    }
                }
                st.queue.push_back(k);
                st.admitted = k + 1;
                let inflight = st.admitted - st.completed;
                st.inflight_max = st.inflight_max.max(inflight);
                if st.admitted == prefill {
                    st.started = true;
                }
                if st.started {
                    cond_work.notify_all();
                }
            }
            let mut st = state.lock();
            st.producer_done = true;
            cond_work.notify_all();
        });

        let (inflight_max, waits) = {
            let st = state.lock();
            (st.inflight_max, st.waits)
        };
        idg_obs::record_passes_inflight(inflight_max as u64);
        idg_obs::add_backpressure_waits(waits);

        let mut results = Vec::with_capacity(n);
        for slot in slots {
            let out = slot.into_inner().unwrap_or_else(|| {
                Err(IdgError::Internal(
                    "stream scheduler lost a chunk result".into(),
                ))
            });
            results.push(out);
        }
        let completed_chunks = results.iter().filter(|r| r.is_ok()).count();
        Ok(StreamRun {
            stats: StreamStats {
                // the scheduler cannot see the pass direction; degrid
                // callers retag before publishing (see StreamDirection)
                direction: StreamDirection::Gridding,
                nr_chunks: n,
                nr_workers: self.workers,
                max_inflight: cap,
                inflight_max,
                backpressure_waits: waits,
                completed_chunks,
                failed_chunks: n - completed_chunks,
            },
            results,
        })
    }
}

/// Exactly-once commit bookkeeping for the join phase of a streamed
/// pass: after the scheduler drains, the caller commits each chunk's
/// deferred output into the shared result exactly once, in chunk
/// order. The ledger turns any violation of that discipline — a chunk
/// committed twice, an unknown chunk index, or a chunk never
/// committed at all — into a typed [`IdgError::Internal`], which the
/// model-check suite relies on to catch a seeded double-commit mutant
/// on every interleaving.
///
/// Plain data with no interior synchronization: the production commit
/// loop runs single-threaded after the stream joins, and the model
/// tests wrap it in an `idg_sync` mutex where they need to share it.
#[derive(Clone, Debug)]
pub struct CommitLedger {
    committed: Vec<bool>,
}

impl CommitLedger {
    /// A ledger expecting exactly one commit for each of `nr_chunks`.
    pub fn new(nr_chunks: usize) -> CommitLedger {
        CommitLedger {
            committed: vec![false; nr_chunks],
        }
    }

    /// Record chunk `chunk`'s commit; rejects a second commit of the
    /// same chunk and indices beyond the ledger.
    pub fn commit(&mut self, chunk: usize) -> Result<(), IdgError> {
        let n = self.committed.len();
        match self.committed.get_mut(chunk) {
            None => Err(IdgError::Internal(format!(
                "commit ledger: chunk {chunk} out of range ({n} chunks)"
            ))),
            Some(slot) if *slot => Err(IdgError::Internal(format!(
                "commit ledger: chunk {chunk} committed twice"
            ))),
            Some(slot) => {
                *slot = true;
                Ok(())
            }
        }
    }

    /// Check that every chunk was committed.
    pub fn finish(&self) -> Result<(), IdgError> {
        match self.committed.iter().position(|c| !c) {
            Some(chunk) => Err(IdgError::Internal(format!(
                "commit ledger: chunk {chunk} was never committed"
            ))),
            None => Ok(()),
        }
    }
}

/// Seeded concurrency mutant, compiled only for model-check builds and
/// never part of the public API: [`StreamScheduler::run_stream`] with
/// the worker's predicate re-check loop around `Condvar::wait`
/// collapsed to a single unguarded wait — the exact shape lint L6
/// sub-rule (a) bans. A worker that reaches the wait after the
/// producer's notifications have already fired parks forever while the
/// producer parks on backpressure behind it; the model-check
/// regression suite proves the explorer reports this schedule as a
/// lost wakeup, demonstrating the static rule and the dynamic checker
/// guard the same invariant.
#[cfg(idg_model_check)]
impl StreamScheduler {
    #[doc(hidden)]
    pub fn run_stream_unguarded_wait_mutant<T, F>(
        &self,
        chunks: &[Chunk],
        exec: F,
    ) -> Result<StreamRun<T>, IdgError>
    where
        T: Send,
        F: Fn(&Chunk) -> Result<T, IdgError> + Sync,
    {
        let n = chunks.len();
        let cap = self.max_inflight;
        let prefill = cap.min(n);

        let state = Mutex::new(SchedState {
            queue: VecDeque::new(),
            admitted: 0,
            completed: 0,
            inflight_max: 0,
            waits: 0,
            started: n == 0,
            producer_done: false,
        });
        let cond_work = Condvar::new();
        let cond_space = Condvar::new();
        let slots: Vec<Mutex<Option<Result<T, IdgError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    let job = {
                        let mut st = state.lock();
                        // MUTANT: the re-check loop is gone — wait
                        // first, check once. A notification sent
                        // before this wait began is lost for good.
                        st = cond_work.wait(st);
                        if st.started {
                            st.queue.pop_front()
                        } else {
                            None
                        }
                    };
                    let Some(job) = job else { return };
                    let out = exec(&chunks[job]);
                    *slots[job].lock() = Some(out);
                    let mut st = state.lock();
                    st.completed += 1;
                    cond_space.notify_all();
                });
            }

            for k in 0..n {
                let mut st = state.lock();
                if k >= cap {
                    st.waits += 1;
                    while st.completed + cap < k + 1 {
                        st = cond_space.wait(st);
                    }
                }
                st.queue.push_back(k);
                st.admitted = k + 1;
                let inflight = st.admitted - st.completed;
                st.inflight_max = st.inflight_max.max(inflight);
                if st.admitted == prefill {
                    st.started = true;
                }
                if st.started {
                    cond_work.notify_all();
                }
            }
            let mut st = state.lock();
            st.producer_done = true;
            cond_work.notify_all();
        });

        let (inflight_max, waits) = {
            let st = state.lock();
            (st.inflight_max, st.waits)
        };
        let mut results = Vec::with_capacity(n);
        for slot in slots {
            let out = slot.into_inner().unwrap_or_else(|| {
                Err(IdgError::Internal(
                    "stream scheduler lost a chunk result".into(),
                ))
            });
            results.push(out);
        }
        let completed_chunks = results.iter().filter(|r| r.is_ok()).count();
        Ok(StreamRun {
            stats: StreamStats {
                direction: StreamDirection::Gridding,
                nr_chunks: n,
                nr_workers: self.workers,
                max_inflight: cap,
                inflight_max,
                backpressure_waits: waits,
                completed_chunks,
                failed_chunks: n - completed_chunks,
            },
            results,
        })
    }

    /// Seeded delivery mutant for the degrid direction: identical to
    /// [`StreamScheduler::run_stream`], except the first worker to
    /// finish chunk 0 re-enqueues it once, so the chunk's pass — and
    /// therefore the caller's commit — runs twice. A commit loop
    /// guarded by a [`CommitLedger`] must reject the redelivery on
    /// every schedule; the model-check regression suite proves the
    /// explorer reports it (as a panic from the ledger's typed error)
    /// and replays the failing schedule byte-identically.
    #[doc(hidden)]
    pub fn run_stream_double_commit_mutant<T, F>(
        &self,
        chunks: &[Chunk],
        exec: F,
    ) -> Result<StreamRun<T>, IdgError>
    where
        T: Send,
        F: Fn(&Chunk) -> Result<T, IdgError> + Sync,
    {
        let n = chunks.len();
        let cap = self.max_inflight;
        let prefill = cap.min(n);

        let state = Mutex::new(SchedState {
            queue: VecDeque::new(),
            admitted: 0,
            completed: 0,
            inflight_max: 0,
            waits: 0,
            started: n == 0,
            producer_done: false,
        });
        let cond_work = Condvar::new();
        let cond_space = Condvar::new();
        let redelivered = Mutex::new(false);
        let slots: Vec<Mutex<Option<Result<T, IdgError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    let job = {
                        let mut st = state.lock();
                        loop {
                            if st.started {
                                if let Some(j) = st.queue.pop_front() {
                                    break Some(j);
                                }
                                if st.producer_done {
                                    break None;
                                }
                            }
                            st = cond_work.wait(st);
                        }
                    };
                    let Some(job) = job else { return };
                    let out = exec(&chunks[job]);
                    *slots[job].lock() = Some(out);
                    let mut st = state.lock();
                    st.completed += 1;
                    // MUTANT: chunk 0 is fed back into the queue once
                    // after its first completion — a duplicate
                    // delivery the exactly-once commit must reject.
                    if job == 0 {
                        let mut seen = redelivered.lock();
                        if !*seen {
                            *seen = true;
                            st.queue.push_back(0);
                            cond_work.notify_all();
                        }
                    }
                    cond_space.notify_all();
                });
            }

            for k in 0..n {
                let mut st = state.lock();
                if k >= cap {
                    st.waits += 1;
                    while st.completed + cap < k + 1 {
                        st = cond_space.wait(st);
                    }
                }
                st.queue.push_back(k);
                st.admitted = k + 1;
                let inflight = st.admitted - st.completed;
                st.inflight_max = st.inflight_max.max(inflight);
                if st.admitted == prefill {
                    st.started = true;
                }
                if st.started {
                    cond_work.notify_all();
                }
            }
            let mut st = state.lock();
            st.producer_done = true;
            cond_work.notify_all();
        });

        let (inflight_max, waits) = {
            let st = state.lock();
            (st.inflight_max, st.waits)
        };
        let mut results = Vec::with_capacity(n);
        for slot in slots {
            let out = slot.into_inner().unwrap_or_else(|| {
                Err(IdgError::Internal(
                    "stream scheduler lost a chunk result".into(),
                ))
            });
            results.push(out);
        }
        let completed_chunks = results.iter().filter(|r| r.is_ok()).count();
        Ok(StreamRun {
            stats: StreamStats {
                direction: StreamDirection::Gridding,
                nr_chunks: n,
                nr_workers: self.workers,
                max_inflight: cap,
                inflight_max,
                backpressure_waits: waits,
                completed_chunks,
                failed_chunks: n - completed_chunks,
            },
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_obs::{KernelCounters, KernelStage, Session};
    use std::sync::Barrier;

    #[test]
    fn workers_record_into_the_producers_session_and_no_other_thread_does() {
        let chunks: Vec<Chunk> = (0..4)
            .map(|i| Chunk {
                index: i,
                time_range: i..i + 1,
            })
            .collect();
        let scheduler = StreamScheduler::new(2, 2).expect("positive parameters");
        let tally = KernelCounters {
            invocations: 1,
            sincos_pairs: 7,
            ..KernelCounters::default()
        };
        // chunk 0's pass holds the session open around the stray
        // thread's recording, so the two provably overlap
        let meet = Barrier::new(2);

        let trace = thread::scope(|scope| {
            scope.spawn(|| {
                meet.wait();
                idg_obs::add_kernel(KernelStage::Gridder, &tally);
                drop(idg_obs::wall_span("chunk", "stage", Some(9)));
                meet.wait();
            });
            let session = Session::begin("gridding");
            let run = scheduler
                .run_stream(&chunks, |chunk| {
                    if chunk.index == 0 {
                        meet.wait();
                        meet.wait();
                    }
                    idg_obs::add_kernel(KernelStage::Gridder, &tally);
                    Ok(chunk.index)
                })
                .expect("stream runs");
            assert_eq!(run.stats.completed_chunks, 4);
            session.finish()
        });

        assert_eq!(trace.metrics.gridder.invocations, 4);
        assert_eq!(trace.metrics.gridder.sincos_pairs, 28);
        assert_eq!(trace.metrics.chunks_ingested, 4);
        let mut chunk_spans: Vec<Option<u32>> = trace
            .spans
            .iter()
            .filter(|s| s.name == "chunk")
            .map(|s| s.job)
            .collect();
        chunk_spans.sort();
        assert_eq!(chunk_spans, [Some(0), Some(1), Some(2), Some(3)]);
    }
}
