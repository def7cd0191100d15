//! # idg-stream — chunked ingestion and concurrent pass scheduling
//!
//! The paper's proxy consumes a whole observation in one shot; a
//! serving system cannot. This crate is the streaming front-end that
//! sits between an arriving visibility stream and the batch pipeline:
//!
//! - [`ChunkPolicy`] / [`chunk_observation`] partition the
//!   observation's time axis into bounded chunks. Chunk boundaries snap
//!   to `aterm_interval` multiples, because the planner's greedy
//!   accumulation never crosses an A-term boundary — so each work item
//!   of the one-shot plan lies wholly inside the chunk its first time
//!   step falls in, and the chunks cut that plan into whole items.
//! - [`StreamScheduler::run_stream`] runs the chunk passes on
//!   `lanes = min(workers, max_inflight)` threads that each take the
//!   next chunk index from one shared counter and send each chunk's
//!   result back over one channel; the caller files every result under
//!   its chunk index after the lanes join, whatever order the passes
//!   finished in.
//!
//! The scheduler is deliberately generic over the per-chunk pass
//! (`Fn(&Chunk) -> Result<T, IdgError>`): the proxy plugs in CPU
//! kernels, the single-device GPU executor, or the fleet without this
//! crate depending on any of them, or on the planner. Bit-identity of
//! the streamed grid is then the *caller's* obligation — commit every
//! chunk's subgrids in the one-shot plan order after the stream drains
//! (see `Proxy::grid_streamed` in `idg`), never by summing per-chunk
//! grids (f32 addition is order-sensitive and `0.0 + (-0.0)` even flips
//! a sign bit).
//!
//! `max_inflight` caps how many chunk passes run at once (`lanes =
//! min(workers, max_inflight)`) and nothing else: the dataset is
//! complete in memory and every chunk's output waits in the channel
//! until the stream drains, so there is no memory for a window to bound.
//! `inflight_max = min(max_inflight, n)` and `backpressure_waits =
//! max(0, n − max_inflight)` are functions of the configuration, kept
//! because reports, goldens and the benchmark name them.

#![deny(missing_docs)]

use idg_types::{IdgError, Observation};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How to bound one ingestion chunk along the time axis.
///
/// Both limits apply together: a chunk covers at most
/// `max_timesteps` time steps *and* at most `max_visibilities`
/// visibilities (each time step carries `nr_baselines × nr_channels`
/// of them). The resulting stride additionally snaps **up** to a
/// whole number of A-term intervals, so every chunk holds whole work
/// items of the one-shot plan; a policy tighter than one interval
/// therefore still yields `aterm_interval`-sized chunks.
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

/// Split the observation's time axis under `policy` into a lossless,
/// order-preserving, non-overlapping cover of `0..nr_timesteps`. The
/// stride is the largest multiple of `aterm_interval` within the
/// policy bounds (at least one interval); the final chunk keeps
/// whatever remainder is left.
pub fn chunk_observation(obs: &Observation, policy: &ChunkPolicy) -> Result<Vec<Chunk>, IdgError> {
    policy.validate()?;
    let nr_time = obs.nr_timesteps;
    let vis_per_timestep = obs.nr_baselines() * obs.nr_channels();
    let by_vis = policy
        .max_visibilities
        .checked_div(vis_per_timestep)
        .unwrap_or(usize::MAX);
    let bound = policy.max_timesteps.min(by_vis).max(1);
    // snap the stride UP to whole A-term intervals: no work item of the
    // one-shot plan crosses an A-term boundary, so each ends inside the
    // chunk its first time step falls in
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
    /// Cap on chunk passes running at once (`lanes = min(nr_workers,
    /// max_inflight)`).
    pub max_inflight: usize,
    /// `min(max_inflight, nr_chunks)`: a function of the configuration,
    /// kept because reports, goldens and the benchmark name it.
    pub inflight_max: usize,
    /// `max(0, nr_chunks − max_inflight)`: a function of the
    /// configuration, kept for the same reason.
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

/// Concurrent pass scheduler: `min(workers, max_inflight)` threads
/// share one next-chunk counter.
#[derive(Copy, Clone, Debug)]
pub struct StreamScheduler {
    workers: usize,
    max_inflight: usize,
}

impl StreamScheduler {
    /// A scheduler with `workers` threads, of which at most
    /// `max_inflight` run a chunk pass at once. Both must be positive.
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

    /// Drive every chunk through `exec` on `min(workers, max_inflight,
    /// chunks.len())` threads.
    ///
    /// Each thread takes the next chunk index from a shared counter
    /// until the chunks run out and sends `(index, result)` over one
    /// channel as each pass ends, so results are delivered exactly once
    /// per chunk and filed by index — completion order never reorders
    /// them. A chunk whose pass fails does not abort the stream; its
    /// error is returned at its index. A pass that panics takes its
    /// thread with it, not the stream (the lane's earlier results were
    /// already sent): that chunk (and, once no thread is left, every
    /// chunk not yet started) reports a typed [`IdgError::Internal`].
    pub fn run_stream<T, F>(&self, chunks: &[Chunk], exec: F) -> Result<StreamRun<T>, IdgError>
    where
        T: Send,
        F: Fn(&Chunk) -> Result<T, IdgError> + Sync,
    {
        let n = chunks.len();
        let cap = self.max_inflight;
        let lanes = self.workers.min(cap).min(n);
        let inflight_max = cap.min(n);
        let waits = n.saturating_sub(cap) as u64;
        idg_obs::add_chunks_ingested(n as u64);
        idg_obs::record_passes_inflight(inflight_max as u64);
        idg_obs::add_backpressure_waits(waits);

        // `fetch_add` hands out each chunk index exactly once, and the
        // lane that took an index sends that chunk's result once.
        // `Relaxed` suffices: the index publishes no data; the channel
        // and the scope's join order the results.
        let next = AtomicUsize::new(0);
        let (sent, arrived) = mpsc::channel();
        // the lanes work for the caller's session, if it has one
        let recorder = idg_obs::current();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|_| {
                    scope.spawn(|| {
                        let _entered = recorder.as_ref().map(idg_obs::Recorder::enter);
                        loop {
                            let job = next.fetch_add(1, Ordering::Relaxed);
                            if job >= n {
                                return;
                            }
                            let out = {
                                let _span =
                                    idg_obs::wall_span("chunk", "stage", u32::try_from(job).ok());
                                exec(&chunks[job])
                            };
                            // the receiver lives past the scope
                            let _ = sent.send((job, out));
                        }
                    })
                })
                .collect();
            // An explicit join hands a lane's panic back as `Err` where
            // the scope's implicit one would re-raise it; the dead
            // lane's chunk is the one no result arrived for.
            for handle in handles {
                let _ = handle.join();
            }
        });

        // a chunk no result arrived for keeps its typed error
        let mut results: Vec<Result<T, IdgError>> = (0..n)
            .map(|job| {
                Err(IdgError::Internal(format!(
                    "stream scheduler: chunk {job} has no result (its pass panicked, or \
                     no lane outlived an earlier panic to run it)"
                )))
            })
            .collect();
        for (job, out) in arrived.try_iter() {
            results[job] = out;
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
/// committed at all — into a typed [`IdgError::Internal`].
///
/// Plain data with no interior synchronization: the commit loop runs
/// single-threaded after the stream joins.
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

#[cfg(test)]
mod tests {
    use super::*;
    use idg_obs::{KernelCounters, KernelStage, Session};
    use std::sync::Barrier;

    #[test]
    fn workers_record_into_the_callers_session_and_no_other_thread_does() {
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

        let trace = std::thread::scope(|scope| {
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

        let chunk_spans = |trace: &idg_obs::Trace| {
            let mut jobs: Vec<Option<u32>> = trace
                .spans
                .iter()
                .filter(|s| s.name == "chunk")
                .map(|s| s.job)
                .collect();
            jobs.sort();
            jobs
        };
        assert_eq!(trace.metrics.gridder.invocations, 4);
        assert_eq!(trace.metrics.gridder.sincos_pairs, 28);
        assert_eq!(trace.metrics.chunks_ingested, 4);
        assert_eq!(chunk_spans(&trace), [Some(0), Some(1), Some(2), Some(3)]);

        // a lane whose pass panics still hands over what it recorded:
        // chunk 0's tally and `chunk` span arrive with the other passes'
        let session = Session::begin("gridding");
        let run = scheduler
            .run_stream(&chunks, |chunk| {
                idg_obs::add_kernel(KernelStage::Gridder, &tally);
                assert_ne!(chunk.index, 0, "chunk 0's pass panics after recording");
                Ok(chunk.index)
            })
            .expect("stream runs");
        let trace = session.finish();
        assert!(matches!(run.results[0], Err(IdgError::Internal(_))));
        assert_eq!(run.stats.completed_chunks, 3);
        assert_eq!(trace.metrics.gridder.invocations, 4);
        assert_eq!(trace.metrics.gridder.sincos_pairs, 28);
        assert_eq!(chunk_spans(&trace), [Some(0), Some(1), Some(2), Some(3)]);
    }

    fn internal_message(result: Result<(), IdgError>) -> String {
        match result {
            Err(IdgError::Internal(message)) => message,
            other => panic!("expected IdgError::Internal, got {other:?}"),
        }
    }

    #[test]
    fn ledger_rejects_a_second_commit_of_the_same_chunk() {
        let mut ledger = CommitLedger::new(2);
        ledger.commit(1).expect("first commit of chunk 1");
        assert!(internal_message(ledger.commit(1)).contains("chunk 1 committed twice"));
        // the rejected commit changed nothing: chunk 0 is still owed
        ledger.commit(0).expect("first commit of chunk 0");
        ledger.finish().expect("both chunks committed once");
    }

    #[test]
    fn ledger_rejects_an_out_of_range_chunk() {
        let mut ledger = CommitLedger::new(2);
        assert!(internal_message(ledger.commit(2)).contains("chunk 2 out of range (2 chunks)"));
    }

    #[test]
    fn ledger_finish_names_the_first_missing_chunk() {
        let mut ledger = CommitLedger::new(3);
        ledger.commit(0).expect("first commit of chunk 0");
        ledger.commit(2).expect("first commit of chunk 2");
        assert!(internal_message(ledger.finish()).contains("chunk 1 was never committed"));
    }
}
