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
//!   result back over one channel; the calling thread hands every
//!   result to the caller's commit closure in chunk order, as soon as
//!   every chunk before it has been handed over, while the lanes run on.
//!
//! The scheduler is deliberately generic over the per-chunk pass
//! (`Fn(&Chunk) -> Result<T, IdgError>`): the proxy plugs in CPU
//! kernels, the single-device GPU executor, or the fleet without this
//! crate depending on any of them, or on the planner. Bit-identity of
//! the streamed grid is then the *caller's* obligation — the planner
//! orders its items by A-term interval, so each chunk's items are one
//! contiguous run of the one-shot plan, and committing each chunk's
//! subgrids at its turn adds them in the one-shot plan order (see
//! `Proxy::grid_streamed` in `idg`), never by summing per-chunk grids
//! (f32 addition is order-sensitive and `0.0 + (-0.0)` even flips a
//! sign bit).
//!
//! `max_inflight` caps how many chunk passes run at once (`lanes =
//! min(workers, max_inflight)`) and nothing else: the dataset is
//! complete in memory, and a chunk's output waits only for the chunks
//! before it, so a stream holds just the chunks that finished out of
//! order. `inflight_max = min(max_inflight, n)` and `backpressure_waits
//! = max(0, n − max_inflight)` are functions of the configuration, kept
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

/// Summary of one streamed pass, carried in
/// `ExecutionReport::stream`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
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
    /// chunks.len())` threads, and hand each chunk's `(index, result)`
    /// to `commit` on the calling thread, in chunk order.
    ///
    /// Each thread takes the next chunk index from a shared counter
    /// until the chunks run out and sends `(index, result)` over one
    /// channel as each pass ends. The calling thread keeps a cursor at
    /// the first chunk not yet handed over: a result at the cursor goes
    /// to `commit` at once, with every held result behind it that is now
    /// next, while the lanes run on; a result ahead of the cursor is held
    /// until its turn. So `commit` sees each chunk exactly once, in chunk
    /// order, whatever order the passes finished in. A chunk whose pass
    /// fails does not abort the stream; its error is handed over at its
    /// turn. A pass that panics takes its thread with it, not the stream
    /// (the lane's earlier results were already sent): after the lanes
    /// join, that chunk (and, once no thread is left, every chunk not
    /// yet started) is handed over at its turn as a typed
    /// [`IdgError::Internal`].
    pub fn run_stream<T, F, C>(&self, chunks: &[Chunk], exec: F, mut commit: C) -> StreamStats
    where
        T: Send,
        F: Fn(&Chunk) -> Result<T, IdgError> + Sync,
        C: FnMut(usize, Result<T, IdgError>),
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
        // orders the results.
        let next = AtomicUsize::new(0);
        let (sent, arrived) = mpsc::channel();
        // the lanes work for the caller's session, if it has one
        let recorder = idg_obs::current();

        // results ahead of the cursor, held until their turn
        let mut held: Vec<Option<Result<T, IdgError>>> = (0..n).map(|_| None).collect();
        let mut cursor = 0;
        let mut completed_chunks = 0;
        let mut hand_over = |job: usize, out: Result<T, IdgError>| {
            completed_chunks += usize::from(out.is_ok());
            commit(job, out);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|_| {
                    // each lane owns a sender: the channel closes when
                    // the last lane ends, returning or panicking
                    let sent = sent.clone();
                    let (next, recorder) = (&next, &recorder);
                    let exec = &exec;
                    scope.spawn(move || {
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
                            // the receiver lives until every lane ends
                            let _ = sent.send((job, out));
                        }
                    })
                })
                .collect();
            drop(sent);
            for (job, out) in &arrived {
                held[job] = Some(out);
                while let Some(out) = held.get_mut(cursor).and_then(Option::take) {
                    hand_over(cursor, out);
                    cursor += 1;
                }
            }
            // An explicit join hands a lane's panic back as `Err` where
            // the scope's implicit one would re-raise it; the dead
            // lane's chunk is the one no result arrived for.
            for handle in handles {
                let _ = handle.join();
            }
        });

        // a chunk no result arrived for is handed over as a typed error
        for (job, out) in held.into_iter().enumerate().skip(cursor) {
            hand_over(
                job,
                out.unwrap_or_else(|| {
                    Err(IdgError::Internal(format!(
                        "stream scheduler: chunk {job} has no result (its pass panicked, or \
                         no lane outlived an earlier panic to run it)"
                    )))
                }),
            );
        }
        StreamStats {
            nr_chunks: n,
            nr_workers: self.workers,
            max_inflight: cap,
            inflight_max,
            backpressure_waits: waits,
            completed_chunks,
            failed_chunks: n - completed_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_obs::{KernelCounters, KernelStage, Session};
    use std::sync::Barrier;
    use std::time::Duration;

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
            let stats = scheduler.run_stream(
                &chunks,
                |chunk| {
                    if chunk.index == 0 {
                        meet.wait();
                        meet.wait();
                    }
                    idg_obs::add_kernel(KernelStage::Gridder, &tally);
                    Ok(chunk.index)
                },
                |_, _| {},
            );
            assert_eq!(stats.completed_chunks, 4);
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
        let mut results = Vec::new();
        let stats = scheduler.run_stream(
            &chunks,
            |chunk| {
                idg_obs::add_kernel(KernelStage::Gridder, &tally);
                assert_ne!(chunk.index, 0, "chunk 0's pass panics after recording");
                Ok(chunk.index)
            },
            |_, result| results.push(result),
        );
        let trace = session.finish();
        assert!(matches!(results[0], Err(IdgError::Internal(_))));
        assert_eq!(stats.completed_chunks, 3);
        assert_eq!(trace.metrics.gridder.invocations, 4);
        assert_eq!(trace.metrics.gridder.sincos_pairs, 28);
        assert_eq!(chunk_spans(&trace), [Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn a_chunk_is_handed_over_while_later_chunks_run() {
        // chunk 1's pass waits for chunk 0's commit: a scheduler that
        // hands results over only after the lanes join never makes that
        // commit and hangs, so the stream runs on a helper thread under
        // a deadline
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let chunks: Vec<Chunk> = (0..2)
                .map(|i| Chunk {
                    index: i,
                    time_range: i..i + 1,
                })
                .collect();
            let committed = Barrier::new(2);
            let mut delivered = Vec::new();
            let stats = StreamScheduler::new(2, 2)
                .expect("positive parameters")
                .run_stream(
                    &chunks,
                    |chunk| {
                        if chunk.index == 1 {
                            committed.wait();
                        }
                        Ok(chunk.index)
                    },
                    |index, result| {
                        if index == 0 {
                            committed.wait();
                        }
                        delivered.push((index, result.ok()));
                    },
                );
            let _ = done.send((delivered, stats.completed_chunks));
        });
        let (delivered, completed) = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("chunk 0 was committed while chunk 1's pass ran");
        assert_eq!(delivered, [(0, Some(0)), (1, Some(1))]);
        assert_eq!(completed, 2);
    }
}
