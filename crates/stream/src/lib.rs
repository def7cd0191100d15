//! # idg-stream — chunked ingestion and in-order chunk passes
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
//! - [`StreamScheduler::run_stream`] runs each chunk's pass in chunk
//!   order on the calling thread and stops at the first error. Each pass
//!   commits its own output; its kernels already run on every core
//!   through rayon, so a second, host-level concurrency across chunks
//!   would buy nothing but memory for the outputs it holds.
//!
//! The scheduler is deliberately generic over the per-chunk pass
//! (`FnMut(&Chunk) -> Result<(), IdgError>`): the proxy plugs in CPU
//! kernels, the single-device GPU executor, or the fleet without this
//! crate depending on any of them, or on the planner. Bit-identity of
//! the streamed grid is then the *caller's* obligation — the planner
//! orders its items by A-term interval, so each chunk's items are one
//! contiguous run of the one-shot plan, and adding each chunk's
//! subgrids in its pass adds them in the one-shot plan order (see
//! `Proxy::grid_streamed` in `idg`), never by summing per-chunk grids
//! (f32 addition is order-sensitive and `0.0 + (-0.0)` even flips a
//! sign bit).
//!
//! `workers` and `max_inflight` set the lanes of the *modeled*
//! stream — `min(workers, max_inflight)` device streams a modeled
//! back-end list-schedules the chunk makespans onto — and change nothing
//! that runs on the host. `inflight_max = min(max_inflight, n)` and
//! `backpressure_waits = max(0, n − max_inflight)` are functions of the
//! configuration, kept because reports, goldens and the benchmark name
//! them.

#![deny(missing_docs)]

use idg_types::{IdgError, Observation};
use std::ops::Range;

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
    /// The configured `workers`: with `max_inflight`, the modeled
    /// lanes (`min(nr_workers, max_inflight)`).
    pub nr_workers: usize,
    /// The configured `max_inflight`: with `nr_workers`, the modeled
    /// lanes.
    pub max_inflight: usize,
    /// `min(max_inflight, nr_chunks)`: a function of the configuration,
    /// kept because reports, goldens and the benchmark name it.
    pub inflight_max: usize,
    /// `max(0, nr_chunks − max_inflight)`: a function of the
    /// configuration, kept for the same reason.
    pub backpressure_waits: u64,
    /// Chunks whose pass returned `Ok`: every chunk, since the first
    /// failing pass ends the stream with its error and no stats.
    pub completed_chunks: usize,
    /// Chunks whose pass returned `Err`: always 0 in returned stats
    /// (the first failure ends the stream), kept because reports,
    /// goldens and the benchmark name it.
    pub failed_chunks: usize,
}

/// In-order chunk pass runner, carrying the configuration of the
/// modeled lanes.
#[derive(Copy, Clone, Debug)]
pub struct StreamScheduler {
    workers: usize,
    max_inflight: usize,
}

impl StreamScheduler {
    /// A scheduler whose modeled stream runs `min(workers,
    /// max_inflight)` lanes. Both must be positive.
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

    /// Run `exec` over every chunk, in chunk order, on the calling
    /// thread, each under a `chunk` span. The first chunk whose pass
    /// fails ends the stream with its error: no later chunk runs. A pass
    /// that panics unwinds to the caller, as a one-shot pass does.
    pub fn run_stream(
        &self,
        chunks: &[Chunk],
        mut exec: impl FnMut(&Chunk) -> Result<(), IdgError>,
    ) -> Result<StreamStats, IdgError> {
        let n = chunks.len();
        let cap = self.max_inflight;
        let inflight_max = cap.min(n);
        let waits = n.saturating_sub(cap) as u64;
        idg_obs::add_chunks_ingested(n as u64);
        idg_obs::record_passes_inflight(inflight_max as u64);
        idg_obs::add_backpressure_waits(waits);
        for chunk in chunks {
            let _span = idg_obs::wall_span("chunk", "stage", u32::try_from(chunk.index).ok());
            exec(chunk)?;
        }
        Ok(StreamStats {
            nr_chunks: n,
            nr_workers: self.workers,
            max_inflight: cap,
            inflight_max,
            backpressure_waits: waits,
            completed_chunks: n,
            failed_chunks: 0,
        })
    }
}
