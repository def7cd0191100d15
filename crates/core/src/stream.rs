//! Chunked ingestion: the time-axis chunks a streamed pass runs.
//!
//! [`ChunkPolicy`] / [`chunk_observation`] partition the observation's
//! time axis into bounded chunks. Chunk boundaries snap to
//! `aterm_interval` multiples, because the planner's greedy
//! accumulation never crosses an A-term boundary — so each work item of
//! the one-shot plan lies wholly inside the chunk its first time step
//! falls in, and the chunks cut that plan into whole items. The proxy's
//! streamed entry points ([`crate::Proxy::grid_streamed`],
//! [`crate::Proxy::degrid_streamed`]) run each chunk's cut of the one
//! plan in chunk order on the calling thread and report a
//! [`StreamStats`].

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
/// [`crate::ExecutionReport::stream`]: the chunk count and functions of
/// it and the [`crate::StreamConfig`]. Only `nr_chunks` describes what
/// ran; the other fields restate the configuration, change nothing that
/// runs or is modeled, and stay only while the benchmark reads them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks the splitter produced, each run once, in order.
    pub nr_chunks: usize,
    /// The configured `workers`.
    pub nr_workers: usize,
    /// The configured `max_inflight`.
    pub max_inflight: usize,
    /// `min(max_inflight, nr_chunks)`, a closed form: one chunk is in
    /// flight at a time.
    pub inflight_max: usize,
    /// `max(0, nr_chunks − max_inflight)`, a closed form: nothing waits.
    pub backpressure_waits: u64,
    /// Always 0: the first failing chunk pass ends the stream with its
    /// error and no stats.
    pub failed_chunks: usize,
}
