//! Property tests for the streaming front-end's two invariant sets.
//!
//! **Chunker cover.** For randomly drawn observation shapes and chunk
//! policies, `ChunkedDataset::split` must emit a lossless,
//! order-preserving, non-overlapping cover of `0..nr_timesteps` whose
//! every boundary (except the observation's own end) lands on an
//! A-term interval multiple — the property the streamed-vs-one-shot
//! bit-identity argument in `idg::proxy::streaming` rests on.
//!
//! **Scheduler exactly-once.** For random chunk counts, worker counts
//! and `max_inflight` caps, every chunk's pass runs exactly once, its
//! result (success or failure) lands in its own slot, failures never
//! abort the stream, no more than `min(workers, max_inflight)` passes
//! are ever observed running at once, and the two configuration stats
//! take the closed-form values the crate docs promise.

use idg_stream::{Chunk, ChunkPolicy, ChunkedDataset, StreamScheduler};
use idg_types::{IdgError, Observation};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn observation(
    nr_timesteps: usize,
    aterm_interval: usize,
) -> Result<Observation, proptest::test_runner::TestCaseError> {
    Observation::builder()
        .stations(4)
        .timesteps(nr_timesteps)
        .channels(2, 150e6, 2e6)
        .grid_size(128)
        .subgrid_size(16)
        .kernel_size(5)
        .aterm_interval(aterm_interval)
        .image_size(0.05)
        .build()
        .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn chunk_cover_is_lossless_ordered_nonoverlapping_and_aterm_aligned(
        nr_timesteps in 1usize..200,
        aterm_interval in 1usize..24,
        max_timesteps in 1usize..64,
        vis_budget_intervals in 0usize..6,
    ) {
        let obs = observation(nr_timesteps, aterm_interval)?;
        let vis_per_timestep = obs.nr_baselines() * obs.nr_channels();
        // 0 intervals → a budget tighter than one time step, which the
        // splitter must still round up to a whole A-term interval
        let policy = ChunkPolicy {
            max_timesteps,
            max_visibilities: (vis_budget_intervals * aterm_interval * vis_per_timestep).max(1),
        };
        let chunked = ChunkedDataset::split(&obs, &policy)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        let chunks = chunked.chunks();
        prop_assert!(!chunks.is_empty());
        prop_assert_eq!(chunked.len(), chunks.len());

        // lossless + order-preserving + non-overlapping: consecutive
        // ranges tile 0..nr_timesteps exactly, with sequential indices
        let mut expected_start = 0usize;
        for (i, chunk) in chunks.iter().enumerate() {
            prop_assert_eq!(chunk.index, i);
            prop_assert_eq!(chunk.time_range.start, expected_start);
            prop_assert!(chunk.nr_timesteps() > 0);
            // every boundary except the observation's own tail end
            // snaps to an A-term interval multiple
            prop_assert_eq!(chunk.time_range.start % aterm_interval, 0);
            if chunk.time_range.end != nr_timesteps {
                prop_assert_eq!(chunk.time_range.end % aterm_interval, 0);
            }
            expected_start = chunk.time_range.end;
        }
        prop_assert_eq!(expected_start, nr_timesteps);

        // all non-tail chunks share one stride (the splitter is a
        // fixed-stride walk), so ingestion cost is uniform
        if chunks.len() > 2 {
            let stride = chunks[0].nr_timesteps();
            for chunk in &chunks[..chunks.len() - 1] {
                prop_assert_eq!(chunk.nr_timesteps(), stride);
            }
        }
    }

    #[test]
    fn scheduler_delivers_every_chunk_exactly_once_with_closed_form_metrics(
        nr_chunks in 0usize..40,
        workers in 1usize..6,
        max_inflight in 1usize..8,
        fail_stride in 2usize..9,
    ) {
        let chunks: Vec<Chunk> = (0..nr_chunks)
            .map(|i| Chunk { index: i, time_range: i..i + 1 })
            .collect();
        let scheduler = StreamScheduler::new(workers, max_inflight)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        let executions = AtomicUsize::new(0);
        let inflight = AtomicUsize::new(0);
        let inflight_peak = AtomicUsize::new(0);
        let run = scheduler
            .run_stream(&chunks, |chunk| {
                executions.fetch_add(1, Ordering::SeqCst);
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                inflight_peak.fetch_max(now, Ordering::SeqCst);
                let out = if chunk.index % fail_stride == 0 {
                    Err(IdgError::Internal(format!("injected on {}", chunk.index)))
                } else {
                    Ok(chunk.index)
                };
                inflight.fetch_sub(1, Ordering::SeqCst);
                out
            })
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;

        // exactly once: one execution and one slot per chunk, each
        // slot holding its own chunk's outcome
        prop_assert_eq!(executions.load(Ordering::SeqCst), nr_chunks);
        prop_assert_eq!(run.results.len(), nr_chunks);
        for (i, result) in run.results.iter().enumerate() {
            match result {
                Ok(v) => {
                    prop_assert!(i % fail_stride != 0);
                    prop_assert_eq!(*v, i);
                }
                Err(IdgError::Internal(msg)) => {
                    prop_assert!(i % fail_stride == 0);
                    prop_assert_eq!(msg.clone(), format!("injected on {i}"));
                }
                Err(other) => {
                    return Err(proptest::test_runner::TestCaseError::Fail(format!(
                        "unexpected error kind in slot {i}: {other}"
                    )));
                }
            }
        }

        // failures never abort the stream, and the stats partition it
        let stats = run.stats;
        prop_assert_eq!(stats.nr_chunks, nr_chunks);
        prop_assert_eq!(stats.completed_chunks + stats.failed_chunks, nr_chunks);
        prop_assert_eq!(stats.failed_chunks, nr_chunks.div_ceil(fail_stride));

        // the cap holds for the passes actually observed in flight
        prop_assert!(inflight_peak.load(Ordering::SeqCst) <= workers.min(max_inflight));

        // the two stats that are functions of the configuration
        prop_assert_eq!(stats.nr_workers, workers);
        prop_assert_eq!(stats.max_inflight, max_inflight);
        prop_assert_eq!(stats.inflight_max, max_inflight.min(nr_chunks));
        prop_assert_eq!(
            stats.backpressure_waits,
            nr_chunks.saturating_sub(max_inflight) as u64
        );
    }
}
