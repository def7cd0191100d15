//! Property tests for the streaming front-end's two invariant sets.
//!
//! **Chunker cover.** For randomly drawn observation shapes and chunk
//! policies, `chunk_observation` must emit a lossless,
//! order-preserving, non-overlapping cover of `0..nr_timesteps` whose
//! every boundary (except the observation's own end) lands on an
//! A-term interval multiple — the property the streamed-vs-one-shot
//! bit-identity argument in `idg::proxy::streaming` rests on.
//!
//! **Scheduler contract.** For random chunk counts, worker counts,
//! `max_inflight` caps and failing chunks, the chunk passes run in
//! chunk order, each once, up to the first failing one; that failure
//! ends the stream with its chunk's error, and no later chunk runs; a
//! stream without one returns the closed-form stats the crate docs
//! promise.

use idg_stream::{chunk_observation, Chunk, ChunkPolicy, StreamScheduler};
use idg_types::{IdgError, Observation};
use proptest::prelude::*;

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
        let chunks = chunk_observation(&obs, &policy)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        prop_assert!(!chunks.is_empty());

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
    fn scheduler_runs_chunks_in_order_until_the_first_failure_with_closed_form_stats(
        nr_chunks in 0usize..40,
        workers in 1usize..6,
        max_inflight in 1usize..8,
        fail_at in 0usize..48,
    ) {
        check_scheduler_contract(nr_chunks, workers, max_inflight, fail_at)?;
    }
}

/// The small shapes worth naming: one lane, two lanes, a window
/// narrower than the workers and more workers than the window, each
/// once with chunk 0 failing, once with the last chunk failing and once
/// with no chunk failing.
#[test]
fn scheduler_contract_holds_on_the_pinned_shapes() {
    for (workers, max_inflight, nr_chunks) in [(1, 1, 2), (2, 2, 3), (2, 1, 3), (3, 2, 4)] {
        for fail_at in [0, nr_chunks - 1, nr_chunks] {
            if let Err(e) = check_scheduler_contract(nr_chunks, workers, max_inflight, fail_at) {
                panic!(
                    "workers {workers}, max_inflight {max_inflight}, {nr_chunks} chunks, \
                     failing chunk {fail_at}: {e:?}"
                );
            }
        }
    }
}

/// Stream `nr_chunks` chunks on `StreamScheduler::new(workers,
/// max_inflight)`, failing chunk `fail_at` (none when it is past the
/// last chunk), and check the scheduler's whole contract.
fn check_scheduler_contract(
    nr_chunks: usize,
    workers: usize,
    max_inflight: usize,
    fail_at: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let chunks: Vec<Chunk> = (0..nr_chunks)
        .map(|i| Chunk {
            index: i,
            time_range: i..i + 1,
        })
        .collect();
    let scheduler = StreamScheduler::new(workers, max_inflight)
        .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
    let mut ran = Vec::new();
    let result = scheduler.run_stream(&chunks, |chunk| {
        ran.push(chunk.index);
        if chunk.index == fail_at {
            return Err(IdgError::Internal(format!("injected on {}", chunk.index)));
        }
        Ok(())
    });

    // in order, each once, up to and including the first failing chunk
    let last = fail_at.min(nr_chunks.saturating_sub(1));
    let expected: Vec<usize> = (0..nr_chunks).take(last + 1).collect();
    prop_assert_eq!(&ran, &expected);

    let stats = match result {
        // the first failure ends the stream with that chunk's error
        Err(IdgError::Internal(msg)) => {
            prop_assert!(fail_at < nr_chunks);
            prop_assert_eq!(msg, format!("injected on {fail_at}"));
            return Ok(());
        }
        Err(other) => {
            return Err(proptest::test_runner::TestCaseError::Fail(format!(
                "unexpected error kind: {other}"
            )));
        }
        Ok(stats) => stats,
    };
    prop_assert!(fail_at >= nr_chunks);

    // the closed-form stats
    prop_assert_eq!(stats.nr_chunks, nr_chunks);
    prop_assert_eq!(stats.completed_chunks, nr_chunks);
    prop_assert_eq!(stats.failed_chunks, 0);
    prop_assert_eq!(stats.nr_workers, workers);
    prop_assert_eq!(stats.max_inflight, max_inflight);
    prop_assert_eq!(stats.inflight_max, max_inflight.min(nr_chunks));
    prop_assert_eq!(
        stats.backpressure_waits,
        nr_chunks.saturating_sub(max_inflight) as u64
    );
    Ok(())
}
