//! Property test for the chunker: for randomly drawn observation
//! shapes and chunk policies, `chunk_observation` must emit a lossless,
//! order-preserving, non-overlapping cover of `0..nr_timesteps` whose
//! every boundary (except the observation's own end) lands on an A-term
//! interval multiple — the property the streamed-vs-one-shot
//! bit-identity argument in `idg::proxy::streaming` rests on.

use idg::stream::{chunk_observation, ChunkPolicy};
use idg::Observation;
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
}
