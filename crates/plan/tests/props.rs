//! Property tests for the planner's placement invariants.
//!
//! For randomly drawn observation geometries, every work item the
//! planner emits must (1) carry an integral, in-bounds subgrid origin
//! and (2) *cover* its visibilities: the kernel-padded uv pixel box of
//! every covered (timestep, channel) sample fits inside the placed
//! subgrid — the planner never silently clips kernel support. The
//! items come in A-term-interval order and, inside one interval, in
//! (baseline, channel group, time) order.

use idg_plan::Plan;
use idg_telescope::{Layout, UvwGenerator};
use idg_types::{Observation, SPEED_OF_LIGHT};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn placed_subgrids_are_in_bounds_and_cover_their_padded_uv_boxes(
        seed in 1u64..10_000,
        radius in 200.0..1500.0f64,
        subgrid_size in (8usize..15).prop_map(|h| 2 * h), // 16..=28, even
        kernel_size in 3usize..8,
        image_size in 0.02..0.08f64,
    ) {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(16)
            .channels(3, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(subgrid_size)
            .kernel_size(kernel_size)
            .aterm_interval(8)
            .image_size(image_size)
            .build()
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        let layout = Layout::uniform(5, radius, seed);
        let uvw = UvwGenerator::representative(&layout, 1.0).generate(&obs);
        let plan = Plan::create(&obs, &uvw)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        prop_assume!(!plan.items.is_empty());

        // Tolerance matching the planner's own float-noise absorption.
        let eps = 1e-3;
        let margin = kernel_size as f64 / 2.0;
        let nr_time = obs.nr_timesteps;
        for item in &plan.items {
            // (1) integral origin (by construction: usize fields), in
            // bounds with the whole subgrid inside the grid
            prop_assert!(item.coord_x + subgrid_size <= obs.grid_size);
            prop_assert!(item.coord_y + subgrid_size <= obs.grid_size);

            // (2) coverage: every covered sample's padded kernel box
            // lies inside [coord, coord + subgrid] on both axes
            for dt in 0..item.nr_timesteps {
                let uvw_m = uvw[item.baseline_index * nr_time + item.time_offset + dt];
                for c in item.channel_offset..item.channel_offset + item.nr_channels {
                    let scale = obs.frequencies[c] / SPEED_OF_LIGHT;
                    let x = obs.uv_to_pixel(uvw_m.u as f64 * scale);
                    let y = obs.uv_to_pixel(uvw_m.v as f64 * scale);
                    for (pos, coord) in [(x, item.coord_x), (y, item.coord_y)] {
                        let lo = coord as f64;
                        let hi = (coord + subgrid_size) as f64;
                        prop_assert!(
                            pos - margin >= lo - eps && pos + margin <= hi + eps,
                            "sample at {pos} (±{margin}) outside subgrid [{lo}, {hi}]"
                        );
                    }
                }
            }
        }

        // order: by A-term interval, then baseline, channel group, time
        let key = |i: &idg_plan::WorkItem| {
            (i.aterm_index, i.baseline_index, i.channel_offset, i.time_offset)
        };
        for pair in plan.items.windows(2) {
            prop_assert!(pair[0].aterm_index <= pair[1].aterm_index);
            prop_assert!(key(&pair[0]) < key(&pair[1]), "{:?} before {:?}", pair[0], pair[1]);
        }

        // accounting: covered + skipped = all visibilities
        prop_assert_eq!(
            plan.nr_gridded_visibilities() + plan.skipped_visibilities,
            obs.nr_visibilities()
        );
    }
}
