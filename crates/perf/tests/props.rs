//! Property tests for the analytic operation model.
//!
//! Two families: algebraic invariants of [`OpCounts`] over random
//! counter values, and the cross-validation contract — the analytic
//! per-item counts must equal what the *instrumented kernels* actually
//! measure at their call sites, for randomly drawn observation shapes.

use idg_perf::{
    cpu_degridder_item_counts, degridder_counts, degridder_item_counts, gridder_counts,
    gridder_item_counts, OpCounts,
};
use idg_types::{Baseline, Observation};
use proptest::prelude::*;

/// Random-but-valid counter register contents.
fn counts_from(v: [u64; 5]) -> OpCounts {
    OpCounts {
        fmas: v[0],
        sincos_pairs: v[1],
        dram_bytes: v[2],
        shared_bytes: v[3],
        visibilities: v[4],
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn add_is_commutative(
        a in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        b in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
    ) {
        let a = counts_from([a.0, a.1, a.2, a.3, a.4]);
        let b = counts_from([b.0, b.1, b.2, b.3, b.4]);
        let mut ab = a;
        ab.add(&b);
        let mut ba = b;
        ba.add(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn add_is_associative(
        a in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        b in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        c in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
    ) {
        let a = counts_from([a.0, a.1, a.2, a.3, a.4]);
        let b = counts_from([b.0, b.1, b.2, b.3, b.4]);
        let c = counts_from([c.0, c.1, c.2, c.3, c.4]);
        // (a + b) + c
        let mut left = a;
        left.add(&b);
        left.add(&c);
        // a + (b + c)
        let mut bc = b;
        bc.add(&c);
        let mut right = a;
        right.add(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn flops_never_exceed_total_ops(
        v in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
    ) {
        let c = counts_from([v.0, v.1, v.2, v.3, v.4]);
        prop_assert!(c.flops() <= c.total_ops());
    }

    #[test]
    fn derived_ratios_are_finite_and_non_negative_for_real_items(
        nr_timesteps in 1usize..256,
        nr_channels in 1usize..32,
        subgrid_size in 4usize..40,
    ) {
        let item = work_item(nr_timesteps, nr_channels);
        for counts in [
            gridder_item_counts(&item, subgrid_size),
            degridder_item_counts(&item, subgrid_size),
        ] {
            prop_assert!(counts.rho().is_finite() && counts.rho() >= 0.0);
            prop_assert!((counts.rho() - 17.0).abs() < 1e-12, "rho = {}", counts.rho());
            prop_assert!(
                counts.intensity_dram().is_finite() && counts.intensity_dram() >= 0.0
            );
            prop_assert!(
                counts.intensity_shared().is_finite() && counts.intensity_shared() >= 0.0
            );
        }
    }
}

fn work_item(nr_timesteps: usize, nr_channels: usize) -> idg_plan::WorkItem {
    idg_plan::WorkItem {
        baseline_index: 0,
        baseline: Baseline::new(0, 1),
        time_offset: 0,
        nr_timesteps,
        channel_offset: 0,
        nr_channels,
        aterm_index: 0,
        coord_x: 0,
        coord_y: 0,
        w_plane: 0,
    }
}

proptest! {
    // Each case simulates a small observation and runs both reference
    // kernels under an observability session — keep the count modest.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn analytic_counts_equal_instrumented_measurements(
        subgrid_size in (4usize..13).prop_map(|h| 2 * h), // 8..=24, even
        seed in 1u64..1000,
    ) {
        use idg_kernels::{KernelData, SubgridArray};
        use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};

        let obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(2, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(subgrid_size)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        let layout = Layout::uniform(4, 700.0, seed);
        let sky = SkyModel::random(&obs, 2, 0.5, seed);
        let ds = Dataset::simulate(obs, &layout, sky, &IdentityATerm);
        let plan = idg_plan::Plan::create(&ds.obs, &ds.uvw)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        prop_assume!(!plan.items.is_empty());

        let taper = idg_math::spheroidal_2d(subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &taper,
        };
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), subgrid_size);
        let mut vis = vec![idg_types::Visibility::<f32>::zero(); ds.obs.nr_visibilities()];

        let session = idg_obs::Session::begin("props");
        idg_kernels::gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");
        idg_kernels::degridder_reference(&data, &plan.items, &subgrids, &mut vis).expect("kernel run");
        let trace = session.finish();

        let analytic_g = gridder_counts(&plan.items, subgrid_size);
        let analytic_d = degridder_counts(&plan.items, subgrid_size);
        let (mg, md) = (&trace.metrics.gridder, &trace.metrics.degridder);
        prop_assert_eq!(mg.invocations, plan.items.len() as u64);
        prop_assert_eq!(mg.visibilities, analytic_g.visibilities);
        prop_assert_eq!(mg.sincos_pairs, analytic_g.sincos_pairs);
        prop_assert_eq!(mg.fmas, analytic_g.fmas);
        prop_assert_eq!(mg.dram_bytes, analytic_g.dram_bytes);
        prop_assert_eq!(mg.shared_bytes, analytic_g.shared_bytes);
        prop_assert_eq!(md.invocations, plan.items.len() as u64);
        prop_assert_eq!(md.visibilities, analytic_d.visibilities);
        prop_assert_eq!(md.sincos_pairs, analytic_d.sincos_pairs);
        prop_assert_eq!(md.fmas, analytic_d.fmas);
        prop_assert_eq!(md.dram_bytes, analytic_d.dram_bytes);
        prop_assert_eq!(md.shared_bytes, analytic_d.shared_bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The host degridder's closed form against its measured tally, on
    /// one hand-made work item of 1–64 channels: evenly spaced channels
    /// (the item rotates phasors from three channels on) or one channel
    /// nudged off the even grid (a sincos per channel).
    #[test]
    fn host_degridder_counts_equal_its_measured_tally(
        nr_channels in 1usize..65,
        first_channel in 0usize..4,
        nr_timesteps in 1usize..9,
        subgrid_size in (4usize..13).prop_map(|h| 2 * h), // 8..=24, even
        uneven in (0u8..2).prop_map(|b| b == 1),
    ) {
        use idg_kernels::{KernelData, KernelTables, SubgridArray};
        use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};

        let mut obs = Observation::builder()
            .stations(2)
            .timesteps(8)
            .channels(first_channel + nr_channels, 150e6, 1e6)
            .grid_size(128)
            .subgrid_size(subgrid_size)
            .kernel_size(3)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(e.to_string()))?;
        if uneven {
            // the last channel: every observation has one, and the item
            // covers it
            *obs.frequencies.last_mut().unwrap() += 1e3;
        }
        let ds = Dataset::simulate(obs, &Layout::uniform(2, 100.0, 5), SkyModel::empty(), &IdentityATerm);
        let item = idg_plan::WorkItem {
            channel_offset: first_channel,
            ..work_item(nr_timesteps, nr_channels)
        };
        let taper = idg_math::spheroidal_2d(subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &[],
            aterms: &ds.aterms,
            taper: &taper,
        };
        let subgrids = SubgridArray::new(1, subgrid_size);
        let mut vis = vec![idg_types::Visibility::<f32>::zero(); ds.obs.nr_visibilities()];

        let session = idg_obs::Session::begin("props");
        idg_kernels::degridder_cpu(
            &data,
            std::slice::from_ref(&item),
            &subgrids,
            &mut vis,
            idg_math::Accuracy::Medium,
            &KernelTables::for_observation(&ds.obs),
        )
        .expect("kernel run");
        let trace = session.finish();

        let analytic = cpu_degridder_item_counts(&item, subgrid_size, &ds.obs.frequencies);
        let md = &trace.metrics.degridder;
        prop_assert_eq!(md.invocations, 1);
        prop_assert_eq!(md.visibilities, analytic.visibilities);
        prop_assert_eq!(md.sincos_pairs, analytic.sincos_pairs);
        prop_assert_eq!(md.fmas, analytic.fmas);
        prop_assert_eq!(md.dram_bytes, analytic.dram_bytes);
        prop_assert_eq!(md.shared_bytes, analytic.shared_bytes);
        // a sincos per channel exactly when the item cannot rotate
        let per_channel = uneven || nr_channels < 3;
        prop_assert_eq!(analytic == degridder_item_counts(&item, subgrid_size), per_channel);
    }
}
