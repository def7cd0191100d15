//! Property tests for the fleet executor's delivery invariants.
//!
//! Whatever a random fault schedule does to a random fleet shape, two
//! things must hold: (1) every work group lands in the pass result
//! *exactly once* — completed on some device XOR reported in
//! `failed_jobs`, never lost, never double-added — and (2) the
//! breaker state machine stays live: a breaker that refuses work
//! always names the modeled time at which it will admit again.

use idg_gpusim::{
    BreakerConfig, Device, DeviceHealth, FaultConfig, FleetExecutor, GpuExecutor, JobOutcome,
};
use idg_kernels::KernelData;
use idg_plan::Plan;
use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};
use idg_types::Observation;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small deterministic dataset shared by every proptest case (the
/// simulation is the expensive part; the fault schedule and fleet
/// shape are what vary).
fn dataset() -> &'static (Dataset, Plan, Vec<f32>) {
    static DATA: OnceLock<(Dataset, Plan, Vec<f32>)> = OnceLock::new();
    DATA.get_or_init(|| {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(16)
            .channels(3, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 900.0, 71);
        let sky = SkyModel::random(&obs, 3, 0.6, 73);
        let ds = Dataset::simulate(obs, &layout, sky, &IdentityATerm);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        (ds, plan, taper)
    })
}

fn kernel_data<'a>(ds: &'a Dataset, taper: &'a [f32]) -> KernelData<'a> {
    KernelData {
        obs: &ds.obs,
        uvw: &ds.uvw,
        visibilities: &ds.visibilities,
        aterms: &ds.aterms,
        taper,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_job_lands_in_the_merged_grid_exactly_once(
        seed in 1u64..10_000,
        nr_devices in 1usize..5,
        wgs in 1usize..5,
        lemon_slot in 0usize..4,
        corruption in 0.0..0.4f64,
        kernel in 0.0..0.4f64,
        stall in 0.0..0.2f64,
        oom in 0.0..0.3f64,
    ) {
        let (ds, plan, taper) = dataset();
        let data = kernel_data(ds, taper);
        let faults = FaultConfig {
            seed,
            transfer_corruption_rate: corruption,
            kernel_fault_rate: kernel,
            stall_rate: stall,
            oom_rate: oom,
            ..FaultConfig::default()
        };
        let fleet = FleetExecutor::uniform(Device::pascal(), nr_devices, wgs)
            .with_member_faults(lemon_slot % nr_devices, faults)
            .with_breaker(BreakerConfig {
                window: 4,
                trip_unhealthy: 2,
                cooldown_seconds: 0.25,
                half_open_probes: 1,
            });
        let (grid, report) = fleet.grid(&data, plan).unwrap();
        let nr_jobs = plan.work_groups(wgs).count();

        // Exactly-once accounting: completed on some device XOR failed.
        let completed: usize = report.per_device.iter().map(|d| d.jobs_completed).sum();
        prop_assert!(
            completed + report.totals.failed_jobs.len() == nr_jobs,
            "jobs lost or duplicated: {} completed + {} failed != {} total",
            completed,
            report.totals.failed_jobs.len(),
            nr_jobs
        );
        let mut failed: Vec<usize> = report.totals.failed_jobs.iter().map(|f| f.job).collect();
        let before = failed.len();
        failed.sort_unstable();
        failed.dedup();
        prop_assert!(failed.len() == before, "a job failed twice");
        prop_assert!(failed.iter().all(|&j| j < nr_jobs));

        // Exactly-once numerically: a complete pass is bit-identical
        // to the fault-free single-device reference — one double-add
        // or dropped commit would move bits.
        if report.totals.complete() {
            let (gold, _) = GpuExecutor::new(Device::pascal(), wgs)
                .grid(&data, plan)
                .unwrap();
            for (x, y) in grid.as_slice().iter().zip(gold.as_slice()) {
                prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
                prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn breaker_state_machine_never_deadlocks(
        schedule_seed in 0u64..u64::MAX,
        nr_outcomes in 1usize..80,
        window in 1usize..8,
        trip in 1usize..8,
        probes in 1u32..4,
        cooldown in 0.01..2.0f64,
    ) {
        let config = BreakerConfig {
            window: window.max(trip),
            trip_unhealthy: trip,
            cooldown_seconds: cooldown,
            half_open_probes: probes,
        };
        let mut health = DeviceHealth::new(config).unwrap();
        let mut now = 0.0;
        // Derive the outcome sequence from the drawn seed with a
        // splitmix64 walk (the shim has no Vec strategy).
        let mut word = schedule_seed;
        for _ in 0..nr_outcomes {
            word = word.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = word;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let outcome = match (z ^ (z >> 31)) % 3 {
                0 => JobOutcome::Clean,
                1 => JobOutcome::Recovered { nr_retries: 1 },
                _ => JobOutcome::Failed,
            };
            // Liveness: at every point there is a modeled time at
            // which the breaker admits — either right now, or at the
            // cooldown expiry it must be able to name.
            let admitted_at = if health.admit(now) {
                now
            } else {
                let t = health.cooldown_expiry().expect(
                    "a breaker that refuses work without a cooldown deadline is deadlocked",
                );
                prop_assert!(
                    health.admit(t),
                    "breaker refused its own cooldown expiry"
                );
                t
            };
            health.record_outcome(outcome, admitted_at);
            now = admitted_at + 0.05;
        }
    }
}
