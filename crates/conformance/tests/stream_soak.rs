//! Soak test for streamed passes: many small chunks, run in order on
//! the calling thread, over a fault-injecting fleet.
//!
//! What this pins, beyond the per-policy equivalence suite:
//!
//! - **it finishes** — a long stream of chunk passes completes (the run
//!   executes on a helper thread so a hang fails the test in bounded
//!   time instead of wedging the suite);
//! - **the two configuration stats** — `inflight_max ==
//!   min(max_inflight, nr_chunks)` and `backpressure_waits ==
//!   nr_chunks − max_inflight`, the closed forms reports and goldens
//!   expect for a window of 2;
//! - **exactness under sustained faults** — dozens of lemon-member
//!   retries later, the streamed grid is still bit-identical to the
//!   clean one-shot grid and nothing leaked to the CPU fallback.

use idg::gpusim::FaultConfig;
use idg::stream::ChunkPolicy;
use idg::types::{Grid, Observation};
use idg::{Backend, FleetConfig, Proxy, StreamConfig};
use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};
use std::sync::mpsc;
use std::time::Duration;

/// A soak observation: `nr_timesteps` with a 2-step A-term interval,
/// so a per-interval policy yields `nr_timesteps / 2` small chunks.
fn soak_dataset(nr_timesteps: usize) -> Dataset {
    let obs = Observation::builder()
        .stations(5)
        .timesteps(nr_timesteps)
        .channels(2, 150e6, 2e6)
        .grid_size(128)
        .subgrid_size(16)
        .kernel_size(5)
        .aterm_interval(2)
        .image_size(0.05)
        .build()
        .unwrap();
    let layout = Layout::uniform(5, 700.0, 211);
    let sky = SkyModel::random(&obs, 3, 0.6, 223);
    let beam = GaussianBeam::new(&obs, 0.8, 227);
    Dataset::simulate(obs, &layout, sky, &beam)
}

fn lemon_fleet_proxy(obs: Observation) -> Proxy {
    let mut proxy = Proxy::new(Backend::GpuPascal, obs).unwrap();
    proxy.work_group_size = 1;
    proxy.with_fleet_config(FleetConfig {
        nr_devices: 3,
        member_faults: vec![(
            1,
            FaultConfig {
                seed: 9090,
                transfer_corruption_rate: 0.3,
                kernel_fault_rate: 0.25,
                stall_rate: 0.15,
                ..FaultConfig::default()
            },
        )],
        breaker: None,
    })
}

fn assert_bit_identical(reference: &Grid<f32>, streamed: &Grid<f32>) {
    assert_eq!(reference.size(), streamed.size());
    for (i, (a, b)) in reference
        .as_slice()
        .iter()
        .zip(streamed.as_slice())
        .enumerate()
    {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "soak grid pixel {i} differs: one-shot {a:?} vs streamed {b:?}"
        );
    }
}

/// One soak iteration; runs on a helper thread under `deadline` so a
/// stream that never finishes fails loudly instead of hanging the suite.
fn soak_once(nr_timesteps: usize, deadline: Duration) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let ds = soak_dataset(nr_timesteps);
        let clean = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        let plan = clean.plan(&ds.uvw).unwrap();
        let (reference, _) = clean
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let proxy = lemon_fleet_proxy(ds.obs.clone());
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(2), 2, 2);
        let (streamed, report) = proxy
            .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        assert_bit_identical(&reference, &streamed);
        assert!(
            report.fallback_jobs.is_empty(),
            "soak faults are all transient; none may reach the CPU fallback"
        );
        let stats = report.stream.expect("streamed pass carries stream stats");
        assert_eq!(stats.nr_chunks, nr_timesteps / 2);
        assert_eq!(stats.failed_chunks, 0);
        // the closed form of the configured window: min(2, nr_chunks)
        assert_eq!(stats.inflight_max, 2, "admission window must cap inflight");
        assert!(
            stats.inflight_max >= 2,
            "a stream of more chunks than its window must report the full window"
        );
        assert_eq!(
            stats.backpressure_waits,
            (stats.nr_chunks - 2) as u64,
            "every admission beyond the window must register a wait"
        );
        assert!(stats.backpressure_waits > 0);
        let _ = tx.send(());
    });
    rx.recv_timeout(deadline)
        .expect("stream soak did not finish its chunks within the deadline");
    handle.join().expect("soak thread panicked");
}

/// Duplex twin of [`soak_once`]: the same many-small-chunk stream
/// pushed through the splitter-side pipeline. The streamed predicted
/// visibilities must stay bit-identical to the clean one-shot degrid
/// under sustained lemon-member faults.
fn soak_degrid_once(nr_timesteps: usize, deadline: Duration) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let ds = soak_dataset(nr_timesteps);
        let clean = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        let plan = clean.plan(&ds.uvw).unwrap();
        let (model, _) = clean
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (reference, _) = clean.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();

        let proxy = lemon_fleet_proxy(ds.obs.clone());
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(2), 2, 2);
        let (streamed, report) = proxy
            .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
            .unwrap();

        assert_eq!(reference.len(), streamed.len());
        for (i, (a, b)) in reference.iter().zip(&streamed).enumerate() {
            for (p, (x, y)) in a.pols.iter().zip(b.pols.iter()).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "soak visibility {i} pol {p} differs: one-shot {x:?} vs streamed {y:?}"
                );
            }
        }
        assert!(
            report.fallback_jobs.is_empty(),
            "soak faults are all transient; none may reach the CPU fallback"
        );
        assert_eq!(report.pass, "degridding");
        let stats = report.stream.expect("streamed pass carries stream stats");
        assert_eq!(stats.nr_chunks, nr_timesteps / 2);
        assert_eq!(stats.failed_chunks, 0);
        assert_eq!(stats.inflight_max, 2, "admission window must cap inflight");
        assert_eq!(
            stats.backpressure_waits,
            (stats.nr_chunks - 2) as u64,
            "every admission beyond the window must register a wait"
        );
        let _ = tx.send(());
    });
    rx.recv_timeout(deadline)
        .expect("degrid stream soak did not finish its chunks within the deadline");
    handle.join().expect("soak thread panicked");
}

#[test]
fn stream_soak_many_small_chunks_over_a_lemon_fleet() {
    // 32 chunks, configured with a 2-slot window and 2 workers
    soak_once(64, Duration::from_secs(120));
}

#[test]
fn stream_soak_degrid_many_small_chunks_over_a_lemon_fleet() {
    // the duplex direction: 32 chunks of predicted visibilities,
    // configured like the gridding soak
    soak_degrid_once(64, Duration::from_secs(120));
}

#[test]
#[ignore = "long soak; run explicitly (CI stream-soak job) with --ignored"]
fn stream_soak_long_sustained_ingestion() {
    // 128 chunks per iteration, three iterations: sustained faults and
    // retries over far more chunk passes than a single short stream runs
    for _ in 0..3 {
        soak_once(256, Duration::from_secs(300));
    }
}
