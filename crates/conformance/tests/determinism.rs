//! Observational determinism under chaos: two runs of the same seeded
//! fault schedule must tell byte-identical stories.
//!
//! The fault injector, the pipeline model and the counter registers are
//! all deterministic functions of the seed, so the *observability*
//! outputs — the serialized [`MetricsSnapshot`] and the normalized
//! Chrome-trace event sequence (wall-clock timestamps dropped, modeled
//! timestamps kept) — must repeat exactly. This is what makes a trace
//! attached to a bug report replayable.

use idg::gpusim::{BreakerConfig, FaultConfig};
use idg::{Backend, FleetConfig, Proxy};
use idg_conformance::standard_cases;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const WORK_GROUP_SIZE: usize = 4;

/// The chaos suite's all-transient schedule.
fn transient_chaos(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        transfer_corruption_rate: 0.08,
        kernel_fault_rate: 0.08,
        stall_rate: 0.04,
        oom_rate: 0.0,
        ..FaultConfig::default()
    }
}

/// One observed chaotic gridding pass → (metrics JSON, normalized trace).
fn observed_chaos_run(seed: u64) -> (String, Vec<String>) {
    let case = &standard_cases().expect("standard cases build")[2]; // ragged-tails: cheapest case
    let ds = case.dataset();
    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone())
        .unwrap()
        .with_faults(transient_chaos(seed));
    proxy.work_group_size = WORK_GROUP_SIZE;
    let plan = proxy.plan(&ds.uvw).unwrap();
    let (_, report, trace) = proxy
        .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let metrics = report.metrics.expect("observed run must attach metrics");
    (metrics.to_json(), idg_obs::normalized_events(&trace))
}

#[test]
fn same_seed_chaos_runs_are_observationally_deterministic() {
    for seed in [11, 97] {
        let (metrics_a, events_a) = observed_chaos_run(seed);
        let (metrics_b, events_b) = observed_chaos_run(seed);
        assert_eq!(
            metrics_a, metrics_b,
            "seed {seed}: metrics snapshots must be byte-identical"
        );
        assert_eq!(
            events_a, events_b,
            "seed {seed}: normalized trace event sequences must match"
        );
        assert!(!events_a.is_empty(), "seed {seed}: trace must not be empty");
    }
}

/// One observed fleet gridding pass with a chaotic lemon member →
/// (metrics JSON, normalized trace).
fn observed_fleet_run(seed: u64) -> (String, Vec<String>) {
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    proxy.work_group_size = 1;
    let proxy = proxy.with_fleet_config(FleetConfig {
        nr_devices: 4,
        member_faults: vec![(
            1,
            FaultConfig {
                seed,
                transfer_corruption_rate: 0.25,
                kernel_fault_rate: 0.2,
                stall_rate: 0.1,
                ..FaultConfig::default()
            },
        )],
        breaker: Some(BreakerConfig {
            window: 4,
            trip_unhealthy: 2,
            cooldown_seconds: 0.5,
            half_open_probes: 2,
        }),
    });
    let plan = proxy.plan(&ds.uvw).unwrap();
    let (_, report, trace) = proxy
        .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let metrics = report.metrics.expect("observed run must attach metrics");
    (metrics.to_json(), idg_obs::normalized_events(&trace))
}

#[test]
fn same_seed_fleet_runs_are_observationally_deterministic() {
    // The fleet adds dispatch, breaker state machines and per-device
    // span replay on top of the single-device model; none of it may
    // introduce nondeterminism.
    for seed in [2, 8] {
        let (metrics_a, events_a) = observed_fleet_run(seed);
        let (metrics_b, events_b) = observed_fleet_run(seed);
        assert_eq!(
            metrics_a, metrics_b,
            "seed {seed}: fleet metrics snapshots must be byte-identical"
        );
        assert_eq!(
            events_a, events_b,
            "seed {seed}: fleet normalized trace event sequences must match"
        );
        assert!(
            metrics_a.contains("\"breaker_trips\""),
            "fleet counters must serialize"
        );
    }
}

/// One observed *streamed* fleet gridding pass → (metrics JSON,
/// normalized trace).
///
/// The chunks run in order on the calling thread, so their spans are
/// recorded in chunk order; `normalized_events` orders them by
/// deterministic fields only, and the sequence must repeat like the
/// counter registers do.
fn observed_streamed_run(seed: u64) -> (String, Vec<String>) {
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    proxy.work_group_size = 1;
    let proxy = proxy.with_fleet_config(FleetConfig {
        nr_devices: 3,
        member_faults: vec![(
            1,
            FaultConfig {
                seed,
                transfer_corruption_rate: 0.45,
                kernel_fault_rate: 0.35,
                stall_rate: 0.25,
                ..FaultConfig::default()
            },
        )],
        breaker: None,
    });
    let config = idg::StreamConfig::new(
        idg::stream::ChunkPolicy::by_timesteps(case.obs.aterm_interval),
        2,
        2,
    );
    let (_, report, trace) = proxy
        .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let metrics = report.metrics.expect("observed run must attach metrics");
    (metrics.to_json(), idg_obs::normalized_events(&trace))
}

#[test]
fn same_seed_streamed_runs_have_byte_identical_metrics() {
    for seed in [4242, 17] {
        let (metrics_a, events_a) = observed_streamed_run(seed);
        let (metrics_b, events_b) = observed_streamed_run(seed);
        assert_eq!(
            metrics_a, metrics_b,
            "seed {seed}: streamed metrics snapshots must be byte-identical"
        );
        assert_eq!(
            events_a, events_b,
            "seed {seed}: streamed normalized trace event sequences must match"
        );
        assert!(
            metrics_a.contains("\"chunks_ingested\""),
            "streaming counters must serialize"
        );
    }
}

/// One observed *streamed degrid* fleet pass → (metrics JSON,
/// normalized trace), under the same lemon-fleet fault schedule as the
/// gridding twin. Its chunks, too, run in order on the calling thread,
/// the only thread the session records, so both must repeat.
fn observed_streamed_degrid_run(seed: u64) -> (String, Vec<String>) {
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    // model grid from a clean one-shot pass; the chaos is degrid-side
    let clean = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    let plan = clean.plan(&ds.uvw).unwrap();
    let (model, _) = clean
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();

    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    proxy.work_group_size = 1;
    let proxy = proxy.with_fleet_config(FleetConfig {
        nr_devices: 3,
        member_faults: vec![(
            1,
            FaultConfig {
                seed,
                transfer_corruption_rate: 0.45,
                kernel_fault_rate: 0.35,
                stall_rate: 0.25,
                ..FaultConfig::default()
            },
        )],
        breaker: None,
    });
    let config = idg::StreamConfig::new(
        idg::stream::ChunkPolicy::by_timesteps(case.obs.aterm_interval),
        2,
        2,
    );
    let (_, report, trace) = proxy
        .degrid_streamed_observed(&config, &model, &ds.uvw, &ds.aterms)
        .unwrap();
    let metrics = report.metrics.expect("observed run must attach metrics");
    (metrics.to_json(), idg_obs::normalized_events(&trace))
}

#[test]
fn same_seed_streamed_degrid_runs_have_byte_identical_metrics() {
    for seed in [4242, 17] {
        let (metrics_a, events_a) = observed_streamed_degrid_run(seed);
        let (metrics_b, events_b) = observed_streamed_degrid_run(seed);
        assert_eq!(
            metrics_a, metrics_b,
            "seed {seed}: streamed degrid metrics snapshots must be byte-identical"
        );
        assert_eq!(
            events_a, events_b,
            "seed {seed}: streamed degrid normalized trace event sequences must match"
        );
        assert!(
            metrics_a.contains("\"chunks_ingested\""),
            "streaming counters must serialize"
        );
    }
}

#[test]
fn streamed_degrid_entry_points_reject_degenerate_parameters_typed() {
    // zero chunk bounds, zero workers and a zero max_inflight must
    // all surface as typed `InvalidParameter` errors — not panics, not
    // silently-empty streams — on both degrid entry points
    use idg::stream::ChunkPolicy;
    use idg::types::IdgError;
    use idg::StreamConfig;

    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let proxy = Proxy::new(Backend::CpuOptimized, case.obs.clone()).unwrap();
    let plan = proxy.plan(&ds.uvw).unwrap();
    let (model, _) = proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();

    let bad_configs = [
        (
            "zero-timestep chunks",
            StreamConfig::new(ChunkPolicy::by_timesteps(0), 2, 2),
        ),
        (
            "zero-visibility chunks",
            StreamConfig::new(ChunkPolicy::by_visibilities(0), 2, 2),
        ),
        (
            "zero workers",
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 0, 2),
        ),
        (
            "zero window",
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 0),
        ),
    ];
    for (what, config) in bad_configs {
        let err = proxy
            .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
            .expect_err(what);
        assert!(
            matches!(err, IdgError::InvalidParameter(_)),
            "{what}: degrid_streamed must reject with InvalidParameter, got {err:?}"
        );
        let err = proxy
            .degrid_streamed_observed(&config, &model, &ds.uvw, &ds.aterms)
            .expect_err(what);
        assert!(
            matches!(err, IdgError::InvalidParameter(_)),
            "{what}: degrid_streamed_observed must reject with InvalidParameter, got {err:?}"
        );
    }

    // a NaN the splitter reads (the centre of the first item's footprint)
    // is rejected the same way, on the streamed entry points and on the
    // staged one alike
    let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
    let (first, n) = (plan.items[0], case.obs.subgrid_size);
    let mut nan_model = model.clone();
    nan_model
        .at_mut(0, first.coord_y + n / 2, first.coord_x + n / 2)
        .im = f32::NAN;
    for err in [
        proxy
            .degrid_streamed(&config, &nan_model, &ds.uvw, &ds.aterms)
            .expect_err("NaN model grid, degrid_streamed"),
        proxy
            .degrid_streamed_observed(&config, &nan_model, &ds.uvw, &ds.aterms)
            .expect_err("NaN model grid, degrid_streamed_observed"),
        proxy
            .degrid_stages(&plan, &nan_model, &ds.uvw, &ds.aterms)
            .expect_err("NaN model grid, degrid_stages"),
    ] {
        assert!(
            matches!(err, IdgError::InvalidParameter(_)),
            "NaN model grid must reject with InvalidParameter, got {err:?}"
        );
    }
}

#[test]
fn different_seeds_produce_observably_different_schedules() {
    // sanity for the test above: if the injector ignored the seed, the
    // determinism assertions would pass vacuously
    let (_, events_a) = observed_chaos_run(11);
    let (_, events_b) = observed_chaos_run(97);
    assert_ne!(
        events_a, events_b,
        "fault schedules must depend on the seed"
    );
}

/// Run `observed` — which must self-validate — until one of its calls
/// provably overlapped a whole *unobserved* grid + degrid pass of a
/// different size through the same back-end's kernels on another
/// thread: two completions counted inside one call's window mean the
/// second pass began and ended inside it.
fn beside_an_unobserved_pass(backend: Backend, mut observed: impl FnMut()) {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let proxy = Proxy::new(backend, case.obs.clone()).unwrap();
    let plan = proxy.plan(&ds.uvw).unwrap();
    let (passes, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                let (grid, _) = proxy
                    .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                    .unwrap();
                proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
                passes.fetch_add(1, Ordering::SeqCst);
            }
        });
        // a failing `observed` must still release the other thread
        let _stop = StopOnDrop(&stop);
        let overlapped = (0..500).any(|_| {
            let before = passes.load(Ordering::SeqCst);
            observed();
            passes.load(Ordering::SeqCst) >= before + 2
        });
        assert!(
            overlapped,
            "{backend:?}: no observed pass overlapped an unobserved one"
        );
    });
}

#[test]
fn observed_passes_self_validate_beside_an_unobserved_pass_on_every_backend() {
    let case = &standard_cases().expect("standard cases build")[0];
    let ds = case.dataset();
    let config = idg::StreamConfig::new(
        idg::stream::ChunkPolicy::by_timesteps(case.obs.aterm_interval),
        2,
        2,
    );
    for backend in Backend::all() {
        let mut proxy = Proxy::new(backend, case.obs.clone()).unwrap();
        proxy.work_group_size = WORK_GROUP_SIZE;
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (model, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        beside_an_unobserved_pass(backend, || {
            proxy
                .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap_or_else(|e| panic!("{backend:?} grid_observed: {e}"));
        });
        beside_an_unobserved_pass(backend, || {
            proxy
                .degrid_observed(&plan, &model, &ds.uvw, &ds.aterms)
                .unwrap_or_else(|e| panic!("{backend:?} degrid_observed: {e}"));
        });
        beside_an_unobserved_pass(backend, || {
            proxy
                .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap_or_else(|e| panic!("{backend:?} grid_streamed_observed: {e}"));
        });
    }
}

#[test]
fn two_sessions_open_at_once_each_hold_exactly_their_own_pass() {
    let cases = standard_cases().expect("standard cases build");
    let runs = [
        (Backend::GpuPascal, &cases[0]),
        (Backend::CpuOptimized, &cases[2]),
    ];

    // what each pass records when it is the only one in the process
    let solo: Vec<(String, Vec<String>)> = runs
        .iter()
        .map(|(backend, case)| {
            let ds = case.dataset();
            let proxy = Proxy::new(*backend, case.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (_, report, trace) = proxy
                .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let metrics = report.metrics.expect("observed run must attach metrics");
            (metrics.to_json(), idg_obs::normalized_events(&trace))
        })
        .collect();

    // Both sessions are open before either pass starts and until both
    // have ended: each thread tells its peer when it has begun and when
    // its pass is done, and waits for the peer's word both times. (A
    // session that had to wait for the other to finish would time out
    // here instead of deadlocking.)
    let (to_b, from_a) = mpsc::channel::<()>();
    let (to_a, from_b) = mpsc::channel::<()>();
    let mut links = [Some((to_b, from_b)), Some((to_a, from_a))];
    let concurrent: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .zip(&mut links)
            .map(|((backend, case), link)| {
                let (tell, hear) = link.take().expect("one link per thread");
                scope.spawn(move || {
                    let ds = case.dataset();
                    let proxy = Proxy::new(*backend, case.obs.clone()).unwrap();
                    let plan = proxy.plan(&ds.uvw).unwrap();
                    let rendezvous = |what: &str| {
                        tell.send(()).expect("peer is alive");
                        hear.recv_timeout(Duration::from_secs(20))
                            .unwrap_or_else(|e| panic!("{backend:?}: peer never {what}: {e}"));
                    };
                    let session = idg::obs::Session::begin("gridding");
                    rendezvous("began its session");
                    proxy
                        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                        .unwrap();
                    rendezvous("ended its pass");
                    let trace = session.finish();
                    (trace.metrics.to_json(), idg_obs::normalized_events(&trace))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("observed thread panicked"))
            .collect()
    });
    assert_eq!(concurrent, solo);
}
