//! Streamed-vs-one-shot equivalence: `Proxy::grid_streamed` must
//! produce a **bit-identical** grid to `Proxy::grid`, and
//! `Proxy::degrid_streamed` bit-identical predicted visibilities to
//! `Proxy::degrid`, on every back-end, every standard case, every
//! chunk policy and every worker count.
//!
//! This is a stronger contract than the stage-budget conformance the
//! rest of the suite checks: streaming is pure re-scheduling of the
//! same f32 arithmetic, so not a single ULP of drift is tolerated. The
//! bit-identity rests on A-term-snapped chunk boundaries, the shared
//! whole-observation uv extents, and the chunks adding their jobs in
//! plan order (see `idg::proxy::streaming`); this suite is what pins that
//! argument against every backend's execution shape — including a
//! fault-injected fleet, where transient recovery must be exact, and
//! persistent device faults, whose CPU fallback must land at the failed
//! job's turn in both passes.

use idg::stream::{chunk_observation, ChunkPolicy};
use idg::types::{Grid, Observation, Visibility};
use idg::{Backend, ExecutionReport, Proxy, StreamConfig};
use idg_conformance::standard_cases;

fn assert_bit_identical(reference: &Grid<f32>, streamed: &Grid<f32>, what: &str) {
    assert_eq!(reference.size(), streamed.size(), "{what}: grid shape");
    for (i, (a, b)) in reference
        .as_slice()
        .iter()
        .zip(streamed.as_slice())
        .enumerate()
    {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: grid pixel {i} differs: one-shot {a:?} vs streamed {b:?}"
        );
    }
}

fn assert_vis_bit_identical(
    reference: &[Visibility<f32>],
    streamed: &[Visibility<f32>],
    what: &str,
) {
    assert_eq!(reference.len(), streamed.len(), "{what}: visibility count");
    for (i, (a, b)) in reference.iter().zip(streamed).enumerate() {
        for (p, (x, y)) in a.pols.iter().zip(b.pols.iter()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: visibility {i} pol {p} differs: one-shot {x:?} vs streamed {y:?}"
            );
        }
    }
}

/// A returned stream's stats: the chunker's count of chunks, no failed
/// chunk, and the closed forms of the configuration — `inflight_max =
/// min(max_inflight, nr_chunks)` and `backpressure_waits = max(0,
/// nr_chunks − max_inflight)`.
fn assert_closed_form_stats(
    report: &ExecutionReport,
    obs: &Observation,
    config: &StreamConfig,
    what: &str,
) {
    let n = chunk_observation(obs, &config.policy).unwrap().len();
    let stats = report
        .stream
        .as_ref()
        .expect("streamed pass carries stream stats");
    assert_eq!(stats.nr_chunks, n, "{what}");
    assert_eq!(stats.failed_chunks, 0, "{what}");
    assert_eq!(stats.nr_workers, config.workers, "{what}");
    assert_eq!(stats.max_inflight, config.max_inflight, "{what}");
    assert_eq!(stats.inflight_max, config.max_inflight.min(n), "{what}");
    let waits = n.saturating_sub(config.max_inflight) as u64;
    assert_eq!(stats.backpressure_waits, waits, "{what}");
}

/// The chunk policies each (case, backend) pair streams under:
/// one A-term interval per chunk (finest legal granularity), two
/// intervals (leaves an uneven tail on the non-multiple cases), and
/// the whole observation (streaming degenerates to one chunk).
fn policies(aterm_interval: usize, nr_timesteps: usize) -> Vec<(&'static str, ChunkPolicy)> {
    vec![
        ("per-interval", ChunkPolicy::by_timesteps(aterm_interval)),
        (
            "two-interval",
            ChunkPolicy::by_timesteps(aterm_interval * 2),
        ),
        ("whole-observation", ChunkPolicy::by_timesteps(nr_timesteps)),
    ]
}

#[test]
fn streamed_grids_are_bit_identical_across_backends_cases_policies_and_workers() {
    for case in standard_cases().expect("standard cases build") {
        let ds = case.dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, case.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (reference, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            // the scalar reference backend is the slowest; one streamed
            // run per policy pins it without doubling the suite's time
            let worker_counts: &[usize] = if backend == Backend::CpuReference {
                &[2]
            } else {
                &[1, 3]
            };
            for (policy_name, policy) in policies(case.obs.aterm_interval, case.obs.nr_timesteps) {
                for &workers in worker_counts {
                    let config = StreamConfig::new(policy, workers, workers.max(2));
                    let (streamed, report) = proxy
                        .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                        .unwrap();
                    let what = format!(
                        "{} / {:?} / {policy_name} / {workers} workers",
                        case.name, backend
                    );
                    assert_bit_identical(&reference, &streamed, &what);
                    assert_closed_form_stats(&report, &case.obs, &config, &what);
                }
            }
        }
    }
}

#[test]
fn streamed_degrid_visibilities_are_bit_identical_across_backends_cases_policies_and_workers() {
    for case in standard_cases().expect("standard cases build") {
        let ds = case.dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, case.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            // grid a model first so the degrid input carries energy on
            // exactly the uv cells the plan covers
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let (reference, _) = proxy.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();
            let worker_counts: &[usize] = if backend == Backend::CpuReference {
                &[2]
            } else {
                &[1, 3]
            };
            for (policy_name, policy) in policies(case.obs.aterm_interval, case.obs.nr_timesteps) {
                for &workers in worker_counts {
                    let config = StreamConfig::new(policy, workers, workers.max(2));
                    let (streamed, report) = proxy
                        .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
                        .unwrap();
                    let what = format!(
                        "degrid {} / {:?} / {policy_name} / {workers} workers",
                        case.name, backend
                    );
                    assert_vis_bit_identical(&reference, &streamed, &what);
                    assert_eq!(report.pass, "degridding", "{what}");
                    assert_closed_form_stats(&report, &case.obs, &config, &what);
                }
            }
        }
    }
}

#[test]
fn streamed_degrid_on_uneven_chunks_under_persistent_device_faults_is_bit_identical() {
    // A degrid chunk runs over its own window of the observation and
    // predicts into its own rows. Pin that on the shapes most likely to
    // break it: a last chunk shorter than the others, and device jobs
    // that fail persistently — a DtoH corruption on every attempt lets
    // the degridder write a job's chunk-local rows before the pass gives
    // up, `Pass::fail_job` zeroes them and the CPU fallback re-predicts
    // into them. The one-shot pass on the same proxy falls back on every
    // job too, so both are the reference kernels' prediction; CPU
    // back-ends ignore the fault schedule.
    use idg::gpusim::{FaultConfig, FaultKind, RetryPolicy, TargetedFault};
    use idg::types::FaultSite;

    let mut uneven_cases = 0;
    for case in standard_cases().expect("standard cases build") {
        let policy = ChunkPolicy::by_timesteps(2 * case.obs.aterm_interval);
        let chunks = chunk_observation(&case.obs, &policy).unwrap();
        let steps: Vec<usize> = chunks.iter().map(|c| c.nr_timesteps()).collect();
        if steps.len() < 2 || steps[steps.len() - 1] >= steps[0] {
            continue; // a single A-term interval cannot leave a short tail
        }
        uneven_cases += 1;
        let ds = case.dataset();
        for backend in Backend::all() {
            let clean = Proxy::new(backend, case.obs.clone()).unwrap();
            let plan = clean.plan(&ds.uvw).unwrap();
            let (model, _) = clean
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let attempts = RetryPolicy::default().max_attempts;
            let every_attempt_of_every_job = (0..plan.items.len())
                .flat_map(|job| {
                    (0..attempts).map(move |attempt| TargetedFault {
                        job,
                        attempt,
                        site: FaultSite::DtoH,
                        kind: FaultKind::TransferCorruption,
                    })
                })
                .collect();
            let mut failing = Proxy::new(backend, case.obs.clone()).unwrap();
            failing.work_group_size = 2;
            let failing = failing.with_faults(FaultConfig::targeted(every_attempt_of_every_job));
            let on_device = matches!(backend, Backend::GpuPascal | Backend::GpuFiji);

            for (schedule, proxy) in [("fault-free", clean), ("persistent faults", failing)] {
                let (reference, one_shot) =
                    proxy.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();
                let config = StreamConfig::new(policy, 2, 2);
                let (streamed, report) = proxy
                    .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
                    .unwrap();
                let what = format!(
                    "degrid {} / {backend:?} / uneven chunks {steps:?} / {schedule}",
                    case.name
                );
                assert_vis_bit_identical(&reference, &streamed, &what);
                let all_fell_back = |r: &ExecutionReport| {
                    r.fallback_jobs.len() == r.launched_jobs && r.launched_jobs > 0
                };
                if on_device && schedule == "persistent faults" {
                    assert!(all_fell_back(&one_shot), "{what}: one-shot");
                    assert!(all_fell_back(&report), "{what}: streamed");
                } else {
                    assert!(report.fallback_jobs.is_empty(), "{what}");
                }
            }
        }
    }
    assert!(uneven_cases >= 2, "the matrix must hold uneven chunks");
}

#[test]
fn streamed_grid_with_job_zero_failed_for_good_is_bit_identical() {
    // The gridding twin: job 0 faults on every attempt, so both passes
    // re-grid it on the CPU reference kernels. Both must add its
    // subgrids at job 0's turn — one-shot onto the grid, streamed into
    // the plan-order commit — or the f32 sums differ. A chunk pass
    // numbers its jobs from 0, so only a one-chunk stream fails the same
    // job as the one-shot pass.
    use idg::gpusim::{FaultConfig, FaultKind, RetryPolicy, TargetedFault};
    use idg::types::FaultSite;

    let work_group_size = 4;
    for case in standard_cases().expect("standard cases build") {
        let ds = case.dataset();
        for backend in [Backend::GpuPascal, Backend::GpuFiji] {
            let job_zero_always = (0..RetryPolicy::default().max_attempts)
                .map(|attempt| TargetedFault {
                    job: 0,
                    attempt,
                    site: FaultSite::Kernel,
                    kind: FaultKind::KernelFault,
                })
                .collect();
            let mut proxy = Proxy::new(backend, case.obs.clone()).unwrap();
            proxy.work_group_size = work_group_size;
            let proxy = proxy.with_faults(FaultConfig::targeted(job_zero_always));
            let plan = proxy.plan(&ds.uvw).unwrap();
            let what = format!("grid {} / {backend:?} / job 0 failed", case.name);
            assert!(
                plan.work_groups(work_group_size).count() > 1,
                "{what}: want device jobs after the failed one"
            );

            let (reference, one_shot) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let one_chunk = ChunkPolicy::by_timesteps(case.obs.nr_timesteps);
            let config = StreamConfig::new(one_chunk, 2, 2);
            let (streamed, report) = proxy
                .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_eq!(report.stream.as_ref().map(|s| s.nr_chunks), Some(1));
            assert_bit_identical(&reference, &streamed, &what);
            for (side, r) in [("one-shot", &one_shot), ("streamed", &report)] {
                let jobs: Vec<usize> = r.fallback_jobs.iter().map(|f| f.job).collect();
                assert_eq!(jobs, [0], "{what}: {side} fallback jobs");
            }
        }
    }
}

#[test]
fn visibility_bounded_policies_stream_bit_identically_too() {
    // the same equivalence through the other ChunkPolicy axis: a
    // visibility budget of two A-term intervals' worth per chunk
    let case = &standard_cases().expect("standard cases build")[0];
    let ds = case.dataset();
    let per_interval = case.obs.nr_baselines() * case.obs.nr_channels() * case.obs.aterm_interval;
    for backend in [Backend::CpuOptimized, Backend::GpuPascal] {
        let proxy = Proxy::new(backend, case.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (reference, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let config = StreamConfig::new(ChunkPolicy::by_visibilities(2 * per_interval), 2, 2);
        let (streamed, _) = proxy
            .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_bit_identical(
            &reference,
            &streamed,
            &format!("by-visibilities {backend:?}"),
        );
    }
}

#[test]
fn streamed_fleet_with_transient_faults_recovers_bit_identically() {
    // a lemon member injecting transient faults: retries re-run the
    // exact same modeled kernels, so the streamed fleet grid must still
    // match the *fault-free* one-shot grid bit for bit, with zero jobs
    // surviving to the CPU fallback
    use idg::gpusim::FaultConfig;
    use idg::FleetConfig;

    let case = &standard_cases().expect("standard cases build")[2]; // ragged-tails
    let ds = case.dataset();
    let clean = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    let plan = clean.plan(&ds.uvw).unwrap();
    let (reference, _) = clean
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();

    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    proxy.work_group_size = 1;
    let proxy = proxy.with_fleet_config(FleetConfig {
        nr_devices: 3,
        member_faults: vec![(
            1,
            FaultConfig {
                seed: 4242,
                transfer_corruption_rate: 0.45,
                kernel_fault_rate: 0.35,
                stall_rate: 0.25,
                ..FaultConfig::default()
            },
        )],
        breaker: None,
    });
    let config = StreamConfig::new(ChunkPolicy::by_timesteps(case.obs.aterm_interval), 2, 2);
    let (streamed, report) = proxy
        .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    assert_bit_identical(&reference, &streamed, "lemon fleet streamed");
    assert!(
        report.fallback_jobs.is_empty(),
        "transient faults must be absorbed by retries, not the CPU fallback"
    );
    assert!(
        report.nr_retries > 0,
        "the lemon member's schedule must actually inject faults"
    );
    let stats = report.stream.expect("stream stats");
    assert_eq!(stats.failed_chunks, 0);
}

#[test]
fn streamed_fleet_degrid_with_transient_faults_recovers_bit_identically() {
    // duplex twin of the lemon-fleet gridding case: the same flaky
    // member now injects faults into the splitter-side pipeline, and
    // the streamed fleet's predicted visibilities must still match the
    // fault-free one-shot degrid byte for byte
    use idg::gpusim::FaultConfig;
    use idg::FleetConfig;

    let case = &standard_cases().expect("standard cases build")[2]; // ragged-tails
    let ds = case.dataset();
    let clean = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    let plan = clean.plan(&ds.uvw).unwrap();
    let (model, _) = clean
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let (reference, _) = clean.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();

    let mut proxy = Proxy::new(Backend::GpuPascal, case.obs.clone()).unwrap();
    proxy.work_group_size = 1;
    let proxy = proxy.with_fleet_config(FleetConfig {
        nr_devices: 3,
        member_faults: vec![(
            1,
            FaultConfig {
                seed: 4242,
                transfer_corruption_rate: 0.45,
                kernel_fault_rate: 0.35,
                stall_rate: 0.25,
                ..FaultConfig::default()
            },
        )],
        breaker: None,
    });
    let config = StreamConfig::new(ChunkPolicy::by_timesteps(case.obs.aterm_interval), 2, 2);
    let (streamed, report) = proxy
        .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
        .unwrap();
    assert_vis_bit_identical(&reference, &streamed, "lemon fleet streamed degrid");
    assert!(
        report.fallback_jobs.is_empty(),
        "transient faults must be absorbed by retries, not the CPU fallback"
    );
    assert!(
        report.nr_retries > 0,
        "the lemon member's schedule must actually inject faults"
    );
    assert_eq!(report.pass, "degridding");
    let stats = report.stream.expect("stream stats");
    assert_eq!(stats.failed_chunks, 0);
}
