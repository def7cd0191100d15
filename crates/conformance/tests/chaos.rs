//! Chaos suite: the fault-injecting execution layer under randomized
//! and adversarial fault schedules.
//!
//! Every seeded conformance observation is driven through GPU passes
//! with injected device faults. The contract under test:
//!
//! * transient faults (transfer corruption, kernel faults, stalls)
//!   retry to **bit-identical** results — the recovery cost appears in
//!   the report (retries, backoff, faulted timeline ops), never in the
//!   numbers;
//! * persistent faults (device OOM, exhausted retries) degrade
//!   gracefully: the failed jobs re-execute on the CPU reference
//!   kernels, the merged result stays within the cross-backend
//!   equivalence envelope, and the fallback is flagged in the report;
//! * with the fallback disabled, persistent faults surface as
//!   **typed** classified errors;
//! * an input error a job meets mid-pass (a NaN model-grid sample the
//!   splitter reads) fails the pass at once: it is neither re-dispatched
//!   nor re-run on the CPU;
//! * no schedule — however hostile — panics.

use idg::gpusim::{FaultConfig, RetryPolicy};
use idg::types::Grid;
use idg::{Backend, IdgError, Proxy, Visibility};
use idg_conformance::standard_cases;

/// Small work groups so every case schedules enough jobs for the
/// injector to have interesting points to hit.
const WORK_GROUP_SIZE: usize = 4;

fn proxy(backend: Backend, case: &idg_conformance::Case) -> Proxy {
    let mut p = Proxy::new(backend, case.obs.clone()).unwrap();
    p.work_group_size = WORK_GROUP_SIZE;
    p
}

/// Relative max-abs distance, normalized by the reference peak — the
/// same envelope the cross-backend equivalence tests use.
fn grids_close(a: &Grid<f32>, b: &Grid<f32>, tol: f32) {
    let scale = b.as_slice().iter().map(|c| c.abs()).fold(1e-9f32, f32::max);
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((*x - *y).abs() / scale < tol, "{x} vs {y}");
    }
}

fn vis_close(a: &[Visibility<f32>], b: &[Visibility<f32>], tol: f32) {
    let scale = b
        .iter()
        .flat_map(|v| v.pols.iter())
        .map(|c| c.abs())
        .fold(1e-9f32, f32::max);
    for (x, y) in a.iter().zip(b) {
        for p in 0..4 {
            assert!((x.pols[p] - y.pols[p]).abs() / scale < tol);
        }
    }
}

/// A moderate all-transient schedule: no OOM, so every fault class is
/// retryable and recovery must be exact whenever no job exhausts its
/// attempts.
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

#[test]
fn transient_chaos_recovers_every_standard_case() {
    // alternate the device model per case to cover both architectures
    let backends = [Backend::GpuPascal, Backend::GpuFiji, Backend::GpuPascal];
    for (case, backend) in standard_cases()
        .expect("standard cases build")
        .iter()
        .zip(backends)
    {
        let ds = case.dataset();
        let gold_proxy = proxy(backend, case);
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, gold_report) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(gold_report.fallback_jobs.is_empty());

        for seed in [11, 22, 33] {
            let chaotic = proxy(backend, case).with_faults(transient_chaos(seed));
            let (grid, report) = chaotic
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();

            if report.fallback_jobs.is_empty() {
                // all-transient recovery: the kernels are deterministic,
                // so the retried grid is bit-identical to the gold run
                assert_eq!(
                    grid.as_slice(),
                    gold.as_slice(),
                    "{} seed {seed}: recovery must be exact",
                    case.name
                );
            } else {
                // a job exhausted its retries and re-executed on the
                // CPU: flagged, and within the equivalence envelope
                grids_close(&grid, &gold, 3e-3);
            }
            if report.nr_retries > 0 {
                assert!(report.backoff_seconds > 0.0, "backoff must be modeled");
                assert!(
                    report.total_seconds >= gold_report.total_seconds,
                    "recovery cannot be free"
                );
            }
        }
    }
}

#[test]
fn transient_chaos_recovers_degridding() {
    let case = &standard_cases().expect("standard cases build")[0];
    let ds = case.dataset();
    let gold_proxy = proxy(Backend::GpuPascal, case);
    let plan = gold_proxy.plan(&ds.uvw).unwrap();
    let (model, _) = gold_proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let (gold, _) = gold_proxy
        .degrid(&plan, &model, &ds.uvw, &ds.aterms)
        .unwrap();

    for seed in [5, 6] {
        let chaotic = proxy(Backend::GpuPascal, case).with_faults(transient_chaos(seed));
        let (vis, report) = chaotic.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();
        if report.fallback_jobs.is_empty() {
            assert_eq!(vis, gold, "seed {seed}: degrid recovery must be exact");
        } else {
            vis_close(&vis, &gold, 3e-3);
        }
    }
}

#[test]
fn oom_chaos_degrades_gracefully_with_a_flagged_fallback() {
    let case = &standard_cases().expect("standard cases build")[2]; // ragged-tails: cheapest case
    let ds = case.dataset();
    let gold_proxy = proxy(Backend::GpuFiji, case);
    let plan = gold_proxy.plan(&ds.uvw).unwrap();
    let (gold, _) = gold_proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();

    let mut saw_fallback = false;
    for seed in [1, 2, 3, 4] {
        let chaotic = proxy(Backend::GpuFiji, case).with_faults(FaultConfig {
            seed,
            oom_rate: 0.4,
            ..FaultConfig::default()
        });
        let (grid, report) = chaotic
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        if !report.fallback_jobs.is_empty() {
            saw_fallback = true;
            assert!(report
                .fallback_jobs
                .iter()
                .all(|f| !f.error.is_transient() && f.attempts == 1));
            assert!(report.to_string().contains("re-executed on the CPU"));
        }
        grids_close(&grid, &gold, 3e-3);
    }
    assert!(saw_fallback, "oom_rate 0.4 over 4 seeds must hit some job");
}

#[test]
fn disabled_fallback_turns_persistent_faults_into_typed_errors() {
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();

    // every job's kernel faults on every attempt and nothing retries:
    // with the fallback off, the pass must fail with the classified
    // error of the first failed job — not a panic, not a zero grid
    let mut p = proxy(Backend::GpuPascal, case).with_faults(FaultConfig {
        seed: 9,
        kernel_fault_rate: 1.0,
        ..FaultConfig::default()
    });
    p.retry_policy = RetryPolicy::no_retries();
    p.cpu_fallback = false;
    let plan = p.plan(&ds.uvw).unwrap();
    let err = p
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap_err();
    assert!(matches!(err, IdgError::KernelFault { .. }), "{err:?}");
    assert!(!err.is_transient() || err.job().is_some());
}

#[test]
fn total_kernel_failure_still_produces_the_full_grid_via_fallback() {
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let gold = {
        let reference = Proxy::new(Backend::CpuReference, case.obs.clone()).unwrap();
        let plan = reference.plan(&ds.uvw).unwrap();
        reference
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap()
            .0
    };

    let mut p = proxy(Backend::GpuPascal, case).with_faults(FaultConfig {
        seed: 13,
        kernel_fault_rate: 1.0,
        ..FaultConfig::default()
    });
    p.retry_policy = RetryPolicy::no_retries();
    let plan = p.plan(&ds.uvw).unwrap();
    let (grid, report) = p
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();

    // every device job failed, so every job re-executed on the CPU
    // reference kernels — the result *is* the reference grid
    let nr_jobs = plan.items.chunks(WORK_GROUP_SIZE).count();
    assert_eq!(report.fallback_jobs.len(), nr_jobs);
    assert_eq!(grid.as_slice(), gold.as_slice());
}

#[test]
fn a_non_finite_sample_the_splitter_reads_fails_the_device_pass_at_once() {
    // an input error found inside a device job is not a device fault:
    // neither dispatcher may hand the job to a peer or to the CPU
    // fallback, which would run the same splitter on the same sample
    let case = &standard_cases().expect("standard cases build")[2];
    let ds = case.dataset();
    let gold_proxy = proxy(Backend::GpuPascal, case);
    let plan = gold_proxy.plan(&ds.uvw).unwrap();
    let (mut model, _) = gold_proxy
        .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .unwrap();
    let (first, n) = (plan.items[0], case.obs.subgrid_size);
    model
        .at_mut(0, first.coord_y + n / 2, first.coord_x + n / 2)
        .re = f32::NAN;

    for nr_devices in [1, 2] {
        let mut chaotic = proxy(Backend::GpuPascal, case).with_faults(transient_chaos(7));
        if nr_devices > 1 {
            chaotic = chaotic.with_fleet(nr_devices);
        }
        assert!(chaotic.cpu_fallback);
        let session = idg::obs::Session::begin("degridding");
        let err = chaotic.degrid(&plan, &model, &ds.uvw, &ds.aterms).err();
        let metrics = session.finish().metrics;
        assert!(
            matches!(err, Some(IdgError::InvalidParameter(_))),
            "{nr_devices} device(s): {err:?}"
        );
        assert_eq!(metrics.redispatched_jobs, 0, "{nr_devices} device(s)");
        assert_eq!(metrics.fallback_jobs, 0, "{nr_devices} device(s)");
    }
}
