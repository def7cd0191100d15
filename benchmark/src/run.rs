//! One untraced run of one workload: set-up, timed rounds, output checks.
//!
//! Load shape: closed loop, one client, one pass in flight. The driver is
//! single-threaded and issues the next pass when the previous returns;
//! the library uses its own `available_parallelism()` threads and the
//! stream scheduler its configured 2 workers.

use crate::json::Json;
use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{grid_ok, rms_descends, same_vis, timed, vis_ok, Bench, Kind};
use idg::{Backend, IdgError, Proxy};
use idg_conformance::{StageBudget, StageError};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds per run: at least 5, at most 40, otherwise until `--seconds`.
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 40;
/// Work items of the plan compared against the scalar f64 reference.
const SLICE_ITEMS: usize = 64;

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Run one timed operation. An `Err` or an output that fails `ok`
    /// counts as failed and yields no sample.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, IdgError>,
        ok: impl FnOnce(&T) -> bool,
    ) -> Option<(T, f64)> {
        let (result, secs) = timed(f);
        match result {
            Ok(value) => {
                let passed = ok(&value);
                self.check(&format!("{what}: output check"), passed);
                passed.then_some((value, secs))
            }
            Err(e) => {
                self.check(&format!("{what}: {e}"), false);
                None
            }
        }
    }

    /// Count one check; `what` is recorded when it does not hold.
    pub fn check(&mut self, what: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// Per metric, the samples its value is the median of.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Worst relative L2 error against the f64 reference kernels.
    pub max_rel_err: f64,
}

impl Outcome {
    /// The suite's per-run detail: samples and gates.
    pub fn detail(&self) -> Json {
        Json::obj([
            (
                "samples",
                Json::obj(self.samples.iter().map(|(n, s)| (*n, Json::nums(s)))),
            ),
            ("max_rel_err", Json::Num(self.max_rel_err)),
            (
                "failed_ops_frac",
                Json::Num(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(
                    self.tally
                        .failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Relative L2 errors of the workload's back-end against the scalar f64
/// `CpuReference` kernels on a fixed slice of the plan (every
/// `len/64`-th work item): the gridded slice, and the visibilities
/// predicted from the reference's grid so that the degrid comparison is
/// not polluted by grid-side differences.
pub fn reference_slice(bench: &Bench) -> Result<(StageError, StageError), IdgError> {
    let ds = &bench.ds;
    let mut slice = bench.plan.clone();
    let stride = (slice.items.len() / SLICE_ITEMS).max(1);
    slice.items = bench
        .plan
        .items
        .iter()
        .step_by(stride)
        .take(SLICE_ITEMS)
        .copied()
        .collect();
    let reference = Proxy::new(Backend::CpuReference, ds.obs.clone())?;
    let (ref_grid, _) = reference.grid(&slice, &ds.uvw, &ds.visibilities, &ds.aterms)?;
    let (grid, _) = bench
        .proxy
        .grid(&slice, &ds.uvw, &ds.visibilities, &ds.aterms)?;
    let (ref_vis, _) = reference.degrid(&slice, &ref_grid, &ds.uvw, &ds.aterms)?;
    let (vis, _) = bench.proxy.degrid(&slice, &ref_grid, &ds.uvw, &ds.aterms)?;
    Ok((
        StageError::between(grid.as_slice(), ref_grid.as_slice()),
        StageError::between_visibilities(&vis, &ref_vis),
    ))
}

/// The checks every run ends with, traced or not: the reference slice
/// within the conformance budget, no kernel-cache miss after warm-up
/// and, on `device_stream`, streamed output bit-identical to the
/// one-shot fleet pass. Returns the two slice errors.
pub fn closing_checks(
    bench: &Bench,
    warm_grid: &idg::Grid<f32>,
    cold_misses: u64,
    tally: &mut Tally,
) -> Result<(f64, f64), IdgError> {
    tally.check(
        "kernel cache: no miss after warm-up",
        bench.proxy.kernel_cache().misses() == cold_misses,
    );
    if bench.stream.is_some() {
        let ds = &bench.ds;
        let (one_shot, _) = bench
            .proxy
            .grid(&bench.plan, &ds.uvw, &ds.visibilities, &ds.aterms)?;
        tally.check(
            "grid_streamed bit-identical to the one-shot fleet pass",
            one_shot.as_slice() == warm_grid.as_slice(),
        );
        let (one_shot, _) = bench
            .proxy
            .degrid(&bench.plan, warm_grid, &ds.uvw, &ds.aterms)?;
        let streamed = bench.degrid(warm_grid)?;
        tally.check(
            "degrid_streamed bit-identical to the one-shot fleet pass",
            same_vis(&one_shot, &streamed),
        );
    }
    let (grid_err, degrid_err) = reference_slice(bench)?;
    let budget = StageBudget::for_backend(bench.proxy.backend());
    tally.check(
        &format!("gridder slice within conformance budget ({grid_err:?})"),
        budget.admits(grid_err),
    );
    tally.check(
        &format!("degridder slice within conformance budget ({degrid_err:?})"),
        budget.admits(degrid_err),
    );
    Ok((grid_err.rms, degrid_err.rms))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: `SETUPS` set-ups, then rounds of (grid pass,
/// imaging step, degrid pass) for `seconds`, then the closing checks.
/// The span recorder and `idg-obs` are off throughout.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, IdgError> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // one workload state resident at a time, as in a user's process
        drop(state.take());
        let (warm, secs) = timed(|| Bench::warmed_up(kind, seed));
        state = Some(warm?);
        setup_s.push(secs);
    }
    let (bench, warm_grid) = state.expect("SETUPS > 0");
    let cold_misses = bench.proxy.kernel_cache().misses();

    let mut tally = Tally::default();
    let (mut grid_s, mut degrid_s, mut image_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for round in 0..MAX_ROUNDS {
        if round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let grid = tally.op("grid pass", || bench.grid(), grid_ok);
        if kind == Kind::MajorCycle {
            // time to a residual image: the whole major-cycle loop
            let cycle = tally.op(
                "imaging cycle",
                || bench.cycle(),
                |report| rms_descends(&report.residual_rms),
            );
            image_s.extend(cycle.map(|(_, secs)| secs));
        }
        if let Some((grid, secs)) = grid {
            grid_s.push(secs);
            if kind != Kind::MajorCycle {
                // time to a dirty image: this grid pass plus its imaging
                let (image, dirty_secs) = timed(|| bench.dirty(&grid));
                let rms = image.rms();
                tally.check(
                    "dirty image finite and non-zero",
                    rms.is_finite() && rms > 0.0,
                );
                image_s.push(secs + dirty_secs);
            }
        }
        let vis = tally.op("degrid pass", || bench.degrid(&warm_grid), |v| vis_ok(v));
        degrid_s.extend(vis.map(|(_, secs)| secs));
    }
    // read before the checks allocate their own grids
    let peak_rss = peak_rss_mb();
    let (grid_err, degrid_err) = closing_checks(&bench, &warm_grid, cold_misses, &mut tally)?;

    let mvis =
        |secs: &[f64]| -> Vec<f64> { secs.iter().map(|s| bench.nr_vis() / s / 1e6).collect() };
    let samples = vec![
        ("setup_s", setup_s),
        ("grid_mvis_per_s", mvis(&grid_s)),
        ("degrid_mvis_per_s", mvis(&degrid_s)),
        ("time_to_image_s", image_s),
        ("peak_rss_mb", vec![peak_rss]),
    ];
    let mut values = Values::default();
    for (name, s) in &samples {
        values.set(name, median(s));
    }
    Ok(Outcome {
        tally,
        values,
        samples,
        max_rel_err: grid_err.max(degrid_err),
    })
}
