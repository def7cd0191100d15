//! # idg-conformance — cross-backend accuracy conformance
//!
//! Every back-end of [`idg::Backend::all`] must approximate the same
//! operator. This crate pins that property *stage by stage*: it runs
//! gridding and degridding through each back-end via
//! [`idg::Proxy::grid_stages`]/[`idg::Proxy::degrid_stages`] on
//! deterministic seeded observations and compares every intermediate
//! buffer — gridder subgrids, post-FFT subgrids, the adder's grid, the
//! splitter subgrids, and the degridded visibilities — against the
//! scalar double-precision reference back-end, with explicit RMS and
//! max-error budgets per stage.
//!
//! Comparing stages instead of end products makes a conformance failure
//! *attributable*: a budget violation names the first kernel whose
//! output diverged, not just "the grids differ". The budgets are
//! deliberately asymmetric:
//!
//! * `CpuReference` vs itself must be bit-identical (budget 0) — this
//!   pins determinism of the harness and of the parallel adder;
//! * `CpuOptimized` and the GPU models run single-precision kernels
//!   with batched/approximated sincos, so they get a relative RMS
//!   budget of 1e-5 and a relative max budget of 5e-5 per stage.
//!   Measured errors on the standard cases sit at 4e-7…8e-7 RMS and
//!   up to 2e-6 max (run the conformance test with `--nocapture` for
//!   the full table), so the ceilings carry ≈ 15-25× headroom without
//!   admitting a genuinely broken kernel.
//!
//! Error metrics are *relative*: RMS of the difference over the RMS of
//! the reference stage output, and max-abs of the difference over the
//! max-abs of the reference. A stage whose reference output is
//! identically zero only conforms if the candidate is zero too.

#![deny(missing_docs)]

use idg::telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
use idg::types::{IdgError, Observation, Visibility};
use idg::{Backend, Cf32, Proxy};

/// Relative error of one candidate buffer against the reference.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StageError {
    /// RMS of (candidate − reference), normalized by the reference RMS.
    pub rms: f64,
    /// Max-abs of (candidate − reference), normalized by the reference
    /// max-abs.
    pub max: f64,
}

impl StageError {
    /// Compare two complex buffers element-wise.
    pub fn between(candidate: &[Cf32], reference: &[Cf32]) -> Self {
        assert_eq!(
            candidate.len(),
            reference.len(),
            "stage buffers must have equal shape"
        );
        let mut diff2 = 0.0f64;
        let mut ref2 = 0.0f64;
        let mut dmax = 0.0f64;
        let mut rmax = 0.0f64;
        for (a, b) in candidate.iter().zip(reference) {
            let dre = (a.re - b.re) as f64;
            let dim = (a.im - b.im) as f64;
            let d2 = dre * dre + dim * dim;
            diff2 += d2;
            dmax = dmax.max(d2);
            let b2 = (b.re as f64) * (b.re as f64) + (b.im as f64) * (b.im as f64);
            ref2 += b2;
            rmax = rmax.max(b2);
        }
        if ref2 == 0.0 {
            // reference is identically zero: conforming candidates are too
            let zero = diff2 == 0.0;
            return Self {
                rms: if zero { 0.0 } else { f64::INFINITY },
                max: if zero { 0.0 } else { f64::INFINITY },
            };
        }
        Self {
            rms: (diff2 / ref2).sqrt(),
            max: (dmax / rmax).sqrt(),
        }
    }

    /// Compare visibility buffers (all four polarizations flattened).
    pub fn between_visibilities(
        candidate: &[Visibility<f32>],
        reference: &[Visibility<f32>],
    ) -> Self {
        let flat = |v: &[Visibility<f32>]| -> Vec<Cf32> { v.iter().flat_map(|s| s.pols).collect() };
        Self::between(&flat(candidate), &flat(reference))
    }
}

/// Error budget for one stage.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StageBudget {
    /// Ceiling for [`StageError::rms`].
    pub rms: f64,
    /// Ceiling for [`StageError::max`].
    pub max: f64,
}

impl StageBudget {
    /// The per-stage budget of a back-end.
    ///
    /// The reference back-end is compared against itself and must be
    /// bit-identical; every single-precision back-end shares one budget,
    /// so adding a back-end to [`Backend::all`] automatically subjects
    /// it to the same ceilings.
    pub fn for_backend(backend: Backend) -> Self {
        match backend {
            Backend::CpuReference => Self { rms: 0.0, max: 0.0 },
            _ => Self {
                rms: 1e-5,
                max: 5e-5,
            },
        }
    }

    /// Whether `error` fits inside the budget.
    pub fn admits(&self, error: StageError) -> bool {
        error.rms <= self.rms && error.max <= self.max
    }
}

/// The result of checking one pipeline stage of one back-end.
#[derive(Clone, Debug)]
pub struct StageCheck {
    /// Stage name (`gridder`, `subgrid-fft`, `grid`, `splitter`,
    /// `subgrid-ifft`, `visibilities`).
    pub stage: &'static str,
    /// Measured error against the reference.
    pub error: StageError,
    /// Budget the error is held to.
    pub budget: StageBudget,
}

impl StageCheck {
    /// Whether the stage conforms.
    pub fn passed(&self) -> bool {
        self.budget.admits(self.error)
    }
}

/// All stage checks of one back-end on one case.
#[derive(Clone, Debug)]
pub struct BackendReport {
    /// The back-end under test.
    pub backend: Backend,
    /// Case name the report belongs to.
    pub case: &'static str,
    /// One check per pipeline stage, gridding stages first.
    pub checks: Vec<StageCheck>,
}

impl BackendReport {
    /// Failing checks, empty when the back-end conforms.
    pub fn violations(&self) -> Vec<&StageCheck> {
        self.checks.iter().filter(|c| !c.passed()).collect()
    }

    /// Render a one-line-per-stage summary (used in failure messages
    /// and by the conformance test's verbose output).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:>14} / {:<12} {:<12} rms {:.3e} (≤ {:.1e})  max {:.3e} (≤ {:.1e})  {}",
                self.case,
                self.backend.label(),
                c.stage,
                c.error.rms,
                c.budget.rms,
                c.error.max,
                c.budget.max,
                if c.passed() { "ok" } else { "VIOLATION" },
            );
        }
        out
    }
}

/// One deterministic seeded observation the suite runs.
pub struct Case {
    /// Short name used in reports.
    pub name: &'static str,
    /// Observation geometry.
    pub obs: Observation,
    /// Station layout seed (`Layout::uniform`).
    pub layout_seed: u64,
    /// Layout radius in meters.
    pub layout_radius: f64,
    /// Sky realization: (number of sources, max flux, seed).
    pub sky: (usize, f64, u64),
    /// Gaussian-beam A-term seed, or `None` for identity A-terms.
    pub beam_seed: Option<u64>,
}

impl Case {
    /// Simulate the case's dataset (deterministic for fixed seeds).
    pub fn dataset(&self) -> Dataset {
        let layout = Layout::uniform(self.obs.nr_stations, self.layout_radius, self.layout_seed);
        let sky = SkyModel::random(&self.obs, self.sky.0, self.sky.1, self.sky.2);
        match self.beam_seed {
            Some(seed) => {
                let beam = GaussianBeam::new(&self.obs, 0.7, seed);
                Dataset::simulate(self.obs.clone(), &layout, sky, &beam)
            }
            None => Dataset::simulate(self.obs.clone(), &layout, sky, &IdentityATerm),
        }
    }
}

/// The standard conformance cases: three observation shapes chosen to
/// exercise different code paths.
///
/// * `nominal` — mid-size observation through a drifting Gaussian beam
///   (A-term sandwich active, several A-term intervals);
/// * `w-stacking` — `w_step > 0`, so the plan splits work items per
///   w-plane and the kernels evaluate per-pixel w-phases;
/// * `ragged-tails` — deliberately awkward sizes: odd time/channel
///   counts and a short A-term interval make every work item's
///   visibility count miss the optimized kernels' batch and SIMD-lane
///   boundaries, pinning the tail-handling paths.
pub fn standard_cases() -> Result<Vec<Case>, IdgError> {
    let nominal = Observation::builder()
        .stations(6)
        .timesteps(48)
        .channels(4, 150e6, 2e6)
        .grid_size(256)
        .subgrid_size(20)
        .kernel_size(7)
        .aterm_interval(16)
        .image_size(0.05)
        .integration_time(30.0)
        .build()?;

    let mut wstack = Observation::builder()
        .stations(8)
        .timesteps(32)
        .channels(4, 150e6, 2e6)
        .grid_size(256)
        .subgrid_size(24)
        .kernel_size(9)
        .aterm_interval(32)
        .image_size(0.05)
        .build()?;
    wstack.w_step = 30.0;

    let ragged = Observation::builder()
        .stations(4)
        .timesteps(21)
        .channels(3, 150e6, 2e6)
        .grid_size(128)
        .subgrid_size(16)
        .kernel_size(5)
        .aterm_interval(7)
        .image_size(0.04)
        .build()?;

    Ok(vec![
        Case {
            name: "nominal",
            obs: nominal,
            layout_seed: 1101,
            layout_radius: 1200.0,
            sky: (5, 0.8, 1103),
            beam_seed: Some(1107),
        },
        Case {
            name: "w-stacking",
            obs: wstack,
            layout_seed: 2201,
            layout_radius: 1500.0,
            sky: (4, 0.6, 2203),
            beam_seed: None,
        },
        Case {
            name: "ragged-tails",
            obs: ragged,
            layout_seed: 3301,
            layout_radius: 800.0,
            sky: (3, 0.5, 3303),
            beam_seed: Some(3307),
        },
    ])
}

/// Run one case through every back-end and compare each stage against
/// the scalar reference.
///
/// Gridding stages compare each back-end's own pipeline; degridding
/// runs every back-end against the *reference* model grid so the
/// degrid-side comparison is not polluted by grid-side differences.
pub fn run_case(case: &Case) -> Result<Vec<BackendReport>, IdgError> {
    let ds = case.dataset();

    let reference = Proxy::new(Backend::CpuReference, case.obs.clone())?;
    let plan = reference.plan(&ds.uvw)?;
    let ref_grid = reference.grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)?;
    let ref_degrid = reference.degrid_stages(&plan, &ref_grid.grid, &ds.uvw, &ds.aterms)?;

    let mut reports = Vec::with_capacity(Backend::all().len());
    for backend in Backend::all() {
        let budget = StageBudget::for_backend(backend);
        let proxy = Proxy::new(backend, case.obs.clone())?;
        let g = proxy.grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)?;
        let d = proxy.degrid_stages(&plan, &ref_grid.grid, &ds.uvw, &ds.aterms)?;

        let checks = vec![
            StageCheck {
                stage: "gridder",
                error: StageError::between(
                    g.gridder_subgrids.as_slice(),
                    ref_grid.gridder_subgrids.as_slice(),
                ),
                budget,
            },
            StageCheck {
                stage: "subgrid-fft",
                error: StageError::between(
                    g.fft_subgrids.as_slice(),
                    ref_grid.fft_subgrids.as_slice(),
                ),
                budget,
            },
            StageCheck {
                stage: "grid",
                error: StageError::between(g.grid.as_slice(), ref_grid.grid.as_slice()),
                budget,
            },
            StageCheck {
                stage: "splitter",
                error: StageError::between(
                    d.split_subgrids.as_slice(),
                    ref_degrid.split_subgrids.as_slice(),
                ),
                budget,
            },
            StageCheck {
                stage: "subgrid-ifft",
                error: StageError::between(
                    d.ifft_subgrids.as_slice(),
                    ref_degrid.ifft_subgrids.as_slice(),
                ),
                budget,
            },
            StageCheck {
                stage: "visibilities",
                error: StageError::between_visibilities(&d.visibilities, &ref_degrid.visibilities),
                budget,
            },
        ];

        reports.push(BackendReport {
            backend,
            case: case.name,
            checks,
        });
    }
    Ok(reports)
}

/// Run every standard case through every back-end; panic with a full
/// per-stage table if any budget is violated.
pub fn assert_conformance() -> Result<Vec<BackendReport>, IdgError> {
    let mut reports = Vec::new();
    for case in standard_cases()? {
        reports.extend(run_case(&case)?);
    }
    let mut failures = String::new();
    for report in &reports {
        if !report.violations().is_empty() {
            failures.push_str(&report.summary());
        }
    }
    assert!(failures.is_empty(), "conformance violations:\n{failures}");
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg::Complex;

    #[test]
    fn identical_buffers_have_zero_error() {
        let buf = vec![Cf32::new(1.0, -2.0), Cf32::new(0.5, 0.25)];
        let e = StageError::between(&buf, &buf);
        assert_eq!(e.rms, 0.0);
        assert_eq!(e.max, 0.0);
        assert!(StageBudget::for_backend(Backend::CpuReference).admits(e));
    }

    #[test]
    fn zero_reference_only_admits_zero_candidate() {
        let z = vec![Cf32::new(0.0, 0.0); 4];
        let nz = vec![Cf32::new(1e-9, 0.0); 4];
        assert_eq!(StageError::between(&z, &z).rms, 0.0);
        let e = StageError::between(&nz, &z);
        assert!(e.rms.is_infinite() && e.max.is_infinite());
        assert!(!StageBudget::for_backend(Backend::CpuOptimized).admits(e));
    }

    #[test]
    fn relative_error_matches_hand_computation() {
        let reference = vec![Complex::new(2.0f32, 0.0)];
        let candidate = vec![Complex::new(2.0f32, 0.002)];
        let e = StageError::between(&candidate, &reference);
        assert!((e.rms - 0.001).abs() < 1e-9);
        assert!((e.max - 0.001).abs() < 1e-9);
    }

    #[test]
    fn standard_cases_are_three_distinct_shapes() {
        let cases = standard_cases().expect("standard cases build");
        assert_eq!(cases.len(), 3);
        assert!(cases.iter().any(|c| c.obs.w_step > 0.0));
        assert!(cases.iter().any(|c| c.beam_seed.is_some()));
        // the ragged case must actually miss the SIMD boundaries
        let ragged = &cases[2];
        let vis_per_item = ragged.obs.aterm_interval * ragged.obs.nr_channels();
        assert_ne!(vis_per_item % 16, 0, "tail case must not be LANES-aligned");
    }
}
