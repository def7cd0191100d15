//! The cross-backend conformance suite.
//!
//! Every back-end runs gridding and degridding on each standard case;
//! every pipeline stage is held to its error budget against the scalar
//! double-precision reference. Run with `--nocapture` to see the full
//! per-stage error table.

use idg::Backend;
use idg_conformance::{assert_conformance, run_case, standard_cases};

#[test]
fn all_backends_conform_on_all_standard_cases() {
    let reports = assert_conformance().expect("conformance pipeline runs");
    // 3 cases × 4 back-ends × 6 stages
    assert_eq!(
        reports.len(),
        standard_cases().expect("standard cases build").len() * Backend::all().len()
    );
    for report in &reports {
        assert_eq!(report.checks.len(), 6);
        print!("{}", report.summary());
    }
}

#[test]
fn reference_backend_is_bit_identical_to_itself() {
    // Pins harness determinism AND the determinism of the band-parallel
    // adder and the subgrid-parallel splitter: any nondeterministic
    // reduction order would break the zero budget.
    let cases = standard_cases().expect("standard cases build");
    let reports = run_case(&cases[0]).expect("case runs");
    let reference = &reports[0];
    assert_eq!(reference.backend, Backend::CpuReference);
    for check in &reference.checks {
        assert_eq!(
            (check.error.rms, check.error.max),
            (0.0, 0.0),
            "stage {} not deterministic",
            check.stage
        );
    }
}

#[test]
fn single_precision_backends_are_close_but_not_identical() {
    // Guards against a harness bug that silently compares the reference
    // against itself for every backend: the optimized/GPU paths must
    // show a nonzero (but budgeted) error.
    let cases = standard_cases().expect("standard cases build");
    let reports = run_case(&cases[0]).expect("case runs");
    for report in &reports {
        if report.backend == Backend::CpuReference {
            continue;
        }
        assert!(report.violations().is_empty(), "{}", report.summary());
        let gridder = &report.checks[0];
        assert!(
            gridder.error.rms > 0.0,
            "{:?} gridder suspiciously bit-identical to the f64 reference",
            report.backend
        );
    }
}
