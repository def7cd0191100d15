//! Fixture coverage for the seven rules: one violating and one clean
//! file per rule (and per L6 sub-rule), asserted down to the exact
//! `line:column` spans, plus the scoping behavior (boundary files,
//! numeric-core crates, L3/L4 crate lists, crate roots, the L6/L7
//! facade-crate exemption) and the live-workspace meta-check that
//! mirrors the CI gate.

use idg_lint::{lint_source, Config, Diagnostic, Rule};

/// Lint a fixture as if it lived at `path` in the workspace, under the
/// committed policy.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(path, src, &Config::workspace()).expect("fixture parses")
}

/// `(line, column)` spans of one rule's diagnostics, in emission order.
fn spans(diags: &[Diagnostic], rule: Rule) -> Vec<(usize, usize)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.column))
        .collect()
}

// ---------------------------------------------------------------------------
// L1 — panic freedom
// ---------------------------------------------------------------------------

#[test]
fn l1_fires_on_unwrap_expect_panic_and_boundary_indexing() {
    // Linted as the boundary module: all four diagnostics, span-precise.
    let diags = lint(
        "crates/telescope/src/io.rs",
        include_str!("fixtures/l1_violating.rs"),
    );
    assert_eq!(
        spans(&diags, Rule::L1),
        vec![(5, 23), (6, 22), (8, 9), (10, 6)]
    );
    assert_eq!(diags.len(), 4, "only L1 fires on this fixture: {diags:?}");
    assert!(diags[0].message.contains(".unwrap()"));
    assert!(diags[1].message.contains(".expect()"));
    assert!(diags[2].message.contains("panic!"));
    assert!(diags[3].message.contains("unchecked indexing"));
}

#[test]
fn l1_indexing_applies_only_to_boundary_files() {
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l1_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L1), vec![(5, 23), (6, 22), (8, 9)]);
}

#[test]
fn l1_clean_fixture_passes_even_as_boundary_file() {
    let diags = lint(
        "crates/telescope/src/io.rs",
        include_str!("fixtures/l1_clean.rs"),
    );
    assert_eq!(diags, vec![], "clean fixture must produce no diagnostics");
}

// ---------------------------------------------------------------------------
// L2 — numeric discipline
// ---------------------------------------------------------------------------

#[test]
fn l2_fires_on_float_eq_and_raw_narrowing_cast() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l2_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L2), vec![(6, 10), (9, 23)]);
    assert_eq!(diags.len(), 2, "narrow_f32 is a blessed helper: {diags:?}");
    assert!(diags[0].message.contains("float `==`"));
    assert!(diags[1].message.contains("`as f32`"));
}

#[test]
fn l2_cast_rule_applies_only_to_numeric_core_crates() {
    // Outside kernels/fft/math only the float-equality half applies.
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l2_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L2), vec![(6, 10)]);
}

#[test]
fn l2_clean_fixture_passes_in_a_numeric_core_crate() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l2_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

// ---------------------------------------------------------------------------
// L3 — kernel ↔ observability contract
// ---------------------------------------------------------------------------

#[test]
fn l3_fires_on_counterless_kernel_entry_point() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l3_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L3), vec![(3, 5)]);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("gridder_fixture"));
    assert!(diags[0].message.contains("add_kernel"));
}

#[test]
fn l3_applies_only_to_kernel_crates() {
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l3_violating.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l3_clean_fixture_passes() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l3_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l3_fires_on_counterless_health_entry_point() {
    // The breaker health tracker is an L3 entry point like any kernel:
    // outcomes it absorbs must surface in the idg-obs counters.
    let diags = lint(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/l3_health_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L3), vec![(4, 5)]);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("record_outcome_fixture"));
    assert!(diags[0].message.contains("add_health_outcomes"));
}

#[test]
fn l3_health_clean_fixture_passes() {
    let diags = lint(
        "crates/gpusim/src/fixture.rs",
        include_str!("fixtures/l3_health_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l3_fires_on_counterless_stream_entry_point() {
    // The streaming scheduler is an L3 entry point like any kernel:
    // chunks it admits must surface in the idg-obs stream counters.
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l3_stream_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L3), vec![(4, 5)]);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("run_stream_fixture"));
    assert!(diags[0].message.contains("add_chunks_ingested"));
}

#[test]
fn l3_stream_clean_fixture_passes() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l3_stream_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

// ---------------------------------------------------------------------------
// L4 — typed fallibility
// ---------------------------------------------------------------------------

#[test]
fn l4_fires_on_option_failure_and_foreign_error_type() {
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l4_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L4), vec![(3, 5), (7, 5)]);
    assert_eq!(diags.len(), 2);
    assert!(diags[0].message.contains("parse_scale"));
    assert!(diags[0].message.contains("Option"));
    assert!(diags[1].message.contains("load_table"));
    assert!(diags[1].message.contains("Result<_, String>"));
}

#[test]
fn l4_exempt_crates_are_skipped() {
    let diags = lint(
        "crates/lint/src/fixture.rs",
        include_str!("fixtures/l4_violating.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l4_clean_fixture_passes() {
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l4_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

// ---------------------------------------------------------------------------
// L5 — forbid(unsafe_code) in crate roots
// ---------------------------------------------------------------------------

#[test]
fn l5_fires_on_crate_root_without_forbid() {
    let diags = lint(
        "crates/kernels/src/lib.rs",
        include_str!("fixtures/l5_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L5), vec![(1, 1)]);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("#![forbid(unsafe_code)]"));
}

#[test]
fn l5_applies_only_to_crate_roots() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l5_violating.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l5_clean_fixture_passes() {
    let diags = lint(
        "crates/kernels/src/lib.rs",
        include_str!("fixtures/l5_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

// ---------------------------------------------------------------------------
// L6 — lock discipline
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    idg_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

#[test]
fn l6_fires_on_bare_if_guarded_and_block_hidden_waits() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l6_wait_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L6), vec![(8, 12), (15, 16), (24, 20)]);
    assert_eq!(diags.len(), 3, "only L6(a) fires here: {diags:?}");
    assert!(diags[0].message.contains("predicate re-check"));
}

#[test]
fn l6_wait_clean_fixture_passes() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l6_wait_clean.rs"),
    );
    assert_eq!(diags, vec![], "waits directly in loop bodies are legal");
}

#[test]
fn l6_fires_on_raw_poison_panicking_acquisitions() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l6_raw_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L6), vec![(6, 16), (7, 17), (8, 17)]);
    // The chained unwrap/expect calls also trip L1 — both rules police
    // the same sites from different angles.
    assert_eq!(spans(&diags, Rule::L1), vec![(6, 23), (7, 24), (8, 25)]);
    assert_eq!(diags.len(), 6);
    assert!(diags
        .iter()
        .any(|d| d.rule == Rule::L6 && d.message.contains("idg-sync facade")));
}

#[test]
fn l6_raw_clean_fixture_passes() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l6_raw_clean.rs"),
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn l6_fires_on_kernel_launch_under_live_guard() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l6_guard_violating.rs"),
    );
    assert_eq!(spans(&diags, Rule::L6), vec![(8, 5), (15, 9)]);
    assert_eq!(diags.len(), 2);
    assert!(diags[0].message.contains("gridder_cpu"));
    assert!(diags[0].message.contains("`st` is live"));
    assert!(diags[1].message.contains("fft_subgrids"));
}

#[test]
fn l6_guard_clean_fixture_passes() {
    let diags = lint(
        "crates/kernels/src/fixture.rs",
        include_str!("fixtures/l6_guard_clean.rs"),
    );
    assert_eq!(
        diags,
        vec![],
        "drop/scope-released guards and obs counter calls are legal"
    );
}

// ---------------------------------------------------------------------------
// L7 — sync facade
// ---------------------------------------------------------------------------

#[test]
fn l7_fires_on_std_sync_imports_and_qualified_paths() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l7_violating.rs"),
    );
    assert_eq!(
        spans(&diags, Rule::L7),
        vec![(4, 16), (5, 16), (6, 22), (7, 18), (10, 24), (11, 18)]
    );
    assert_eq!(diags.len(), 6, "Arc stays legal: {diags:?}");
    assert!(diags[0].message.contains("Condvar"));
    assert!(diags[0].message.contains("idg-sync facade"));
    assert!(diags[3].message.contains("scope"));
    assert!(diags[3].message.contains("std::thread"));
}

#[test]
fn l7_clean_fixture_passes() {
    let diags = lint(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/l7_clean.rs"),
    );
    assert_eq!(
        diags,
        vec![],
        "facade imports plus std atomics/Arc/mpsc are legal"
    );
}

#[test]
fn l6_l7_exempt_the_facade_crates() {
    // `idg-sync` and `idg-mc` are the sanctioned home of the std
    // primitives; the concurrency rules must not fire there.
    for path in ["crates/sync/src/fixture.rs", "crates/mc/src/fixture.rs"] {
        let diags = lint(path, include_str!("fixtures/l7_violating.rs"));
        assert_eq!(spans(&diags, Rule::L7), vec![], "{path}");
        let diags = lint(path, include_str!("fixtures/l6_wait_violating.rs"));
        assert_eq!(spans(&diags, Rule::L6), vec![], "{path}");
    }
}

#[test]
fn model_check_gated_code_is_lint_exempt() {
    // `#[cfg(idg_model_check)]` gates verification scaffolding — the
    // seeded mutants violate L6 on purpose so the model checker can
    // demonstrate the failure, and must not trip the static rule.
    let src = "#[cfg(idg_model_check)]\nimpl S {\n    pub fn mutant(&self) {\n        \
               let mut g = self.m.lock();\n        g = self.cv.wait(g);\n    }\n}\n";
    let diags = lint("crates/stream/src/fixture.rs", src);
    assert_eq!(diags, vec![]);
}

/// L6/L7 launch with a zero-entry allowlist budget: the committed
/// allowlist must not grant either rule a single residual site.
#[test]
fn l6_l7_have_zero_allowlist_budget() {
    let allow = idg_lint::load_allowlist(&workspace_root()).expect("allowlist parses");
    assert!(
        allow
            .budgets
            .keys()
            .all(|(_, rule)| !matches!(rule, Rule::L6 | Rule::L7)),
        "L6/L7 must keep an empty allowlist budget: {:?}",
        allow.budgets
    );
}

// ---------------------------------------------------------------------------
// Diagnostic formatting and the live-workspace gate
// ---------------------------------------------------------------------------

#[test]
fn diagnostics_render_as_path_line_col_rule() {
    let diags = lint(
        "crates/kernels/src/lib.rs",
        include_str!("fixtures/l5_violating.rs"),
    );
    assert_eq!(
        diags[0].to_string(),
        "crates/kernels/src/lib.rs:1:1: [L5] library crate root lacks \
         `#![forbid(unsafe_code)]`"
    );
}

/// The meta-check: the live workspace must be clean modulo the
/// committed allowlist — exactly what `cargo run -p idg-lint` gates in
/// CI, so a drifting tree fails `cargo test` too.
#[test]
fn live_workspace_is_clean_modulo_allowlist() {
    let root = idg_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = idg_lint::run_check(&root).expect("lint pass runs");
    assert_eq!(report.status, 0, "workspace drifted:\n{}", report.text);
}

/// Workspace linting is deterministic: two passes agree span for span.
#[test]
fn workspace_lint_is_deterministic() {
    let root = idg_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let cfg = Config::workspace();
    let a = idg_lint::lint_workspace(&root, &cfg).expect("first pass");
    let b = idg_lint::lint_workspace(&root, &cfg).expect("second pass");
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_by(|x, y| {
        (&x.path, x.line, x.column, x.rule).cmp(&(&y.path, y.line, y.column, y.rule))
    });
    assert_eq!(a, sorted, "diagnostics come back path/line/column-sorted");
}
