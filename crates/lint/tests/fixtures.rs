//! Fixture coverage for the rules `idg-lint` carries (L3, L4, L6): one
//! violating and one clean file per rule, asserted down to the exact
//! `line:column` spans, plus the scoping behavior (L3/L4 crate lists),
//! the live-workspace meta-check that mirrors the CI gate, and the
//! manifest check that keeps every crate under `[workspace.lints]`.

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
// L6 — lock discipline
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    idg_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
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
// Diagnostic formatting and the live-workspace gate
// ---------------------------------------------------------------------------

#[test]
fn diagnostics_render_as_path_line_col_rule() {
    let diags = lint(
        "crates/plan/src/fixture.rs",
        include_str!("fixtures/l4_violating.rs"),
    );
    assert_eq!(
        diags[0].to_string(),
        "crates/plan/src/fixture.rs:3:5: [L4] pub fn `parse_scale` signals failure via \
         Option — return Result<_, IdgError>"
    );
}

/// The meta-check: the live workspace draws no diagnostic — exactly
/// what `cargo run -p idg-lint` gates in CI, so a drifting tree fails
/// `cargo test` too.
#[test]
fn live_workspace_has_zero_diagnostics() {
    let diags =
        idg_lint::lint_workspace(&workspace_root(), &Config::workspace()).expect("lint pass runs");
    assert_eq!(diags, vec![], "workspace drifted");
}

/// Rule L5 is `unsafe_code = "forbid"` in the root `[workspace.lints]`
/// table, and the clippy set lives there too: a crate whose manifest
/// does not inherit the table escapes both, silently.
#[test]
fn every_crate_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(entry.expect("dir entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest is readable");
        let mut lines = text.lines().map(str::trim);
        let inherits = lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true");
        assert!(
            inherits,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
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
