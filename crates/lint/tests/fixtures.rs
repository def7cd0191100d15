//! Fixture coverage for the rule `idg-lint` carries (L4): one
//! violating and one clean file, asserted down to the exact
//! `line:column` spans, plus the scoping behavior (the L4 exemption),
//! the live-workspace meta-check that mirrors the CI gate, and the
//! manifest check that keeps every crate under `[workspace.lints]`.

use idg_lint::{lint_source, Diagnostic, Rule};

/// Lint a fixture as if it lived at `path` in the workspace.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(path, src).expect("fixture parses")
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
// Diagnostic formatting and the live-workspace gate
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    idg_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

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
    let diags = idg_lint::lint_workspace(&workspace_root()).expect("lint pass runs");
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
    let a = idg_lint::lint_workspace(&root).expect("first pass");
    let b = idg_lint::lint_workspace(&root).expect("second pass");
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_by(|x, y| {
        (&x.path, x.line, x.column, x.rule).cmp(&(&y.path, y.line, y.column, y.rule))
    });
    assert_eq!(a, sorted, "diagnostics come back path/line/column-sorted");
}
