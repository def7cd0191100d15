//! # idg-lint — the three workspace invariants no standard tool can state
//!
//! The paper's headline claims rest on numerical discipline (the f32
//! kernels must track the f64 reference) and on operation accounting
//! that the observability layer (DESIGN.md §8) validates *at runtime*.
//! The *static* half of that contract is seven rules, L1–L7 (DESIGN.md
//! §9). Four of them are rustc and clippy lints and are switched on
//! where those tools read their configuration — L1 panic freedom, L2
//! numeric discipline and L7 the sync facade in the `cargo lint` alias
//! (`.cargo/config.toml`, `clippy.toml`), L5 as `unsafe_code = "forbid"`
//! in `[workspace.lints]`. This crate is a `syn`-based pass over every
//! library source file for the three that are about *this* code base,
//! with `file:line:col` diagnostics:
//!
//! * **L3 — kernel ↔ observability contract**: every kernel entry point
//!   in `crates/kernels`/`crates/gpusim` must increment its `idg-obs`
//!   counter, so the analytic≡measured validation cannot rot when a new
//!   kernel is added.
//! * **L4 — typed fallibility**: `pub fn`s that fail do so through
//!   `Result<_, IdgError>` — no foreign error types, no
//!   `Option`/`bool`-as-error on fallibly-named functions.
//! * **L6 — lock discipline**: (d) no kernel entry point launched
//!   while a lock guard binding is live. (Sub-rule (a), `Condvar::wait`
//!   only inside a predicate re-check loop, lost its subject in PR 23:
//!   the `idg-sync` facade has no condvar and `clippy.toml` bans the
//!   std one; (b), raw `.lock().unwrap()` acquisitions, is
//!   `clippy::unwrap_used`; (c), lock order, lost its subject in PR 15.)
//!
//! Run as `cargo run -p idg-lint`: exit 1 on any diagnostic. There is
//! no allowlist; a site that must stay is rewritten or the rule is.

pub mod model;
pub mod rules;
pub mod walk;

use std::path::Path;

/// Identifier of one lint rule.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Kernel ↔ observability counter contract.
    L3,
    /// Typed fallibility (`Result<_, IdgError>`).
    L4,
    /// Lock discipline, sub-rule (d): guard liveness across kernel
    /// launches.
    L6,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L6 => "L6",
        })
    }
}

/// One violation, anchored to a source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative, `/`-separated source path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.column, self.rule, self.message
        )
    }
}

/// Failures of the lint pass itself (not rule violations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// Filesystem failure.
    Io {
        /// Offending path.
        path: String,
        /// OS error description.
        message: String,
    },
    /// A source file did not lex (span-aware).
    Parse {
        /// Offending path.
        path: String,
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// Lexer error description.
        message: String,
    },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            LintError::Parse {
                path,
                line,
                column,
                message,
            } => write!(f, "{path}:{line}:{column}: parse error: {message}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Rule scoping for a workspace. [`Config::workspace`] is the committed
/// policy; fixture tests construct narrower ones.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates under the L3 kernel-counter contract.
    pub l3_crates: Vec<String>,
    /// Crates exempt from L4 (dev tooling with its own error type).
    pub l4_exempt_crates: Vec<String>,
}

impl Config {
    /// The committed workspace policy.
    pub fn workspace() -> Self {
        Config {
            l3_crates: vec![
                "kernels".to_string(),
                "gpusim".to_string(),
                "stream".to_string(),
            ],
            // lint has its own error type; mc mirrors std::thread's
            // API, where join's error *is* the panic payload.
            l4_exempt_crates: vec!["lint".to_string(), "mc".to_string()],
        }
    }
}

/// Lint one source file. `path` is the repo-relative path used for
/// scoping (which crate) and diagnostics.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Result<Vec<Diagnostic>, LintError> {
    let file = syn::parse_file(src).map_err(|e| LintError::Parse {
        path: path.to_string(),
        line: e.span.line,
        column: e.span.column + 1,
        message: e.message,
    })?;
    Ok(rules::lint_file(path, &file, cfg))
}

/// Lint every library source under `root`. Diagnostics come back sorted
/// by path, then line, then column, then rule — deterministically.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, LintError> {
    let mut diags = Vec::new();
    for rel in walk::workspace_sources(root)? {
        let full = root.join(&rel);
        let src = std::fs::read_to_string(&full).map_err(|e| LintError::Io {
            path: rel.clone(),
            message: e.to_string(),
        })?;
        diags.extend(lint_source(&rel, &src, cfg)?);
    }
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
    });
    Ok(diags)
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
