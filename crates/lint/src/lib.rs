//! # idg-lint — workspace static analysis with span-level invariant ratchets
//!
//! The paper's headline claims rest on numerical discipline (the f32
//! kernels must track the f64 reference) and on operation accounting
//! that the observability layer (DESIGN.md §8) validates *at runtime*.
//! This crate is the *static* half of that contract: a `syn`-based pass
//! over every library source file enforcing five domain invariants with
//! `file:line:col` diagnostics and a committed, shrink-only allowlist
//! (`tools/lint-allowlist.toml`):
//!
//! * **L1 — panic freedom**: no `.unwrap()` / `.expect()` /
//!   `panic!`-family macros in library code, and no unchecked indexing
//!   in input-boundary modules; fallible paths return typed
//!   [`IdgError`](../idg_types) values. Subsumes the old
//!   `tools/panic_audit.sh` grep ratchet, now comment-, string- and
//!   test-module-aware via the token tree.
//! * **L2 — numeric discipline**: no float `==`/`!=` against literals,
//!   and no precision-losing `as` casts in the numeric-core crates
//!   outside named narrowing helpers.
//! * **L3 — kernel ↔ observability contract**: every kernel entry point
//!   in `crates/kernels`/`crates/gpusim` must increment its `idg-obs`
//!   counter, so the analytic≡measured validation cannot rot when a new
//!   kernel is added.
//! * **L4 — typed fallibility**: `pub fn`s that fail do so through
//!   `Result<_, IdgError>` — no foreign error types, no
//!   `Option`/`bool`-as-error on fallibly-named functions.
//! * **L5 — `#![forbid(unsafe_code)]`** in every library crate root.
//! * **L6 — lock discipline**: `Condvar::wait` only directly inside a
//!   `while`/`loop` body where its predicate is re-checked; no raw
//!   poison-panicking `.lock().unwrap()`-style acquisitions; and no
//!   kernel entry point launched while a lock guard binding is live.
//! * **L7 — sync facade**: concurrency primitives (`Mutex`, `Condvar`,
//!   `RwLock`, `thread::scope`) come from the `idg-sync` facade, never
//!   `std::sync`/`std::thread` directly — the facade is what lets the
//!   model checker (`idg-mc`) take over every primitive under
//!   `--cfg idg_model_check`. The facade crates themselves (`sync`,
//!   `mc`) are the one sanctioned home of the std primitives and are
//!   exempt.
//!
//! Run as `cargo run -p idg-lint` (CI mode; non-zero on any drift in
//! either direction) or `cargo run -p idg-lint -- --update-allowlist`
//! after shrinking the residue. L6/L7 launched with a zero-entry
//! allowlist budget: no residual sites existed, so none may appear.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod model;
pub mod rules;
pub mod walk;

use allowlist::Allowlist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Identifier of one lint rule.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Panic freedom in library code.
    L1,
    /// Numeric discipline (float equality, narrowing casts).
    L2,
    /// Kernel ↔ observability counter contract.
    L3,
    /// Typed fallibility (`Result<_, IdgError>`).
    L4,
    /// `#![forbid(unsafe_code)]` in crate roots.
    L5,
    /// Lock discipline (wait-in-loop, facade acquisition, lock order,
    /// guard liveness across kernel launches).
    L6,
    /// Sync facade: concurrency primitives from `idg-sync`, not std.
    L7,
}

impl Rule {
    /// Parse a rule name as serialized in the allowlist.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "L1" => Some(Rule::L1),
            "L2" => Some(Rule::L2),
            "L3" => Some(Rule::L3),
            "L4" => Some(Rule::L4),
            "L5" => Some(Rule::L5),
            "L6" => Some(Rule::L6),
            "L7" => Some(Rule::L7),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
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
    /// The committed allowlist is malformed.
    Allowlist {
        /// 1-based line in `tools/lint-allowlist.toml`.
        line: usize,
        /// Parse error description.
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
            LintError::Allowlist { line, message } => {
                write!(f, "tools/lint-allowlist.toml:{line}: {message}")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Rule scoping for a workspace. [`Config::workspace`] is the committed
/// policy; fixture tests construct narrower ones.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files where L1 additionally flags unchecked indexing (modules
    /// that parse externally-controlled bytes).
    pub boundary_index_files: Vec<String>,
    /// Crates whose narrowing `as` casts L2 polices (the numeric core).
    pub l2_cast_crates: Vec<String>,
    /// Function names allowed to narrow (the named helpers).
    pub narrowing_helpers: Vec<String>,
    /// Crates under the L3 kernel-counter contract.
    pub l3_crates: Vec<String>,
    /// Crates exempt from L4 (dev tooling with its own error type).
    pub l4_exempt_crates: Vec<String>,
    /// Crates exempt from L6/L7: the sync facade and the model checker
    /// are the sanctioned home of the raw std primitives.
    pub sync_exempt_crates: Vec<String>,
}

impl Config {
    /// The committed workspace policy.
    pub fn workspace() -> Self {
        Config {
            boundary_index_files: vec!["crates/telescope/src/io.rs".to_string()],
            l2_cast_crates: vec!["kernels".to_string(), "fft".to_string(), "math".to_string()],
            narrowing_helpers: vec![
                "from_f64".to_string(),
                "from_usize".to_string(),
                "cast".to_string(),
                "narrow_f32".to_string(),
            ],
            l3_crates: vec![
                "kernels".to_string(),
                "gpusim".to_string(),
                "stream".to_string(),
            ],
            // lint has its own error type; mc mirrors std::thread's
            // API, where join's error *is* the panic payload.
            l4_exempt_crates: vec!["lint".to_string(), "mc".to_string()],
            sync_exempt_crates: vec!["sync".to_string(), "mc".to_string()],
        }
    }
}

/// Lint one source file. `path` is the repo-relative path used for
/// scoping (which crate, boundary file, crate root) and diagnostics.
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

/// Aggregate diagnostics into per-`(path, rule)` counts.
pub fn count_by_key(diags: &[Diagnostic]) -> BTreeMap<allowlist::Key, usize> {
    let mut counts: BTreeMap<allowlist::Key, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry((d.path.clone(), d.rule)).or_insert(0) += 1;
    }
    counts
}

/// Outcome of a CI-mode run: the report text and the process exit code.
#[derive(Clone, Debug)]
pub struct Report {
    /// Human-readable report (diagnostics + summary), deterministic.
    pub text: String,
    /// 0 = clean (modulo allowlist), 1 = drift in either direction.
    pub status: i32,
}

/// Compare workspace diagnostics against the committed allowlist.
///
/// Both directions fail: counts above budget list every offending span;
/// counts below budget demand a ratchet update so the fix is locked in.
pub fn check_against_allowlist(diags: &[Diagnostic], allow: &Allowlist) -> Report {
    let counts = count_by_key(diags);
    let mut text = String::new();
    let mut status = 0;
    // Over-budget keys, in (path, rule) order with every span listed.
    for (key, &actual) in &counts {
        let budget = allow.budgets.get(key).copied().unwrap_or(0);
        if actual > budget {
            status = 1;
            for d in diags
                .iter()
                .filter(|d| (&d.path, d.rule) == (&key.0, key.1))
            {
                let _ = writeln!(text, "{d}");
            }
            let _ = writeln!(
                text,
                "idg-lint: {}: {} {} site(s), allowlisted {}",
                key.0, actual, key.1, budget
            );
        }
    }
    // Under-budget keys: the ratchet must shrink.
    for (key, &budget) in &allow.budgets {
        let actual = counts.get(key).copied().unwrap_or(0);
        if actual < budget {
            status = 1;
            let _ = writeln!(
                text,
                "idg-lint: {}: allowlist grants {} {} site(s) but only {} remain — run \
                 `cargo run -p idg-lint -- --update-allowlist` to ratchet down",
                key.0, budget, key.1, actual
            );
        }
    }
    if status == 0 {
        let _ = writeln!(
            text,
            "idg-lint: ok ({} residual site(s) within the {}-entry allowlist)",
            counts.values().sum::<usize>(),
            allow.budgets.len()
        );
    }
    Report { text, status }
}

/// Path of the committed allowlist below the workspace root.
pub const ALLOWLIST_PATH: &str = "tools/lint-allowlist.toml";

/// Load the committed allowlist (absent file = empty budgets).
pub fn load_allowlist(root: &Path) -> Result<Allowlist, LintError> {
    let path = root.join(ALLOWLIST_PATH);
    if !path.exists() {
        return Ok(Allowlist::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| LintError::Io {
        path: ALLOWLIST_PATH.to_string(),
        message: e.to_string(),
    })?;
    Allowlist::parse(&text)
}

/// The full CI-mode run: lint, compare, report.
pub fn run_check(root: &Path) -> Result<Report, LintError> {
    let diags = lint_workspace(root, &Config::workspace())?;
    let allow = load_allowlist(root)?;
    Ok(check_against_allowlist(&diags, &allow))
}

/// Regenerate the allowlist from the current workspace state.
pub fn run_update(root: &Path) -> Result<Report, LintError> {
    let diags = lint_workspace(root, &Config::workspace())?;
    let allow = Allowlist::from_counts(&count_by_key(&diags));
    let path = root.join(ALLOWLIST_PATH);
    std::fs::write(&path, allow.to_toml()).map_err(|e| LintError::Io {
        path: ALLOWLIST_PATH.to_string(),
        message: e.to_string(),
    })?;
    Ok(Report {
        text: format!(
            "idg-lint: allowlist regenerated ({} entries, {} residual sites)\n",
            allow.budgets.len(),
            allow.total()
        ),
        status: 0,
    })
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
