//! Workspace source discovery.
//!
//! The lint scope is every *library* source file: `crates/*/src/**/*.rs`
//! plus the root package's `src/**/*.rs`. Exempt by policy:
//!
//! * `crates/bench` — the figure/bench harness (binaries, not library;
//!   also the one package the `cargo lint` alias excludes);
//! * `shims/*` — offline stand-ins for external dependencies: L4 is
//!   about this code base's errors (the clippy half of DESIGN.md §9
//!   does cover the shims);
//! * `tests/`, `benches/`, `examples/` everywhere.

use crate::LintError;
use std::path::{Path, PathBuf};

/// Crate directories under `crates/` that are exempt from the scan.
const EXEMPT_CRATES: &[&str] = &["bench"];

/// Discover all lintable sources under `root`, returned as
/// repo-relative, `/`-separated paths in deterministic sorted order.
pub fn workspace_sources(root: &Path) -> Result<Vec<String>, LintError> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    for entry in read_dir_sorted(&crates_dir)? {
        let name = entry
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if EXEMPT_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = entry.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut out)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let mut s = String::new();
            for comp in rel.components() {
                if !s.is_empty() {
                    s.push('/');
                }
                s.push_str(&comp.as_os_str().to_string_lossy());
            }
            out.push(s);
        }
    }
    Ok(())
}
