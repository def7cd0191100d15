//! `idg-lint` CLI: the workspace static-analysis gate (rule L4; the
//! other rules of DESIGN.md §9 are `cargo lint` and rustc).
//!
//! ```text
//! cargo run -p idg-lint             # CI mode: exit 1 on any diagnostic
//! cargo run -p idg-lint -- --list   # print every diagnostic, exit 0
//! ```
//!
//! Exit codes: 0 clean, 1 at least one diagnostic, 2 the pass itself
//! failed (unreadable file, parse error).

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut list = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => list = true,
            "--help" | "-h" => {
                println!(
                    "idg-lint — workspace static analysis (rule L4; DESIGN.md §9)\n\n\
                     USAGE: cargo run -p idg-lint [-- --list]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("idg-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("idg-lint: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = idg_lint::find_workspace_root(&cwd) else {
        eprintln!("idg-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };

    match idg_lint::lint_workspace(&root) {
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("idg-lint: {} diagnostic(s)", diags.len());
            if list || diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("idg-lint: {e}");
            ExitCode::from(2)
        }
    }
}
