//! `idg-lint` CLI: the workspace static-analysis gate.
//!
//! ```text
//! cargo run -p idg-lint                         # CI mode: exit 1 on drift
//! cargo run -p idg-lint -- --update-allowlist   # regenerate the ratchet
//! cargo run -p idg-lint -- --list               # print every diagnostic
//! ```
//!
//! Exit codes: 0 clean (modulo allowlist), 1 rule drift in either
//! direction, 2 the pass itself failed (unreadable file, parse error,
//! malformed allowlist).

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut update = false;
    let mut list = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update-allowlist" => update = true,
            "--list" => list = true,
            "--help" | "-h" => {
                println!(
                    "idg-lint — workspace static analysis (rules L1–L7, DESIGN.md §9, §13)\n\n\
                     USAGE: cargo run -p idg-lint [-- --update-allowlist | --list]"
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

    if list {
        return match idg_lint::lint_workspace(&root, &idg_lint::Config::workspace()) {
            Ok(diags) => {
                for d in &diags {
                    println!("{d}");
                }
                println!("idg-lint: {} diagnostic(s)", diags.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("idg-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let result = if update {
        idg_lint::run_update(&root)
    } else {
        idg_lint::run_check(&root)
    };
    match result {
        Ok(report) => {
            print!("{}", report.text);
            if report.status == 0 {
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
