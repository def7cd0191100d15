//! The workspace invariants this crate enforces: L3, L4 and L6 (d).
//!
//! Each rule is a pure function from a parsed file (plus the scope
//! [`Config`](crate::Config)) to diagnostics. All rules are
//! test-module-aware: nothing fires inside `#[cfg(test)]` items or
//! `#[test]`/`#[should_panic]` functions.

use crate::model::{collect_fns, contains_ident, FnItem};
use crate::{Config, Diagnostic, Rule};
use syn::{Delimiter, TokenTree};

/// Run every applicable rule on one parsed file.
pub fn lint_file(path: &str, file: &syn::File, cfg: &Config) -> Vec<Diagnostic> {
    let krate = crate_of(path);
    let mut diags = Vec::new();
    let fns = collect_fns(&file.tokens);
    if cfg.l3_crates.iter().any(|c| c == krate) {
        l3_kernel_counters(path, &fns, cfg, &mut diags);
    }
    // L4 covers every walked crate by default, so a freshly added
    // crate is in scope before anyone remembers it.
    if !cfg.l4_exempt_crates.iter().any(|c| c == krate) {
        l4_typed_errors(path, &fns, cfg, &mut diags);
    }
    l6_guard_liveness(path, &fns, &mut diags);
    diags
}

/// The crate directory name a repo-relative source path belongs to
/// (`crates/<name>/src/...` → `<name>`; the root package → `idg-repro`).
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("src") => "idg-repro",
        _ => "",
    }
}

fn diag(path: &str, t: &TokenTree, rule: Rule, message: String) -> Diagnostic {
    let span = t.span();
    Diagnostic {
        rule,
        path: path.to_string(),
        line: span.start().line,
        column: span.start().column + 1,
        message,
    }
}

// ---------------------------------------------------------------------------
// L3 — kernel ↔ observability contract
// ---------------------------------------------------------------------------

/// A kernel-entry-point naming contract: a `pub fn` whose name matches
/// `name_prefix` (exactly, or prefix + `_…`) and whose signature
/// mentions `signature_marker` must increment one of `required_any`.
pub struct KernelContract {
    /// Entry-point name prefix (`gridder` matches `gridder_cpu`…).
    pub name_prefix: &'static str,
    /// Type that must appear in the argument list for the contract to
    /// apply (filters out unrelated helpers sharing the prefix).
    pub signature_marker: &'static str,
    /// `idg-obs` counter calls, any one of which satisfies the contract.
    pub required_any: &'static [&'static str],
}

/// The kernel naming contracts enforced in `crates/kernels`/`crates/gpusim`.
pub const KERNEL_CONTRACTS: &[KernelContract] = &[
    KernelContract {
        name_prefix: "gridder",
        signature_marker: "KernelData",
        required_any: &["add_kernel"],
    },
    KernelContract {
        name_prefix: "degridder",
        signature_marker: "KernelData",
        required_any: &["add_kernel"],
    },
    KernelContract {
        name_prefix: "fft_subgrids",
        signature_marker: "SubgridArray",
        required_any: &["add_subgrids_fft", "add_subgrids_ifft"],
    },
    KernelContract {
        name_prefix: "add_subgrids",
        signature_marker: "SubgridArray",
        required_any: &["add_subgrids_added"],
    },
    KernelContract {
        name_prefix: "split_subgrids",
        signature_marker: "SubgridArray",
        required_any: &["add_subgrids_split"],
    },
    // the pass-level kernel cache: every lookup must surface as a
    // hit or a miss in the observability counters, or the proxy's
    // expected-lookup self-validation rots silently
    KernelContract {
        name_prefix: "geometry",
        signature_marker: "GeometryKey",
        required_any: &["add_cache_hits", "add_cache_misses"],
    },
    KernelContract {
        name_prefix: "phasors",
        signature_marker: "PhasorKey",
        required_any: &["add_cache_hits", "add_cache_misses"],
    },
    // the fleet health tracker: every job outcome fed to a breaker
    // must surface in the health counters, or a silent tracker makes
    // the chaos suite's "breaker observably trips" assertion vacuous
    KernelContract {
        name_prefix: "record_outcome",
        signature_marker: "JobOutcome",
        required_any: &["add_health_outcomes", "add_breaker_trips"],
    },
    // the streaming scheduler: every chunk it runs must surface in
    // the stream counters, or the soak suite's assertions go blind
    KernelContract {
        name_prefix: "run_stream",
        signature_marker: "Chunk",
        required_any: &["add_chunks_ingested", "add_backpressure_waits"],
    },
];

fn matches_prefix(name: &str, prefix: &str) -> bool {
    name == prefix
        || name
            .strip_prefix(prefix)
            .is_some_and(|r| r.starts_with('_'))
}

fn l3_kernel_counters(path: &str, fns: &[FnItem], _cfg: &Config, diags: &mut Vec<Diagnostic>) {
    for f in fns {
        if !f.is_pub || f.in_test {
            continue;
        }
        let Some(contract) = KERNEL_CONTRACTS.iter().find(|c| {
            matches_prefix(&f.name, c.name_prefix)
                && contains_ident(&f.arg_tokens, c.signature_marker)
        }) else {
            continue;
        };
        let Some(body) = &f.body else { continue };
        let direct = contract
            .required_any
            .iter()
            .any(|r| contains_ident(&body.tokens, r));
        // One level of delegation: the body calls a sibling fn in this
        // file that performs the increment (e.g. a shared `record_*` helper).
        let delegated = !direct
            && fns.iter().any(|g| {
                g.name != f.name
                    && contains_ident(&body.tokens, &g.name)
                    && g.body.as_ref().is_some_and(|b| {
                        contract
                            .required_any
                            .iter()
                            .any(|r| contains_ident(&b.tokens, r))
                    })
            });
        if !direct && !delegated {
            diags.push(Diagnostic {
                rule: Rule::L3,
                path: path.to_string(),
                line: f.line,
                column: f.column + 1,
                message: format!(
                    "kernel entry point `{}` lacks its idg-obs counter increment (one of [{}]) \
                     — the analytic≡measured contract of DESIGN.md §8 would rot silently",
                    f.name,
                    contract.required_any.join(", ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L4 — typed fallibility
// ---------------------------------------------------------------------------

/// Verb prefixes that mark a function as fallible by intent: returning
/// `Option`/`bool` from these is error-signaling without an error type.
const FALLIBLE_VERBS: &[&str] = &["try", "parse", "load", "read", "open", "write", "validate"];

fn l4_typed_errors(path: &str, fns: &[FnItem], _cfg: &Config, diags: &mut Vec<Diagnostic>) {
    for f in fns {
        if !f.is_pub || f.in_test || f.ret_tokens.is_empty() {
            continue;
        }
        let mut push = |message: String| {
            diags.push(Diagnostic {
                rule: Rule::L4,
                path: path.to_string(),
                line: f.line,
                column: f.column + 1,
                message,
            });
        };
        match outer_type(&f.ret_tokens) {
            Outer::Result { error_last_ident } => {
                if error_last_ident.as_deref() != Some("IdgError") {
                    push(format!(
                        "pub fn `{}` returns Result<_, {}> — library errors must be IdgError",
                        f.name,
                        error_last_ident.as_deref().unwrap_or("?")
                    ));
                }
            }
            Outer::BareResult { fmt_alias } => {
                if !fmt_alias {
                    push(format!(
                        "pub fn `{}` returns a bare `Result` alias — spell the error type \
                         (IdgError) out",
                        f.name
                    ));
                }
            }
            Outer::Option | Outer::Bool => {
                let fallible = FALLIBLE_VERBS.iter().any(|v| matches_prefix(&f.name, v));
                if fallible {
                    push(format!(
                        "pub fn `{}` signals failure via {} — return Result<_, IdgError>",
                        f.name,
                        if matches!(outer_type(&f.ret_tokens), Outer::Bool) {
                            "bool"
                        } else {
                            "Option"
                        }
                    ));
                }
            }
            Outer::Other => {}
        }
    }
}

enum Outer {
    Result { error_last_ident: Option<String> },
    BareResult { fmt_alias: bool },
    Option,
    Bool,
    Other,
}

/// Classify the outermost type of a return-type token run.
fn outer_type(ret: &[TokenTree]) -> Outer {
    // Path head: idents separated by `::` up to the first `<` (or end).
    let mut head: Vec<&str> = Vec::new();
    let mut lt = None;
    for (i, t) in ret.iter().enumerate() {
        match t {
            TokenTree::Ident(id) if id.text == "dyn" || id.text == "impl" => return Outer::Other,
            TokenTree::Ident(id) => head.push(id.text.as_str()),
            TokenTree::Punct(p) if p.ch == ':' => {}
            TokenTree::Punct(p) if p.ch == '<' => {
                lt = Some(i);
                break;
            }
            TokenTree::Punct(p) if p.ch == '&' => {} // references to the payload
            _ => return Outer::Other,
        }
    }
    let Some(name) = head.last() else {
        return Outer::Other;
    };
    match (*name, lt) {
        ("bool", None) => Outer::Bool,
        ("Result", None) => Outer::BareResult {
            fmt_alias: head.contains(&"fmt"),
        },
        ("Option", Some(_)) => Outer::Option,
        ("Result", Some(open)) => {
            // Find the last top-level comma inside the angle brackets.
            let mut depth = 0i32;
            let mut last_comma = None;
            let mut end = ret.len();
            for (i, t) in ret.iter().enumerate().skip(open) {
                match t {
                    TokenTree::Punct(p) if p.ch == '<' => depth += 1,
                    TokenTree::Punct(p) if p.ch == '>' => {
                        let arrow = matches!(
                            ret.get(i.wrapping_sub(1)),
                            Some(TokenTree::Punct(d)) if d.ch == '-' && d.joint
                        );
                        if !arrow {
                            depth -= 1;
                            if depth == 0 {
                                end = i;
                                break;
                            }
                        }
                    }
                    TokenTree::Punct(p) if p.ch == ',' && depth == 1 => last_comma = Some(i),
                    _ => {}
                }
            }
            let error_last_ident = last_comma.and_then(|c| {
                ret[c + 1..end].iter().rev().find_map(|t| match t {
                    TokenTree::Ident(id) => Some(id.text.clone()),
                    _ => None,
                })
            });
            Outer::Result { error_last_ident }
        }
        _ => Outer::Other,
    }
}

// ---------------------------------------------------------------------------
// L6 — lock discipline
// ---------------------------------------------------------------------------

/// Guard-producing acquisition methods on the facade primitives.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Kernel entry-point name prefixes (the launch subset of the L3
/// marker set, [`KERNEL_CONTRACTS`]) that must never run while a lock
/// guard binding is live: the kernels fan out across rayon workers and
/// a guard held across the launch serializes — or deadlocks — the
/// fleet.
const LAUNCH_PREFIXES: &[&str] = &[
    "gridder",
    "degridder",
    "fft_subgrids",
    "add_subgrids",
    "split_subgrids",
];

/// Is `toks[i]` an identifier in method-call position (`.ident(...)`)?
fn is_method_call(toks: &[TokenTree], i: usize) -> bool {
    matches!(toks.get(i.wrapping_sub(1)), Some(TokenTree::Punct(p)) if p.ch == '.')
        && matches!(
            toks.get(i + 1),
            Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
        )
}

/// Sub-rule (d): guard liveness across kernel launches. A `let` binding
/// whose initializer acquires a facade guard keeps it live to the end
/// of its scope (or an explicit `drop(name)`); launching a kernel entry
/// point with any guard live is flagged. `idg_obs::`-qualified counter
/// calls share the `add_subgrids` prefix but are bookkeeping, not
/// launches, and are excluded.
fn l6_guard_liveness(path: &str, fns: &[FnItem], diags: &mut Vec<Diagnostic>) {
    for f in fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.body else { continue };
        scan_guard_scope(&body.tokens, &[], path, diags);
    }
}

fn scan_guard_scope(
    toks: &[TokenTree],
    live_in: &[String],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let mut live: Vec<String> = live_in.to_vec();
    // A guard binding becomes live at its statement's `;`, not inside
    // the initializer expression itself.
    let mut pending: Option<String> = None;
    let mut skip_fn_body = false;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Ident(id) if id.text == "fn" => {
                skip_fn_body = true;
                i += 1;
            }
            TokenTree::Ident(id) if id.text == "let" => {
                let mut j = i + 1;
                if matches!(toks.get(j), Some(TokenTree::Ident(m)) if m.text == "mut") {
                    j += 1;
                }
                if let Some(TokenTree::Ident(name)) = toks.get(j) {
                    let mut k = j + 1;
                    while k < toks.len() {
                        match &toks[k] {
                            TokenTree::Punct(p) if p.ch == ';' => break,
                            TokenTree::Ident(m)
                                if ACQUIRE_METHODS.contains(&m.text.as_str())
                                    && is_method_call(toks, k) =>
                            {
                                pending = Some(name.text.clone());
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                i += 1;
            }
            TokenTree::Ident(id) if id.text == "drop" => {
                if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                    if g.delimiter == Delimiter::Parenthesis {
                        if let [TokenTree::Ident(name)] = g.tokens.as_slice() {
                            live.retain(|n| n != &name.text);
                        }
                    }
                }
                i += 1;
            }
            TokenTree::Punct(p) if p.ch == ';' => {
                if let Some(name) = pending.take() {
                    live.push(name);
                }
                skip_fn_body = false;
                i += 1;
            }
            TokenTree::Group(g) => {
                if g.delimiter == Delimiter::Brace && skip_fn_body {
                    skip_fn_body = false;
                } else {
                    scan_guard_scope(&g.tokens, &live, path, diags);
                }
                i += 1;
            }
            TokenTree::Ident(id) => {
                let launches = LAUNCH_PREFIXES.iter().any(|p| matches_prefix(&id.text, p));
                let called = matches!(
                    toks.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                );
                let declared = matches!(toks.get(i.wrapping_sub(1)), Some(TokenTree::Ident(p)) if p.text == "fn");
                let obs_counter = matches!(
                    toks.get(i.wrapping_sub(1)),
                    Some(TokenTree::Punct(p)) if p.ch == ':'
                ) && matches!(
                    toks.get(i.wrapping_sub(3)),
                    Some(TokenTree::Ident(q)) if q.text == "idg_obs"
                );
                if launches && called && !declared && !obs_counter {
                    if let Some(guard) = live.first() {
                        diags.push(diag(
                            path,
                            &toks[i],
                            Rule::L6,
                            format!(
                                "kernel entry `{}` launched while lock guard `{}` is live — \
                                 release the guard before the launch (DESIGN.md §13)",
                                id.text, guard
                            ),
                        ));
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}
