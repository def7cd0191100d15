//! The workspace invariant this crate enforces: L4.
//!
//! The rule is a pure function from a parsed file to diagnostics. It is
//! test-module-aware: nothing fires inside `#[cfg(test)]` items or
//! `#[test]`/`#[should_panic]` functions.

use crate::model::{collect_fns, FnItem};
use crate::{Diagnostic, Rule};
use syn::TokenTree;

/// Crates exempt from L4: dev tooling with its own error type.
const L4_EXEMPT_CRATES: &[&str] = &["lint"];

/// Run every applicable rule on one parsed file.
pub fn lint_file(path: &str, file: &syn::File) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let fns = collect_fns(&file.tokens);
    // L4 covers every walked crate by default, so a freshly added
    // crate is in scope before anyone remembers it.
    if !L4_EXEMPT_CRATES.contains(&crate_of(path)) {
        l4_typed_errors(path, &fns, &mut diags);
    }
    diags
}

/// The crate directory name a repo-relative source path belongs to
/// (`crates/<name>/src/...` → `<name>`; the root package → `idg-repro`).
fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("src") => "idg-repro",
        _ => "",
    }
}

fn matches_prefix(name: &str, prefix: &str) -> bool {
    name == prefix
        || name
            .strip_prefix(prefix)
            .is_some_and(|r| r.starts_with('_'))
}

// ---------------------------------------------------------------------------
// L4 — typed fallibility
// ---------------------------------------------------------------------------

/// Verb prefixes that mark a function as fallible by intent: returning
/// `Option`/`bool` from these is error-signaling without an error type.
const FALLIBLE_VERBS: &[&str] = &["try", "parse", "load", "read", "open", "write", "validate"];

fn l4_typed_errors(path: &str, fns: &[FnItem], diags: &mut Vec<Diagnostic>) {
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
