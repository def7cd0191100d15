//! Lightweight item recognition over `syn` token trees.
//!
//! The offline `syn` shim exposes the spanned token-tree layer (see
//! `shims/syn`); this module rebuilds the two structural facts the rules
//! need on top of it:
//!
//! * **test exemption** — which items of a file are test code
//!   (`#[cfg(test)]` items and `#[test]`/`#[should_panic]` functions),
//!   so library-only rules never fire inside tests;
//! * **function items** — every `fn` with its name, visibility,
//!   signature/return-type token runs and body group, so the contract
//!   rules (L3/L4) and guard liveness (L6) can reason per function.
//!
//! Attribute groups themselves (`#[derive(...)]`, `#[doc = "..."]`) are
//! *not* walked as expressions: their tokens are metadata, not code.

use syn::{Delimiter, Group, TokenTree};

/// Does an attribute token run (the tokens *inside* the `[...]` of an
/// attribute) mark the annotated item as lint-exempt?
///
/// Recognized: `test`, `should_panic`, `cfg(test)`, and `cfg(...)` whose
/// argument list mentions `test` anywhere (covers `cfg(any(test, ...))`).
fn attr_is_test(attr_tokens: &[TokenTree]) -> bool {
    match attr_tokens.first() {
        Some(TokenTree::Ident(i)) if i.text == "test" || i.text == "should_panic" => true,
        Some(TokenTree::Ident(i)) if i.text == "cfg" => attr_tokens.iter().any(|t| match t {
            TokenTree::Group(g) => contains_ident(&g.tokens, "test"),
            _ => false,
        }),
        _ => false,
    }
}

/// Recursively search a token run for an identifier.
pub fn contains_ident(tokens: &[TokenTree], name: &str) -> bool {
    tokens.iter().any(|t| match t {
        TokenTree::Ident(i) => i.text == name,
        TokenTree::Group(g) => contains_ident(&g.tokens, name),
        _ => false,
    })
}

/// A recognized `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Declared with `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Tokens of the argument list (inside the parentheses).
    pub arg_tokens: Vec<TokenTree>,
    /// Tokens after `->` up to the body / `where` / `;` (empty when the
    /// function returns `()` implicitly).
    pub ret_tokens: Vec<TokenTree>,
    /// The body group (absent for trait-method declarations).
    pub body: Option<Group>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based column of the `fn` keyword.
    pub column: usize,
    /// Whether the item lives in test-exempt code.
    pub in_test: bool,
}

/// Collect every `fn` item in the file, however deeply nested.
pub fn collect_fns(tokens: &[TokenTree]) -> Vec<FnItem> {
    let mut out = Vec::new();
    collect_fns_level(tokens, false, &mut out);
    out
}

fn collect_fns_level(tokens: &[TokenTree], in_test: bool, out: &mut Vec<FnItem>) {
    let mut pending_test = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.ch == '#' => {
                let inner = matches!(&tokens.get(i + 1), Some(TokenTree::Punct(q)) if q.ch == '!');
                let group_idx = if inner { i + 2 } else { i + 1 };
                if let Some(TokenTree::Group(g)) = tokens.get(group_idx) {
                    if g.delimiter == Delimiter::Bracket {
                        if attr_is_test(&g.tokens) {
                            pending_test = true;
                        }
                        i = group_idx + 1;
                        continue;
                    }
                }
                i += 1;
            }
            TokenTree::Ident(id) if id.text == "fn" => {
                let (item, next) = parse_fn(tokens, i, in_test || pending_test);
                if let Some(f) = item {
                    if let Some(body) = &f.body {
                        collect_fns_level(&body.tokens, f.in_test, out);
                    }
                    out.push(f);
                }
                pending_test = false;
                i = next;
            }
            TokenTree::Punct(p) if p.ch == ';' => {
                pending_test = false;
                i += 1;
            }
            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                collect_fns_level(&g.tokens, in_test || pending_test, out);
                pending_test = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parse one `fn` item starting at `tokens[at]` (the `fn` keyword).
/// Returns the item (None if malformed) and the index to resume at.
fn parse_fn(tokens: &[TokenTree], at: usize, in_test: bool) -> (Option<FnItem>, usize) {
    let span = tokens[at].span();
    let Some(TokenTree::Ident(name)) = tokens.get(at + 1) else {
        return (None, at + 1);
    };
    // Visibility: scan backwards over `pub`, `pub(crate)` and qualifiers
    // like `const`/`async`/`unsafe`/`extern "C"` preceding `fn`.
    let mut is_pub = false;
    let mut back = at;
    while back > 0 {
        back -= 1;
        match &tokens[back] {
            TokenTree::Ident(i)
                if matches!(i.text.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            TokenTree::Ident(i) if i.text == "pub" => {
                is_pub = true;
                break;
            }
            TokenTree::Literal(_) => {} // the "C" of `extern "C"`
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => {
                // possibly the `(crate)` of `pub(crate)` — keep looking
            }
            _ => break,
        }
    }

    let mut i = at + 2;
    // Skip generics `<...>`, arrow-aware (`Fn() -> T` bounds contain `>`
    // that must not close the list).
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.ch == '<' {
            let mut depth = 0i32;
            while i < tokens.len() {
                match &tokens[i] {
                    TokenTree::Punct(q) if q.ch == '<' => depth += 1,
                    TokenTree::Punct(q) if q.ch == '>' => {
                        // `->` inside bounds: the `>` belongs to an arrow.
                        let is_arrow = matches!(
                            tokens.get(i.wrapping_sub(1)),
                            Some(TokenTree::Punct(d)) if d.ch == '-' && d.joint
                        );
                        if !is_arrow {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    // Argument list.
    let Some(TokenTree::Group(args)) = tokens.get(i) else {
        return (None, at + 2);
    };
    if args.delimiter != Delimiter::Parenthesis {
        return (None, at + 2);
    }
    let arg_tokens = args.tokens.clone();
    i += 1;
    // Return type.
    let mut ret_tokens = Vec::new();
    if let (Some(TokenTree::Punct(d)), Some(TokenTree::Punct(gt))) =
        (tokens.get(i), tokens.get(i + 1))
    {
        if d.ch == '-' && d.joint && gt.ch == '>' {
            i += 2;
            while i < tokens.len() {
                match &tokens[i] {
                    TokenTree::Group(g) if g.delimiter == Delimiter::Brace => break,
                    TokenTree::Punct(p) if p.ch == ';' => break,
                    TokenTree::Ident(w) if w.text == "where" => break,
                    t => {
                        ret_tokens.push(t.clone());
                        i += 1;
                    }
                }
            }
        }
    }
    // Skip a where-clause if present.
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => break,
            TokenTree::Punct(p) if p.ch == ';' => break,
            _ => i += 1,
        }
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Brace => {
            i += 1;
            Some(g.clone())
        }
        _ => {
            i += 1; // the `;`
            None
        }
    };
    (
        Some(FnItem {
            name: name.text.clone(),
            is_pub,
            arg_tokens,
            ret_tokens,
            body,
            line: span.start().line,
            column: span.start().column,
            in_test,
        }),
        i,
    )
}
