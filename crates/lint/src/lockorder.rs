//! The declared lock-order hierarchy (`tools/lock-order.toml`).
//!
//! L6 sub-rule (c) needs to know which locks the workspace considers
//! ordered and in what order. That policy is data, not code: it lives
//! in a committed config file in the same hand-rolled TOML subset as
//! the allowlist, one `[[class]]` table per hierarchy level,
//! outermost-first:
//!
//! ```toml
//! [[class]]
//! name = "gate"
//! idents = ["GATE"]
//!
//! [[class]]
//! name = "table"
//! idents = ["TABLE", "lock_table"]
//! ```
//!
//! A lock in a *later* class may be acquired while one from an
//! *earlier* class is held, never the reverse. `idents` are the
//! spelled acquisition sites the rule recognizes: static/field names
//! acquired as `IDENT.lock()` (or `.read()`/`.write()`), and helper
//! functions called as `ident()` that acquire the class's lock on the
//! caller's behalf.

use crate::LintError;

/// One level of the declared hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockClass {
    /// Human-readable class name used in diagnostics.
    pub name: String,
    /// Identifiers whose acquisition belongs to this class.
    pub idents: Vec<String>,
}

/// Parse the committed lock-order file. Classes come back in file
/// order, which *is* the hierarchy order.
pub fn parse_lock_order(text: &str) -> Result<Vec<LockClass>, LintError> {
    let mut classes: Vec<LockClass> = Vec::new();
    let mut cur: Option<(Option<String>, Option<Vec<String>>)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let bad = |msg: &str| LintError::LockOrder {
            line: lineno + 1,
            message: msg.to_string(),
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[class]]" {
            finish_class(&mut cur, &mut classes, lineno)?;
            cur = Some((None, None));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(bad("expected `key = value`"));
        };
        let entry = cur.as_mut().ok_or_else(|| bad("value outside [[class]]"))?;
        let value = value.trim();
        match key.trim() {
            "name" => entry.0 = Some(unquote(value).ok_or_else(|| bad("bad name string"))?),
            "idents" => {
                entry.1 = Some(parse_string_array(value).ok_or_else(|| bad("bad idents array"))?);
            }
            _ => return Err(bad("unknown key")),
        }
    }
    let last_line = text.lines().count();
    finish_class(&mut cur, &mut classes, last_line)?;
    Ok(classes)
}

fn finish_class(
    cur: &mut Option<(Option<String>, Option<Vec<String>>)>,
    classes: &mut Vec<LockClass>,
    lineno: usize,
) -> Result<(), LintError> {
    let Some((name, idents)) = cur.take() else {
        return Ok(());
    };
    match (name, idents) {
        (Some(name), Some(idents)) if !idents.is_empty() => {
            classes.push(LockClass { name, idents });
            Ok(())
        }
        _ => Err(LintError::LockOrder {
            line: lineno,
            message: "incomplete [[class]] entry (need name and non-empty idents)".to_string(),
        }),
    }
}

fn unquote(v: &str) -> Option<String> {
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('\\') || inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| unquote(item.trim()))
        .collect::<Option<Vec<_>>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_classes_in_hierarchy_order() {
        let classes = parse_lock_order(
            "# order\n[[class]]\nname = \"a\"\nidents = [\"A\"]\n\n[[class]]\n\
             name = \"b\"\nidents = [\"B\", \"lock_b\"]\n",
        )
        .expect("parses");
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "a");
        assert_eq!(
            classes[1].idents,
            vec!["B".to_string(), "lock_b".to_string()]
        );
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(parse_lock_order("name = \"a\"\n").is_err());
        assert!(parse_lock_order("[[class]]\nname = \"a\"\n").is_err());
        assert!(parse_lock_order("[[class]]\nname = \"a\"\nidents = []\n").is_err());
        assert!(parse_lock_order("[[class]]\nname = \"a\"\nidents = [A]\n").is_err());
    }
}
