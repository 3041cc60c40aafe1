//! Source-file model: a lexed file plus the context rules need — which
//! crate it belongs to, what role it plays (lib / bin / test / example), and
//! which token regions are `#[cfg(test)]`-only code that the determinism
//! rules deliberately ignore.

use crate::lexer::{lex, Tok, TokKind};

/// The role a source file plays in its crate; most rules only apply to
/// library code, where the determinism and no-panic invariants are load-
/// bearing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — the code the invariants protect.
    Lib,
    /// A binary under `src/bin/` or `src/main.rs` (CLI drivers).
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Examples under `examples/`.
    Example,
}

/// A lexed source file with its workspace context.
#[derive(Debug)]
pub struct SourceFile {
    /// The first-party crate the file belongs to (`simnet`, `dsm`, …).
    pub crate_name: String,
    /// Repo-relative path with forward slashes
    /// (`crates/simnet/src/sim.rs`).
    pub rel_path: String,
    /// The file's role.
    pub kind: FileKind,
    /// The raw source lines (for allowlist needle matching and output).
    pub lines: Vec<String>,
    /// The lexed token stream.
    pub toks: Vec<Tok>,
    /// Parallel to `toks`: whether the token sits inside a
    /// `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Lex `text` into a source-file model.
    pub fn new(crate_name: &str, rel_path: &str, kind: FileKind, text: &str) -> SourceFile {
        let toks = lex(text);
        let in_test = mark_cfg_test_regions(&toks);
        SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            kind,
            lines: text.lines().map(str::to_string).collect(),
            toks,
            in_test,
        }
    }

    /// The text of a 1-based source line (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Token-index spans `[start, end]` (inclusive) of the bodies of every
    /// non-test function named in `names`. The span covers the tokens
    /// between the body's braces, braces excluded.
    pub fn fn_body_spans(&self, names: &[&str]) -> Vec<(String, usize, usize)> {
        let mut spans = Vec::new();
        let toks = &self.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("fn")
                && !self.in_test[i]
                && i + 1 < toks.len()
                && toks[i + 1].kind == TokKind::Ident
                && names.contains(&toks[i + 1].text.as_str())
            {
                let name = toks[i + 1].text.clone();
                // The body starts at the first `{` outside the parameter
                // parentheses (return types never contain a bare `{`).
                let mut paren = 0i32;
                let mut j = i + 2;
                let mut body_start = None;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('(') => paren += 1,
                        TokKind::Punct(')') => paren -= 1,
                        // A trait-default-less declaration ends without a
                        // body.
                        TokKind::Punct(';') if paren == 0 => break,
                        TokKind::Punct('{') if paren == 0 => {
                            body_start = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = body_start {
                    let mut depth = 0i32;
                    let mut k = open;
                    while k < toks.len() {
                        match toks[k].kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    spans.push((name, open + 1, k.saturating_sub(1)));
                    i = k;
                }
            }
            i += 1;
        }
        spans
    }
}

/// Mark every token that sits inside an item annotated `#[cfg(test)]`
/// (or any `cfg` attribute mentioning `test`, e.g. `cfg(all(test, …))`).
fn mark_cfg_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let (attr_end, is_test_cfg) = scan_attribute(toks, i + 1);
            if is_test_cfg {
                // Skip any further attributes stacked on the same item.
                let mut j = attr_end + 1;
                while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                    let (e, _) = scan_attribute(toks, j + 1);
                    j = e + 1;
                }
                // The item extends to its matching `}` (brace-delimited
                // items) or to the first top-level `;` (use items, etc.).
                let mut paren = 0i32;
                let mut brace = 0i32;
                let mut k = j;
                let mut end = toks.len().saturating_sub(1);
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('(') => paren += 1,
                        TokKind::Punct(')') => paren -= 1,
                        TokKind::Punct('{') => brace += 1,
                        TokKind::Punct('}') => {
                            brace -= 1;
                            if brace == 0 {
                                end = k;
                                break;
                            }
                        }
                        TokKind::Punct(';') if paren == 0 && brace == 0 => {
                            end = k;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Scan an attribute starting at its `[` token; returns the index of the
/// matching `]` and whether the attribute is a `cfg(…)` whose argument
/// mentions `test`.
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_cfg = false;
    let mut mentions_test = false;
    let mut k = open;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (k, is_cfg && mentions_test);
                }
            }
            TokKind::Ident => {
                if toks[k].text == "cfg" {
                    is_cfg = true;
                } else if toks[k].text == "test" {
                    mentions_test = true;
                }
            }
            _ => {}
        }
        k += 1;
    }
    (toks.len().saturating_sub(1), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
            fn also_live() {}
        ";
        let f = SourceFile::new("simnet", "crates/simnet/src/x.rs", FileKind::Lib, src);
        let marked: Vec<&str> = f
            .toks
            .iter()
            .zip(&f.in_test)
            .filter(|(t, &m)| m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(marked.contains(&"t"));
        assert!(!marked.contains(&"live"));
        assert!(!marked.contains(&"also_live"));
    }

    #[test]
    fn fn_body_spans_cover_the_braced_body() {
        let src = "
            fn other() { a(); }
            fn target(x: usize) -> Result<(), ()> { body_marker(); Ok(()) }
        ";
        let f = SourceFile::new("simnet", "crates/simnet/src/x.rs", FileKind::Lib, src);
        let spans = f.fn_body_spans(&["target"]);
        assert_eq!(spans.len(), 1);
        let (name, s, e) = (&spans[0].0, spans[0].1, spans[0].2);
        assert_eq!(name, "target");
        let inside: Vec<&str> = f.toks[s..=e]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(inside.contains(&"body_marker"));
        assert!(!inside.contains(&"a"));
    }

    #[test]
    fn test_fns_are_excluded_from_spans() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn target() { hidden(); }
            }
        ";
        let f = SourceFile::new("simnet", "crates/simnet/src/x.rs", FileKind::Lib, src);
        assert!(f.fn_body_spans(&["target"]).is_empty());
    }
}
