//! A hand-rolled recursive-descent item parser over the [`crate::lexer`]
//! token stream.
//!
//! The semantic passes (see [`crate::passes`]) need more than a flat
//! token stream: which function a token belongs to and what type an
//! `impl` block targets. This module builds exactly that — a per-file
//! item tree of functions (with body token spans and `Type::name`
//! qualification) plus the `#[cfg(test)]`/`#[test]` spans the passes
//! skip.
//!
//! It is deliberately *not* a full Rust parser. Everything it recognizes
//! is item-shaped structure; expressions stay opaque token ranges. The
//! known approximations, which the passes inherit:
//!
//! * Closure bodies are attributed to the enclosing `fn` (no separate
//!   nodes).
//! * `fn`-pointer types (`fn(u64) -> u64`) are distinguished from
//!   definitions by the missing name.
//! * Macro bodies are scanned as plain tokens; code synthesized by
//!   `macro_rules!` expansion elsewhere is not seen.

use crate::lexer::{lex, match_close, test_spans, Tok, Token};

/// One parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Qualified name: `Type::name` inside an `impl`/`trait` block,
    /// otherwise the bare name.
    pub qual: String,
    /// Token span of the body, from the opening `{` to the closing `}`
    /// inclusive; `None` for bodyless trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the definition sits inside a `#[cfg(test)]`/`#[test]`
    /// span.
    pub in_test: bool,
}

/// The parsed representation of one source file.
#[derive(Debug, Clone)]
pub struct FileIr {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The underlying token stream.
    pub tokens: Vec<Token>,
    /// Every function definition, in source order (nested `fn`s
    /// included).
    pub fns: Vec<FnDef>,
    /// Token spans gated behind `#[cfg(test)]` / `#[test]`.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileIr {
    /// Parses `src` into a file IR.
    pub fn parse(path: &str, src: &str) -> FileIr {
        let tokens = lex(src);
        let test_spans = test_spans(&tokens);
        let mut ir = FileIr {
            path: path.to_string(),
            tokens,
            fns: Vec::new(),
            test_spans,
        };
        let end = ir.tokens.len();
        parse_items(&mut ir, 0, end, None);
        ir
    }

    /// Whether token index `i` lies in a test-gated span.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// The token ranges belonging to `fns[idx]` itself: its body span
    /// minus the body spans of any function nested inside it, so a
    /// token is attributed to exactly one function.
    pub fn own_ranges(&self, idx: usize) -> Vec<(usize, usize)> {
        let Some((start, end)) = self.fns[idx].body else {
            return Vec::new();
        };
        // Bodies of other fns strictly inside this one, in order.
        let mut holes: Vec<(usize, usize)> = self
            .fns
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != idx)
            .filter_map(|(_, f)| f.body)
            .filter(|&(s, e)| s > start && e < end)
            .collect();
        holes.sort_unstable();
        let mut out = Vec::new();
        let mut cur = start;
        for (hs, he) in holes {
            if hs > cur {
                out.push((cur, hs - 1));
            }
            cur = cur.max(he + 1);
        }
        if cur <= end {
            out.push((cur, end));
        }
        out
    }
}

/// Parses the item-level structure of `toks[start..end)`, attributing
/// functions to `impl_ty` when inside an `impl`/`trait` block.
fn parse_items(ir: &mut FileIr, start: usize, end: usize, impl_ty: Option<&str>) {
    let mut i = start;
    while i < end {
        let Some(t) = ir.tokens.get(i) else { break };
        match &t.tok {
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let (ty, body) = parse_impl_header(&ir.tokens, i + 1, end, kw == "trait");
                match body {
                    Some((open, close)) => {
                        parse_items(ir, open + 1, close, ty.as_deref());
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name { ... }` — recurse without impl context;
                // `mod name;` — nothing to do.
                match find_open_or_semi(&ir.tokens, i + 1, end) {
                    Some(Delim::Brace(open)) => match match_close(&ir.tokens, open, '{', '}') {
                        Some(close) => {
                            parse_items(ir, open + 1, close, None);
                            i = close + 1;
                        }
                        None => i = open + 1,
                    },
                    Some(Delim::Semi(s)) => i = s + 1,
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                // Guard against `fn`-pointer types: a definition is
                // always followed by its name.
                let Some(Tok::Ident(name)) = ir.tokens.get(i + 1).map(|t| &t.tok) else {
                    i += 1;
                    continue;
                };
                let qual = match impl_ty {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                let in_test = ir.in_test(i);
                match find_open_or_semi(&ir.tokens, i + 2, end) {
                    Some(Delim::Brace(open)) => {
                        let close = match_close(&ir.tokens, open, '{', '}').unwrap_or(end - 1);
                        ir.fns.push(FnDef {
                            qual,
                            body: Some((open, close)),
                            in_test,
                        });
                        // Nested `fn`s get bare-name qualification.
                        parse_items(ir, open + 1, close, None);
                        i = close + 1;
                    }
                    Some(Delim::Semi(s)) => {
                        ir.fns.push(FnDef {
                            qual,
                            body: None,
                            in_test,
                        });
                        i = s + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
}

/// Where an item's header ends: at its body's `{` or at a `;`.
enum Delim {
    Brace(usize),
    Semi(usize),
}

/// Scans forward from `i` for the first `{` or `;` at top level — the
/// end of an item header. Parenthesized signatures are skipped wholesale
/// so a `;` inside them (none in valid Rust, but cheap to guard) cannot
/// cut the scan short.
fn find_open_or_semi(toks: &[Token], mut i: usize, end: usize) -> Option<Delim> {
    while i < end {
        match toks.get(i)?.tok {
            Tok::Punct('(') => i = match_close(toks, i, '(', ')')? + 1,
            Tok::Punct('{') => return Some(Delim::Brace(i)),
            Tok::Punct(';') => return Some(Delim::Semi(i)),
            _ => i += 1,
        }
    }
    None
}

/// Parses an `impl`/`trait` header starting after the keyword: skips
/// generic parameters, reads the target type (for `impl Trait for Type`,
/// the type after `for`), and finds the body braces.
fn parse_impl_header(
    toks: &[Token],
    mut i: usize,
    end: usize,
    is_trait: bool,
) -> (Option<String>, Option<(usize, usize)>) {
    // Generic parameter list.
    if toks.get(i).map(|t| &t.tok) == Some(&Tok::Punct('<')) {
        i = skip_angles(toks, i, end);
    }
    let mut ty: Option<String> = None;
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) if s == "for" && !is_trait => {
                ty = None; // `impl Trait for Type`: the type follows.
                i += 1;
            }
            Tok::Ident(s) if s == "where" => {
                // Bounds until the body; the type is already read.
                i += 1;
            }
            Tok::Ident(s) => {
                ty = Some(s.clone());
                i += 1;
                if is_trait {
                    // A trait's name is the single ident after `trait`.
                    break;
                }
            }
            Tok::Punct('<') => i = skip_angles(toks, i, end),
            Tok::Punct('{') => break,
            _ => i += 1,
        }
    }
    // Find the body (for traits we may not be at `{` yet: supertrait
    // bounds, where clauses).
    while i < end && toks[i].tok != Tok::Punct('{') {
        i += 1;
    }
    if i >= end {
        return (ty, None);
    }
    match match_close(toks, i, '{', '}') {
        Some(close) => (ty, Some((i, close))),
        None => (ty, None),
    }
}

/// Skips a balanced `<...>` starting at the `<` at `i`; `->` arrows
/// inside bounds do not close the angle bracket.
fn skip_angles(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        match toks[i].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                let arrow = i > 0 && toks[i - 1].tok == Tok::Punct('-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_free_and_impl_fns_with_qualification() {
        let ir = FileIr::parse(
            "x.rs",
            "fn free() { a(); }\n\
             impl Machine { pub fn access(&mut self) -> u64 { self.touch() } }\n\
             impl Emitter for Table { fn render(&self) -> String { body() } }",
        );
        let quals: Vec<&str> = ir.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["free", "Machine::access", "Table::render"]);
        assert!(ir.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let ir = FileIr::parse(
            "x.rs",
            "trait Emitter { fn format(&self) -> u8; fn emit(&self) { self.format(); } }",
        );
        assert_eq!(ir.fns.len(), 2);
        assert_eq!(ir.fns[0].qual, "Emitter::format");
        assert!(ir.fns[0].body.is_none());
        assert_eq!(ir.fns[1].qual, "Emitter::emit");
        assert!(ir.fns[1].body.is_some());
    }

    #[test]
    fn fn_pointer_types_are_not_definitions() {
        let ir = FileIr::parse("x.rs", "fn f(cb: fn(u64) -> u64) -> u64 { cb(1) }");
        assert_eq!(ir.fns.len(), 1);
        assert_eq!(ir.fns[0].qual, "f");
    }

    #[test]
    fn nested_fns_get_own_ranges() {
        let ir = FileIr::parse(
            "x.rs",
            "fn outer() { fn inner() { danger(); } inner(); safe(); }",
        );
        assert_eq!(ir.fns.len(), 2);
        let outer = ir.fns.iter().position(|f| f.qual == "outer").unwrap();
        let ranges = ir.own_ranges(outer);
        let own_idents: Vec<String> = ranges
            .iter()
            .flat_map(|&(s, e)| ir.tokens[s..=e].iter())
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(own_idents.contains(&"safe".to_string()));
        assert!(own_idents.contains(&"inner".to_string()), "the call site");
        assert!(
            !own_idents.contains(&"danger".to_string()),
            "inner's body is excluded from outer's own range"
        );
    }

    #[test]
    fn generic_impl_with_fn_bound_parses() {
        let ir = FileIr::parse(
            "x.rs",
            "impl<T: Fn() -> u64> Holder<T> { fn call(&self) -> u64 { (self.f)() } }",
        );
        assert_eq!(ir.fns.len(), 1);
        assert_eq!(ir.fns[0].qual, "Holder::call");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let ir = FileIr::parse("x.rs", "impl Display for CellKey { fn fmt(&self) {} }");
        assert_eq!(ir.fns[0].qual, "CellKey::fmt");
    }
}
