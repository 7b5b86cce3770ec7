//! A forgiving item-level parser on top of [`crate::lexer`].
//!
//! This is not a Rust parser; it is the smallest recognizer that recovers
//! the item structure the cross-file rules need — `fn` items with body
//! token ranges and call edges, `impl`/`trait` context and `enum`
//! variants. Anything it does not understand it steps over:
//! like the lexer, malformed input degrades to missing items, never a
//! panic. The one structural assumption is that braces balance, which
//! `rustc` has already enforced for any committed file.

use crate::ir::{Call, EnumItem, FileIr, FnItem, Variant};
use crate::lexer::{lex, Token};

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "else", "move", "break",
    "continue", "ref", "mut", "fn", "where", "impl", "dyn",
];

/// Parses one file into its item-level IR.
pub fn parse_file(path: &str, src: &str) -> FileIr {
    let lexed = lex(src);
    let mut fns = Vec::new();
    let mut enums = Vec::new();
    {
        let toks = &lexed.tokens;
        let n = toks.len();
        let mut i = 0usize;
        let mut depth = 0usize;
        // (brace depth the block opened at, self type, trait name)
        let mut ctx: Vec<(usize, Option<String>, Option<String>)> = Vec::new();

        while i < n {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                while ctx.last().is_some_and(|(d, _, _)| *d >= depth) {
                    ctx.pop();
                }
                i += 1;
                continue;
            }
            if t.is_ident("macro_rules") {
                // Skip the whole definition: macro bodies are token soup
                // (`$t`, `$(...)*`) that must not be mistaken for items.
                let Some(open) = find_punct(toks, i, '{') else {
                    i += 1;
                    continue;
                };
                i = match_brace(toks, open);
                continue;
            }
            if t.is_ident("impl") || t.is_ident("trait") {
                let is_trait = t.is_ident("trait");
                let Some(open) = header_open_brace(toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let (self_type, trait_name) = if is_trait {
                    let name = toks[i + 1..open]
                        .iter()
                        .find(|t| t.kind == crate::lexer::TokenKind::Ident)
                        .map(|t| t.text.clone());
                    (None, name)
                } else {
                    parse_impl_header(toks, i + 1, open)
                };
                ctx.push((depth, self_type, trait_name));
                i = open; // the main loop's `{` case will bump `depth`
                continue;
            }
            if t.is_ident("fn") {
                if let Some(f) = parse_fn(toks, i, &ctx) {
                    let next = f.body.1.max(i + 1);
                    fns.push(f);
                    i = next;
                } else {
                    i += 1;
                }
                continue;
            }
            if t.is_ident("enum") {
                if let Some((e, next)) = parse_enum(toks, i) {
                    enums.push(e);
                    i = next;
                } else {
                    i += 1;
                }
                continue;
            }
            i += 1;
        }
    }
    FileIr {
        path: path.replace('\\', "/"),
        lexed,
        fns,
        enums,
    }
}

/// First index of punctuation `c` at or after `from`.
fn find_punct(toks: &[Token], from: usize, c: char) -> Option<usize> {
    toks[from..]
        .iter()
        .position(|t| t.is_punct(c))
        .map(|p| from + p)
}

/// Index one past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Finds the `{` that opens an `impl`/`trait` block, scanning an item
/// header from `from`. Angle brackets are tracked so `{` inside a
/// where-clause closure bound is not misread; `->` does not close one;
/// the `;` inside an array type like `[u8; 32]` does not terminate.
fn header_open_brace(toks: &[Token], from: usize) -> Option<usize> {
    let mut angle = 0isize;
    let mut bracket = 0isize;
    let mut i = from;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('-') && toks.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            i += 2;
            continue;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') && angle <= 0 {
            return Some(i);
        } else if t.is_punct(';') && bracket == 0 {
            return None;
        }
        i += 1;
    }
    None
}

/// Extracts `(self type, trait name)` from an impl header between
/// `start` (just past `impl`) and `open` (its `{`).
fn parse_impl_header(
    toks: &[Token],
    start: usize,
    open: usize,
) -> (Option<String>, Option<String>) {
    // Skip leading generics: `impl<T: Wire> ...`.
    let mut i = start;
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0isize;
        while i < open {
            if toks[i].is_punct('-') && toks.get(i + 1).is_some_and(|t| t.is_punct('>')) {
                i += 2;
                continue;
            }
            if toks[i].is_punct('<') {
                angle += 1;
            } else if toks[i].is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Split on a top-level `for`.
    let mut angle = 0isize;
    let mut for_at: Option<usize> = None;
    for (j, t) in toks.iter().enumerate().take(open).skip(i) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            for_at = Some(j);
            break;
        }
    }
    let type_text = |lo: usize, hi: usize| -> Option<String> {
        let mut s = String::new();
        for t in &toks[lo..hi] {
            if t.is_ident("where") {
                break;
            }
            s.push_str(&t.text);
        }
        (!s.is_empty()).then_some(s)
    };
    match for_at {
        Some(f) => {
            let trait_name = toks[i..f]
                .iter()
                .rfind(|t| t.kind == crate::lexer::TokenKind::Ident)
                .map(|t| t.text.clone());
            (type_text(f + 1, open), trait_name)
        }
        None => (type_text(i, open), None),
    }
}

/// Parses a `fn` item starting at the `fn` keyword.
fn parse_fn(
    toks: &[Token],
    at: usize,
    ctx: &[(usize, Option<String>, Option<String>)],
) -> Option<FnItem> {
    let kw = &toks[at];
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != crate::lexer::TokenKind::Ident {
        return None;
    }
    // Scan the signature: find the body `{` (outside parens/brackets) or
    // a terminating `;` (trait declaration without a body).
    let mut paren = 0isize;
    let mut bracket = 0isize;
    let mut mut_self = false;
    let mut i = at + 2;
    let mut body_open: Option<usize> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('-') && toks.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            i += 2;
            continue;
        }
        match () {
            _ if t.is_punct('(') => paren += 1,
            _ if t.is_punct(')') => paren -= 1,
            _ if t.is_punct('[') => bracket += 1,
            _ if t.is_punct(']') => bracket -= 1,
            _ if t.is_ident("self")
                && paren > 0
                && toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|t| t.is_ident("mut")) =>
            {
                mut_self = true;
            }
            _ if t.is_punct('{') && paren == 0 && bracket == 0 => {
                body_open = Some(i);
                break;
            }
            _ if t.is_punct(';') && paren == 0 && bracket == 0 => break,
            _ => {}
        }
        i += 1;
    }
    let (body, calls) = match body_open {
        Some(open) => {
            let end = match_brace(toks, open);
            ((open, end), extract_calls(toks, open, end))
        }
        None => ((at, at), Vec::new()),
    };
    let (self_type, trait_name) = ctx
        .last()
        .map(|(_, s, t)| (s.clone(), t.clone()))
        .unwrap_or((None, None));
    Some(FnItem {
        name: name_tok.text.clone(),
        self_type,
        trait_name,
        line: kw.line,
        in_test: kw.in_test,
        mut_self,
        body,
        calls,
    })
}

/// Collects call edges in a body token range.
fn extract_calls(toks: &[Token], lo: usize, hi: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        let t = &toks[i];
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        // `fn name(` is a nested definition, not a call.
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        out.push(Call {
            name: t.text.clone(),
            tok: i,
            line: t.line,
            method: prev.is_some_and(|p| p.is_punct('.')),
        });
    }
    out
}

/// Parses an `enum` item starting at the `enum` keyword. Returns the item
/// and the index one past its closing brace.
fn parse_enum(toks: &[Token], at: usize) -> Option<(EnumItem, usize)> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != crate::lexer::TokenKind::Ident {
        return None;
    }
    let open = header_open_brace(toks, at + 2)?;
    let end = match_brace(toks, open);
    let mut variants = Vec::new();
    let mut depth = 0isize; // ( [ { nesting inside the body
    let mut expect = true;
    for t in toks.iter().take(end.saturating_sub(1)).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            expect = true;
        } else if depth == 0 && expect && t.kind == crate::lexer::TokenKind::Ident {
            variants.push(Variant {
                name: t.text.clone(),
                line: t.line,
            });
            expect = false;
        }
    }
    Some((
        EnumItem {
            name: name_tok.text.clone(),
            line: toks[at].line,
            variants,
        },
        end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_record_context_body_and_calls() {
        let src = "
            impl Wire for Foo {
                fn encode(&self, buf: &mut Vec<u8>) { self.x.encode(buf); }
            }
            impl Chan {
                fn on_entry(&mut self, e: &Entry) { self.store(e); helper(); }
                fn peek(&self) -> u32 { self.n }
            }
            trait Core { fn run(&mut self); }
            fn free() {}
        ";
        let ir = parse_file("crates/core/src/x.rs", src);
        let names: Vec<&str> = ir.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["encode", "on_entry", "peek", "run", "free"]);

        let enc = &ir.fns[0];
        assert_eq!(enc.self_type.as_deref(), Some("Foo"));
        assert_eq!(enc.trait_name.as_deref(), Some("Wire"));
        assert!(!enc.mut_self);
        assert_eq!(enc.calls.len(), 1);
        assert_eq!(enc.calls[0].name, "encode");
        assert!(enc.calls[0].method);

        let on = &ir.fns[1];
        assert_eq!(on.self_type.as_deref(), Some("Chan"));
        assert!(on.trait_name.is_none());
        assert!(on.mut_self);
        let call_names: Vec<&str> = on.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(call_names, vec!["store", "helper"]);

        let run = &ir.fns[3];
        assert_eq!(run.trait_name.as_deref(), Some("Core"));
        assert!(run.mut_self);
        assert_eq!(run.body.0, run.body.1, "bodiless trait fn");
    }

    #[test]
    fn generic_impl_headers_parse() {
        let src = "impl<T: Wire> Wire for Option<T> { fn f(&self) {} }";
        let ir = parse_file("x.rs", src);
        assert_eq!(ir.fns[0].self_type.as_deref(), Some("Option<T>"));
        assert_eq!(ir.fns[0].trait_name.as_deref(), Some("Wire"));

        let src = "impl Wire for [u8; 32] { fn f(&self) {} }";
        let ir = parse_file("x.rs", src);
        assert_eq!(ir.fns[0].self_type.as_deref(), Some("[u8;32]"));
    }

    #[test]
    fn enums_consts_and_macros() {
        let src = "
            const TAG_A: u8 = 3;
            const TAG_B: u8 = 0x10;
            pub enum Body {
                RbSend(Vec<u8>),
                CbFinal { payload: Vec<u8>, sig: Sig },
                #[allow(dead_code)]
                Plain,
            }
            macro_rules! impl_vec { ($t:ty) => { fn bogus() {} }; }
        ";
        let ir = parse_file("x.rs", src);
        let e = &ir.enums[0];
        assert_eq!(e.name, "Body");
        let vs: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(vs, vec!["RbSend", "CbFinal", "Plain"]);
        assert!(ir.fns.is_empty(), "macro body must not leak items");
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests { fn helper() {} }
        ";
        let ir = parse_file("x.rs", src);
        assert!(!ir.fns[0].in_test);
        assert!(ir.fns[1].in_test);
    }
}
