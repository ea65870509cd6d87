//! A forgiving item-level parser on top of [`mod@crate::lex`].
//!
//! It recovers the subset of Rust structure the interprocedural analyses
//! need: every `fn` item with its name, enclosing `impl` type, body token
//! range, source line, test-mask, and `// trimlint: hot-path` annotation.
//! Everything else — expressions, types, generics — stays a token soup; the
//! call-graph layer (`crate::callgraph`) works directly on body ranges.
//!
//! The parser never guesses on broken input: an unclosed delimiter in an
//! item signature or body is reported as a parse error (distinct CLI exit
//! code) rather than silently skipping the rest of the file.

use crate::lex::{matching, LexOut, TokKind};

/// One `fn` item recovered from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` block's type name, when the fn is a method or
    /// associated function (`impl Trait for Type` records `Type`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter-list token range (between the signature's parentheses,
    /// exclusive) — taint seeds hash-typed parameters from here.
    pub params: (usize, usize),
    /// Body token range `(start, end)` — `toks[start..end]` — or `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the fn sits inside `#[test]`/`#[cfg(test)]` code.
    pub is_test: bool,
    /// Whether a `// trimlint: hot-path` annotation attaches to this fn.
    pub is_hot: bool,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All fn items, in source order.
    pub fns: Vec<FnItem>,
    /// Unrecoverable structure errors: `(line, message)`.
    pub errors: Vec<(u32, String)>,
    /// Lines of `hot-path` annotations that precede no function.
    pub unattached_hot: Vec<u32>,
}

/// Parses one lexed file into its fn items and attaches hot-path
/// annotations (each annotation marks the nearest following fn).
#[must_use]
pub fn parse_file(out: &LexOut, mask: &[bool]) -> ParsedFile {
    let mut pf = ParsedFile::default();
    scan_items(out, mask, 0, out.toks.len(), None, &mut pf);
    pf.fns.sort_by_key(|f| f.line);
    for &hline in &out.hot_paths {
        match pf.fns.iter_mut().find(|f| f.line > hline) {
            Some(f) => f.is_hot = true,
            None => pf.unattached_hot.push(hline),
        }
    }
    pf
}

/// Scans `toks[lo..hi]` for items, recursing into `mod`, `impl`, and fn
/// bodies. `impl_type` names the enclosing impl block, if any.
fn scan_items(
    out: &LexOut,
    mask: &[bool],
    lo: usize,
    hi: usize,
    impl_type: Option<&str>,
    pf: &mut ParsedFile,
) {
    let toks = &out.toks;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" if i + 2 < hi && toks[i + 1].kind == TokKind::Ident => {
                if toks[i + 2].is_punct("{") {
                    let Some(close) = matching(toks, i + 2, "{", "}") else {
                        pf.errors
                            .push((t.line, format!("unclosed `mod {}`", toks[i + 1].text)));
                        return;
                    };
                    scan_items(out, mask, i + 3, close, None, pf);
                    i = close + 1;
                } else {
                    i += 2; // `mod name;` — out-of-line module
                }
            }
            "impl" => {
                let Some((type_name, open)) = impl_header(out, i, hi) else {
                    pf.errors
                        .push((t.line, "unterminated `impl` header".to_string()));
                    return;
                };
                let Some(close) = matching(toks, open, "{", "}") else {
                    pf.errors.push((t.line, "unclosed `impl` body".to_string()));
                    return;
                };
                scan_items(out, mask, open + 1, close, type_name.as_deref(), pf);
                i = close + 1;
            }
            "fn" if i + 1 < hi && toks[i + 1].kind == TokKind::Ident => {
                match fn_item(out, mask, i, hi, impl_type, pf) {
                    Some(next) => i = next,
                    None => return,
                }
            }
            _ => i += 1,
        }
    }
}

/// Parses the header of an `impl` starting at `i`; returns the implemented
/// type's name (the last angle-depth-0 path segment, after `for` when
/// present) and the index of the opening `{`.
fn impl_header(out: &LexOut, i: usize, hi: usize) -> Option<(Option<String>, usize)> {
    let toks = &out.toks;
    let mut depth = 0i64;
    let mut type_name: Option<String> = None;
    let mut j = i + 1;
    while j < hi {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if depth <= 0 {
            if t.is_punct("{") {
                return Some((type_name, j));
            }
            if t.kind == TokKind::Ident {
                if t.text == "for" {
                    type_name = None; // `impl Trait for Type` — keep `Type`
                } else if t.text != "where" && t.text != "dyn" && t.text != "mut" {
                    type_name = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses one `fn` item whose `fn` keyword sits at `i`; records it and
/// returns the index to resume scanning at (`None` on a parse error).
fn fn_item(
    out: &LexOut,
    mask: &[bool],
    i: usize,
    hi: usize,
    impl_type: Option<&str>,
    pf: &mut ParsedFile,
) -> Option<usize> {
    let toks = &out.toks;
    let name = toks[i + 1].text.clone();
    let line = toks[i].line;

    // Parameter list: the first `(` outside the generic parameter list.
    let mut depth = 0i64;
    let mut j = i + 2;
    let popen = loop {
        if j >= hi {
            pf.errors
                .push((line, format!("`fn {name}` has no parameter list")));
            return None;
        }
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if depth <= 0 && t.is_punct("(") {
            break j;
        } else if depth <= 0 && (t.is_punct("{") || t.is_punct(";")) {
            pf.errors
                .push((line, format!("`fn {name}` has no parameter list")));
            return None;
        }
        j += 1;
    };
    let Some(pclose) = matching(toks, popen, "(", ")") else {
        pf.errors
            .push((line, format!("unbalanced parentheses in `fn {name}`")));
        return None;
    };

    // Body `{ … }`, or `;` for a bodyless trait-method declaration. Return
    // types and where-clauses in between carry no top-level braces.
    let mut k = pclose + 1;
    while k < hi && !toks[k].is_punct("{") && !toks[k].is_punct(";") {
        k += 1;
    }
    if k >= hi {
        pf.errors
            .push((line, format!("`fn {name}` has no body or `;`")));
        return None;
    }
    if toks[k].is_punct(";") {
        pf.fns.push(FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            line,
            params: (popen + 1, pclose),
            body: None,
            is_test: mask[i],
            is_hot: false,
        });
        return Some(k + 1);
    }
    let Some(bclose) = matching(toks, k, "{", "}") else {
        pf.errors
            .push((line, format!("unclosed body of `fn {name}`")));
        return None;
    };
    pf.fns.push(FnItem {
        name,
        impl_type: impl_type.map(str::to_string),
        line,
        params: (popen + 1, pclose),
        body: Some((k + 1, bclose)),
        is_test: mask[i],
        is_hot: false,
    });
    // Nested items (fns inside fns, impls in bodies) are recorded too so
    // calls to them resolve; their tokens stay inside the outer body range,
    // which over-approximates the outer fn's calls — acceptable for a
    // reachability analysis that must not miss paths.
    scan_items(out, mask, k + 1, bclose, None, pf);
    Some(bclose + 1)
}
