//! Cross-file wire-format consistency.
//!
//! Every header module in `crates/wire` (`ethernet.rs`, `ipv4.rs`, `udp.rs`,
//! `trimhdr.rs`) declares a `HEADER_LEN` constant next to the functions that
//! write and read that header — `write`/`seal`/`read` over a byte slice, or
//! `to_bytes`/`from_bytes` — and those functions index the slice (`b` or
//! `buf`) with *literal* byte offsets. The frame stack (`stack.rs`), the
//! switch trimmer, and the decoder all trust `HEADER_LEN`, so a field added
//! to a writer without bumping the constant (or a bump without the field)
//! silently desynchronizes them — the exact class of accounting bug this
//! rule makes a build failure.
//!
//! The check lexes the file, finds `HEADER_LEN`, collects every literal index
//! or range applied to a recognized buffer receiver (`b`, `bm`, `buf`,
//! `buffer`, or an `as_ref()`/`as_mut()`/`b()`/`bm()` call, the last four
//! from the accessor-view idiom) in non-test code, and requires the highest
//! byte touched to equal the constant exactly.

use crate::lex::{matching_open, LexOut, TokKind};
use crate::rules::Finding;

/// Identifiers that name the header buffer in the wire view idiom.
const BUFFER_RECEIVERS: &[&str] = &["b", "bm", "buf", "buffer", "as_ref", "as_mut"];

/// Minimum number of literal buffer accesses before the rule asserts exact
/// equality — guards against files that index symbolically.
const MIN_LITERAL_ACCESSES: usize = 3;

/// Runs the consistency check over one `crates/wire/src` file.
#[must_use]
pub fn check(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let Some((header_len, const_line)) = find_header_len(out) else {
        return Vec::new();
    };

    let mut max_end = 0usize;
    let mut max_line = 0u32;
    let mut accesses = 0usize;
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_punct("[") || !is_buffer_receiver(out, i) {
            continue;
        }
        let Some(end) = literal_index_end(out, i) else {
            continue;
        };
        accesses += 1;
        if end > max_end {
            max_end = end;
            max_line = toks[i].line;
        }
    }

    if accesses >= MIN_LITERAL_ACCESSES && max_end != header_len {
        return vec![(
            const_line,
            format!(
                "HEADER_LEN is {header_len} but buffer accessors reach byte offset \
                 {max_end} (line {max_line}); header constant and serializer are out \
                 of sync"
            ),
        )];
    }
    Vec::new()
}

/// Finds `const HEADER_LEN: usize = N;`, returning `(N, line)`.
fn find_header_len(out: &LexOut) -> Option<(usize, u32)> {
    let toks = &out.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("const") && toks.get(i + 1)?.is_ident("HEADER_LEN")) {
            continue;
        }
        // Expect `: usize = <num>` within the next few tokens.
        for t in toks.iter().skip(i + 2).take(6) {
            if t.kind == TokKind::Num {
                return parse_int(&t.text).map(|v| (v, toks[i + 1].line));
            }
        }
    }
    None
}

/// Whether the `[` at index `i` indexes a recognized buffer receiver.
fn is_buffer_receiver(out: &LexOut, i: usize) -> bool {
    let toks = &out.toks;
    let Some(prev) = i.checked_sub(1) else {
        return false;
    };
    let t = &toks[prev];
    if t.kind == TokKind::Ident {
        return BUFFER_RECEIVERS.contains(&t.text.as_str());
    }
    if t.is_punct(")") {
        // Method-call receiver: `self.buffer.as_mut()[..]`, `self.b()[..]`.
        if let Some(open) = matching_open(toks, prev, "(", ")") {
            if let Some(name) = open.checked_sub(1).map(|k| &toks[k]) {
                return name.kind == TokKind::Ident
                    && BUFFER_RECEIVERS.contains(&name.text.as_str());
            }
        }
    }
    false
}

/// For the index expression starting at `[` (index `i`), returns the
/// exclusive end byte offset when it is fully literal: `[k]` → `k + 1`,
/// `[a..b]` → `b`. Symbolic or open-ended indices return `None`.
fn literal_index_end(out: &LexOut, i: usize) -> Option<usize> {
    let toks = &out.toks;
    let a = toks.get(i + 1)?;
    if a.kind != TokKind::Num {
        return None;
    }
    let lo = parse_int(&a.text)?;
    match toks.get(i + 2)? {
        t if t.is_punct("]") => Some(lo + 1),
        t if t.is_punct("..") || t.is_punct("..=") => {
            let b = toks.get(i + 3)?;
            if b.kind != TokKind::Num || !toks.get(i + 4)?.is_punct("]") {
                return None;
            }
            let hi = parse_int(&b.text)?;
            Some(if t.is_punct("..=") { hi + 1 } else { hi })
        }
        _ => None,
    }
}

/// Parses an integer literal in any radix, ignoring `_` separators and
/// trailing type suffixes.
fn parse_int(text: &str) -> Option<usize> {
    let t = text.replace('_', "");
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x") {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    usize::from_str_radix(&digits[..end], radix).ok()
}
