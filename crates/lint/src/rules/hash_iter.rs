//! D1 `hash-iter-order`: iteration over `std` `HashMap`/`HashSet` — under
//! any hasher, so `graph_store::IdMap` included — in non-test code.
//!
//! A hash table's iteration order is a function of its capacity and insert
//! history, and with `std`'s default `RandomState` of a per-process seed as
//! well, so any iteration order that reaches results, simulated costs,
//! stdout, or on-disk bytes breaks the byte-identity contract
//! (CONCURRENCY.md §6, STORAGE.md §7). Behind `IdMap`'s fixed hasher a leak
//! no longer shows as a run-to-run diff — two engines that reached the same
//! rows by different histories would still disagree — which makes this rule
//! the only guard. It tracks names declared with an outermost
//! `HashMap`/`HashSet`/`IdMap` type (fields, `let` annotations and
//! initializers, fn params) and flags ordered sinks on them: iteration
//! adaptors and `for … in` loops. Order-insensitive uses (pure folds,
//! collect-then-sort) are exempted per site with a written reason.

use std::collections::BTreeSet;

use crate::engine::{FileClass, FileMeta, SourceFile};
use crate::lexer::{TokKind, Token};
use crate::rules::{RawFinding, Rule};

/// The D1 rule value.
pub struct HashIterOrder;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "IdMap"];
const SINKS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

impl Rule for HashIterOrder {
    fn id(&self) -> &'static str {
        "hash-iter-order"
    }

    fn summary(&self) -> &'static str {
        "iteration over HashMap/HashSet/IdMap in determinism-critical non-test code"
    }

    fn applies(&self, meta: &FileMeta) -> bool {
        matches!(
            meta.class,
            FileClass::Lib | FileClass::Bin | FileClass::RootLib | FileClass::Example
        )
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let toks = &file.lexed.tokens;
        let tracked = tracked_names(toks);
        if tracked.is_empty() {
            return;
        }
        flag_method_sinks(toks, &tracked, out);
        flag_for_loops(toks, &tracked, out);
    }
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// Collects names whose declared type (or constructor) is an outermost
/// `HashMap`/`HashSet`/`IdMap`.
fn tracked_names(toks: &[Token]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for i in 0..toks.len() {
        // `name: [&][mut] [path ::] HashMap/HashSet/IdMap …` — fields, let
        // annotations, fn params. A `::` right before `name` means `name`
        // is itself a path segment, not a binding.
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| is_punct(t, ":"))
            && !(i > 0 && is_punct(&toks[i - 1], "::"))
        {
            if let Some(first) = outermost_type_head(&toks[i + 2..]) {
                if HASH_TYPES.contains(&first) {
                    tracked.insert(toks[i].text.clone());
                }
            }
        }
        // `let [mut] name = [path ::] HashMap/HashSet :: new(…)`.
        if is_ident(&toks[i], "let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| is_ident(t, "mut")) {
                j += 1;
            }
            let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) else { continue };
            if name.kind != TokKind::Ident || !is_punct(eq, "=") {
                continue;
            }
            if let Some(first) = outermost_type_head(&toks[j + 2..]) {
                if HASH_TYPES.contains(&first) {
                    tracked.insert(name.text.clone());
                }
            }
        }
    }
    tracked
}

/// Returns the head type name of a type (or constructor path) token slice:
/// skips `&`/`mut`/lifetimes and a `path ::` prefix, returning the last
/// path segment before generics/call. `Vec<HashSet<…>>` reports `Vec`, so
/// iterating the *ordered* outer container is never flagged.
fn outermost_type_head(toks: &[Token]) -> Option<&str> {
    let mut i = 0usize;
    while toks
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Lifetime || is_punct(t, "&") || is_ident(t, "mut"))
    {
        i += 1;
    }
    let mut head: Option<&str> = None;
    while let Some(t) = toks.get(i) {
        if t.kind != TokKind::Ident {
            break;
        }
        head = Some(&t.text);
        if toks.get(i + 1).is_some_and(|n| is_punct(n, "::")) {
            i += 2;
        } else {
            break;
        }
    }
    head
}

/// Flags `recv.sink(` where `recv` is a tracked name.
fn flag_method_sinks(toks: &[Token], tracked: &BTreeSet<String>, out: &mut Vec<RawFinding>) {
    for i in 1..toks.len() {
        if !is_punct(&toks[i], ".") {
            continue;
        }
        let Some(method) = toks.get(i + 1) else { continue };
        if method.kind != TokKind::Ident || !SINKS.contains(&method.text.as_str()) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|t| is_punct(t, "(")) {
            continue;
        }
        let recv = &toks[i - 1];
        if recv.kind == TokKind::Ident && recv.text != "self" && tracked.contains(&recv.text) {
            out.push(finding(&recv.text, &method.text, method.line));
        }
    }
}

/// Flags `for pat in [&][mut] [self.]name {` where `name` is tracked.
fn flag_for_loops(toks: &[Token], tracked: &BTreeSet<String>, out: &mut Vec<RawFinding>) {
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "for") {
            continue;
        }
        // Find the `in` of this loop (depth-0 relative to the pattern).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_at = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                "in" if t.kind == TokKind::Ident && depth == 0 => {
                    in_at = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
            if j > i + 64 {
                break;
            }
        }
        let Some(in_at) = in_at else { continue };
        // Collect the loop expression up to its body `{`.
        let mut expr: Vec<&Token> = Vec::new();
        let mut k = in_at + 1;
        while let Some(t) = toks.get(k) {
            if is_punct(t, "{") {
                break;
            }
            expr.push(t);
            k += 1;
            if expr.len() > 8 {
                break;
            }
        }
        let mut e: &[&Token] = &expr;
        while e.first().is_some_and(|t| is_punct(t, "&") || is_ident(t, "mut")) {
            e = &e[1..];
        }
        if e.len() == 3 && is_ident(e[0], "self") && is_punct(e[1], ".") {
            e = &e[2..];
        }
        if let [only] = e {
            if only.kind == TokKind::Ident && tracked.contains(&only.text) {
                out.push(finding(&only.text, "for-loop", only.line));
            }
        }
    }
}

fn finding(name: &str, sink: &str, line: u32) -> RawFinding {
    RawFinding {
        line,
        message: format!(
            "`{name}` (a hash map or set) is iterated via `{sink}`; hash iteration order \
             depends on capacity and insert history (and on a per-process seed under RandomState)"
        ),
        hint: "drain in sorted order (collect + sort), switch to BTreeMap/BTreeSet, or justify: \
               // moctopus-lint: allow(hash-iter-order, reason = \"...\")"
            .to_string(),
    }
}
