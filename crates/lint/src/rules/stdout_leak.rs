//! D6 `stdout-thread-leak`: thread/shard-count values flowing into stdout.
//!
//! The contract since PR 4: stdout of every binary is byte-identical at
//! every `--threads` and `--shards` value. Scaling knobs may only surface
//! in the JSON emitters (`serve --json` records `"threads"`,
//! `ShardThroughput` is JSON-only). A `println!`/`print!` whose arguments —
//! positional or inline `{name}` captures — mention a thread/shard/worker
//! count is a leak waiting for a CI diff to flake.

use crate::engine::{FileClass, FileMeta, SourceFile};
use crate::lexer::{match_delim, TokKind, Token};
use crate::rules::{RawFinding, Rule};

/// The D6 rule value.
pub struct StdoutThreadLeak;

/// Substrings of identifiers that denote scaling knobs.
const LEAKY: &[&str] = &["thread", "shard", "worker"];

impl Rule for StdoutThreadLeak {
    fn id(&self) -> &'static str {
        "stdout-thread-leak"
    }

    fn summary(&self) -> &'static str {
        "thread/shard-count values must not flow into println!/print! output"
    }

    fn applies(&self, meta: &FileMeta) -> bool {
        meta.class != FileClass::Test
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let toks = &file.lexed.tokens;
        for i in 0..toks.len() {
            let is_macro = toks[i].kind == TokKind::Ident
                && (toks[i].text == "println" || toks[i].text == "print")
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Punct && t.text == "!")
                && toks.get(i + 2).is_some_and(|t| t.text == "(");
            if !is_macro {
                continue;
            }
            let Some(close) = match_delim(toks, i + 2) else { continue };
            scan_args(&toks[i + 3..close], out);
        }
    }
}

fn scan_args(args: &[Token], out: &mut Vec<RawFinding>) {
    for t in args {
        match t.kind {
            TokKind::Ident => {
                if let Some(hit) = leaky(&t.text) {
                    out.push(finding(&t.text, hit, t.line));
                }
            }
            TokKind::Str => {
                for capture in inline_captures(&t.text) {
                    if let Some(hit) = leaky(capture) {
                        out.push(finding(capture, hit, t.line));
                    }
                }
            }
            _ => {}
        }
    }
}

fn leaky(ident: &str) -> Option<&'static str> {
    let lower = ident.to_ascii_lowercase();
    LEAKY.iter().find(|sub| lower.contains(*sub)).copied()
}

/// Extracts `name` from `{name}` / `{name:…}` inline captures in a format
/// string; `{{` escapes and positional `{}` / `{0}` are skipped.
fn inline_captures(fmt: &str) -> Vec<&str> {
    let mut captures = Vec::new();
    let bytes = fmt.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped brace
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &fmt[start..j];
        if !name.is_empty() && name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
            captures.push(name);
        }
        i = j + 1;
    }
    captures
}

fn finding(what: &str, hit: &str, line: u32) -> RawFinding {
    RawFinding {
        line,
        message: format!(
            "`{what}` (matches `{hit}`) flows into stdout; thread/shard counts must be invisible \
             in non-JSON output"
        ),
        hint: "route scaling-dependent values through the JSON emitters (serve --json, \
               ShardThroughput) or drop them from stdout; if the text is genuinely \
               count-invariant, justify: // moctopus-lint: allow(stdout-thread-leak, \
               reason = \"...\")"
            .to_string(),
    }
}
