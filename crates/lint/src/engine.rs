//! The line-aware rule engine: file classification, test-region detection,
//! exemption directives, and workspace walking.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Finding, Report, BAD_EXEMPTION, UNUSED_EXEMPTION};
use crate::lexer::{lex, match_delim, Lexed, TokKind};
use crate::rules::{all_rules, RawFinding};

/// Where a file sits in the workspace; rules scope themselves by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of a member crate (`crates/X/src/**`, excluding `bin/`).
    Lib,
    /// Binary code of a member crate (`crates/X/src/bin/**`).
    Bin,
    /// Bench harnesses (`crates/X/benches/**`; none since wall-clock moved to
    /// `perf/`, but one that comes back is linted, D2 included).
    Bench,
    /// Workspace examples (`examples/**`).
    Example,
    /// Integration tests (`tests/**`, root or per crate).
    Test,
    /// The root façade library (`src/**`).
    RootLib,
}

/// Identity of a file under analysis.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Directory name of the owning crate (`core`, `graph-store`, …);
    /// empty for root-package files.
    pub crate_name: String,
    /// File class.
    pub class: FileClass,
}

/// A lexed source file plus the derived line facts rules consume.
pub struct SourceFile {
    /// Identity of the file.
    pub meta: FileMeta,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// `test_lines[line]` is `true` when the 1-based line sits inside a
    /// `#[test]` / `#[cfg(test)]` item; findings there are dropped.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Is the 1-based `line` inside a test item?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }
}

/// One parsed `// moctopus-lint: allow(rule, reason = "…")` directive.
struct Allow {
    rule: String,
    /// Inclusive line range the directive covers: its own line only when
    /// trailing, or the whole statement that follows when standalone (so
    /// rustfmt-split method chains stay covered).
    covers: (u32, u32),
    line: u32,
    used: bool,
}

/// Classifies `rel_path` (relative to the workspace root), or `None` when
/// the file is outside the analyzed tree.
pub fn classify(rel_path: &str) -> Option<FileMeta> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let meta = |crate_name: &str, class| {
        Some(FileMeta { rel_path: rel_path.to_string(), crate_name: crate_name.to_string(), class })
    };
    match parts.as_slice() {
        ["crates", c, "src", "bin", ..] => meta(c, FileClass::Bin),
        ["crates", c, "src", ..] => meta(c, FileClass::Lib),
        ["crates", c, "benches", ..] => meta(c, FileClass::Bench),
        ["crates", c, "tests", ..] => meta(c, FileClass::Test),
        ["src", ..] => meta("", FileClass::RootLib),
        ["examples", ..] => meta("", FileClass::Example),
        ["tests", ..] => meta("", FileClass::Test),
        _ => None,
    }
}

/// Marks the lines of every item carrying a `test`-bearing attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`).
fn mark_test_lines(lexed: &Lexed, n_lines: usize) -> Vec<bool> {
    let mut marks = vec![false; n_lines + 2];
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let is_attr = toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[");
        if !is_attr {
            i += 1;
            continue;
        }
        let Some(close) = match_delim(toks, i + 1) else { break };
        let attr = &toks[i + 2..close];
        let has_test = attr.iter().any(|t| t.kind == TokKind::Ident && t.text == "test");
        let has_not = attr.iter().any(|t| t.kind == TokKind::Ident && t.text == "not");
        i = close + 1;
        if !has_test || has_not {
            continue;
        }
        // Find the item body: the next `{` before any top-level `;`.
        let mut j = i;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct && t.text == ";" {
                break;
            }
            if t.kind == TokKind::Punct && t.text == "{" {
                if let Some(end) = match_delim(toks, j) {
                    let (from, to) = (toks[j].line as usize, toks[end].line as usize);
                    for mark in marks.iter_mut().take(to.min(n_lines) + 1).skip(from) {
                        *mark = true;
                    }
                    i = end + 1;
                }
                break;
            }
            j += 1;
        }
    }
    marks
}

/// Parses exemption directives out of the comment stream. Malformed
/// directives become [`BAD_EXEMPTION`] findings immediately.
fn parse_allows(file: &SourceFile, bad: &mut Vec<Finding>) -> Vec<Allow> {
    const MARKER: &str = "moctopus-lint:";
    let mut allows = Vec::new();
    for c in &file.lexed.comments {
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find(MARKER) else { continue };
        let body = c.text[at + MARKER.len()..].trim();
        let mut bad_directive = |msg: String| {
            bad.push(Finding {
                path: file.meta.rel_path.clone(),
                line: c.line,
                rule: BAD_EXEMPTION,
                message: msg,
                hint: "write: // moctopus-lint: allow(<rule>, reason = \"why this is sound\")"
                    .to_string(),
            });
        };
        let Some(inner) = body.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) else {
            bad_directive(format!("unrecognized directive `{body}`"));
            continue;
        };
        let (rule, rest) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), Some(rest.trim())),
            None => (inner.trim(), None),
        };
        if !crate::rules::is_known_rule(rule) {
            bad_directive(format!("unknown rule `{rule}` in exemption"));
            continue;
        }
        let reason = rest
            .and_then(|r| r.strip_prefix("reason"))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.strip_suffix('"'))
            .map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {}
            Some(_) => {
                bad_directive(format!("exemption for `{rule}` has an empty reason"));
                continue;
            }
            None => {
                bad_directive(format!("exemption for `{rule}` is missing its mandatory reason"));
                continue;
            }
        }
        let covers = if c.trailing {
            (c.line, c.line)
        } else {
            // A standalone directive annotates the statement that follows:
            // from the next code line through the token that ends it (`;` or
            // `,` at the statement's own depth, or the `{` opening its body).
            (c.line, statement_end(&file.lexed, c.line))
        };
        allows.push(Allow { rule: rule.to_string(), covers, line: c.line, used: false });
    }
    allows
}

/// Returns the last line of the statement starting on the first code line
/// after `from`: scanning stops at a `;` or `,` at the statement's own
/// nesting depth, at a `{` opening a body, or when the enclosing delimiter
/// closes. Falls back to `from` when no code follows.
fn statement_end(lexed: &Lexed, from: u32) -> u32 {
    let toks = &lexed.tokens;
    let Some(start) = toks.iter().position(|t| t.line > from) else { return from };
    let mut depth = 0i32;
    let mut last_line = toks[start].line;
    for t in &toks[start..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return last_line;
                    }
                }
                "{" => {
                    if depth == 0 {
                        return t.line;
                    }
                    depth += 1;
                }
                ";" | "," if depth == 0 => return t.line,
                _ => {}
            }
        }
        last_line = t.line;
    }
    last_line
}

/// Lints one in-memory source file under an explicit identity. This is the
/// entry point the fixture tests drive; [`lint_workspace`] funnels here too.
pub fn lint_file_with_meta(meta: FileMeta, text: &str) -> Vec<Finding> {
    let n_lines = text.lines().count();
    let lexed = lex(text);
    let test_lines = mark_test_lines(&lexed, n_lines);
    let file = SourceFile { meta, lexed, test_lines };

    let mut findings = Vec::new();
    let mut allows = parse_allows(&file, &mut findings);

    for rule in all_rules() {
        if !rule.applies(&file.meta) {
            continue;
        }
        let mut raw: Vec<RawFinding> = Vec::new();
        rule.check(&file, &mut raw);
        'finding: for r in raw {
            if file.in_test(r.line) {
                continue;
            }
            for a in allows.iter_mut() {
                if a.rule == rule.id() && a.covers.0 <= r.line && r.line <= a.covers.1 {
                    a.used = true;
                    continue 'finding;
                }
            }
            findings.push(Finding {
                path: file.meta.rel_path.clone(),
                line: r.line,
                rule: rule.id(),
                message: r.message,
                hint: r.hint,
            });
        }
    }

    for a in &allows {
        if !a.used {
            findings.push(Finding {
                path: file.meta.rel_path.clone(),
                line: a.line,
                rule: UNUSED_EXEMPTION,
                message: format!("exemption for `{}` suppresses nothing", a.rule),
                hint: "delete the stale allow; exemptions must each justify a live finding"
                    .to_string(),
            });
        }
    }
    findings
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "third_party", "fixtures", ".git", ".github", ".claude"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root` and returns the sorted report.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Some(meta) = classify(&rel) else { continue };
        let text = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        report.findings.extend(lint_file_with_meta(meta, &text));
    }
    report.sort();
    Ok(report)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
