//! `moctopus-lint` — a workspace static analyzer that mechanically enforces
//! the Moctopus determinism and durability contracts.
//!
//! Every claim this reproduction makes rests on byte-identical determinism:
//! across threads (CONCURRENCY.md), shards (SERVING.md §7), and
//! crash/recovery (STORAGE.md). The rules protecting those claims used to
//! live only as prose checklists; this crate turns them into named,
//! suppressible diagnostics that gate CI alongside clippy. See ANALYSIS.md
//! for the full rule catalogue and the rationale per rule.
//!
//! The analyzer is dependency-free by design (the build container is
//! offline): a hand-rolled lexer ([`lexer`]) feeds a line-aware rule engine
//! ([`engine`]) — no `syn`, no `rustc` internals. Rules therefore reason
//! about *tokens and names*, not types; they are deliberately conservative,
//! and every finding is either fixed or exempted in place with
//!
//! ```text
//! // moctopus-lint: allow(<rule>, reason = "why this site is sound")
//! ```
//!
//! where the reason is mandatory — an exemption without one is itself a
//! finding, as is an exemption that suppresses nothing.
//!
//! # The rules
//!
//! | id | contract |
//! |----|----------|
//! | D1 `hash-iter-order` | no ordered iteration over `std` hash collections |
//! | D2 `wall-clock-in-sim` | no wall clocks/entropy under `crates/` (they belong in `perf/`) |
//! | D4 `panic-in-lib` | library code returns errors instead of panicking |
//! | D5 `fsync-before-rename` | graph-store publishes via tmp + fsync + rename |
//! | D6 `stdout-thread-leak` | thread/shard counts never reach stdout |
//!
//! # Example
//!
//! ```
//! use moctopus_lint::{classify, lint_file_with_meta};
//!
//! let meta = classify("crates/core/src/demo.rs").expect("a lintable path");
//! let findings = lint_file_with_meta(
//!     meta,
//!     "fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> { m.values().copied().collect() }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "hash-iter-order");
//! ```
#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use diag::{Finding, Report, BAD_EXEMPTION, UNUSED_EXEMPTION};
pub use engine::{
    classify, find_workspace_root, lint_file_with_meta, lint_workspace, FileClass, FileMeta,
};
pub use rules::{all_rules, is_known_rule, Rule};
