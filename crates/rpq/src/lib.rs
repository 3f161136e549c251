//! Regular path query (RPQ) engine.
//!
//! An RPQ is a regular expression over edge labels; evaluating it over a graph
//! returns all endpoint pairs connected by a path whose label sequence matches
//! the expression. The Moctopus paper's evaluation focuses on the most common
//! RPQ shape — the *k-hop path query* with fixed start nodes, processed in
//! batches.
//!
//! This crate is the query language only; the engines that execute it,
//! the RedisGraph-like host baseline's matrix chains included, live in
//! `moctopus`:
//!
//! * [`ast`] — the RPQ expression tree ([`RpqExpr`]), including the
//!   [`RpqExpr::k_hop`] constructor used throughout the evaluation.
//! * [`parser`] — a SPARQL-property-path-flavoured text syntax
//!   (`"1/2*"`, `".{3}"`, `"(1|2)+"`).
//! * [`norm`] — normal forms: the canonical rewrite behind query
//!   fingerprints, and the label alphabet of an expression.
//! * [`nfa`] — Glushkov (ε-free) automaton construction.
//! * [`eval`] — a reference evaluator (product-automaton BFS) used to verify
//!   every other engine in the workspace.
//! * [`optimizer`] — cost-based plan selection (forward vs bidirectional vs
//!   rare-label-first split) over incrementally maintained per-label
//!   statistics, with the plan-invariance contract that served results are
//!   bit-identical under every choice.
//!
//! # Examples
//!
//! ```
//! use rpq::{RpqExpr, parser};
//!
//! let by_text = parser::parse(".{2}")?;
//! assert_eq!(by_text, RpqExpr::k_hop(2));
//! # Ok::<(), rpq::parser::ParseRpqError>(())
//! ```
#![forbid(unsafe_code)]

pub mod ast;
pub mod eval;
pub mod nfa;
pub mod norm;
pub mod optimizer;
pub mod parser;

pub use ast::{LabelSpec, RpqExpr};
pub use eval::ReferenceEvaluator;
pub use nfa::Nfa;
pub use norm::LabelAlphabet;
pub use optimizer::{choose_plan, PlanChoice, PlanStrategy};
