//! Canonical forms for RPQ expressions: normalization, a stable structural
//! fingerprint, and the label alphabet.
//!
//! A result cache keyed on [`RpqExpr`] must treat semantically identical
//! spellings of a query as one key: `1/2` parsed from text, the same tree
//! assembled programmatically, `(1)/(2)` with redundant grouping, or `././.`
//! versus `.{3}`. [`RpqExpr::normalize`] rewrites an expression into one
//! canonical shape using only language-preserving identities, so equal
//! languages that differ by *spelling* collapse to equal trees (full semantic
//! equivalence of regular expressions is PSPACE-complete and is not
//! attempted — two genuinely different automata simply occupy two cache
//! slots).
//!
//! [`RpqExpr::fingerprint`] is a stable 64-bit structural hash of the tree
//! (FNV-1a over a tagged pre-order encoding). Unlike `std::hash::Hash` +
//! `RandomState` it does not change between processes, so fingerprints can be
//! logged, compared across runs, and recorded in bench baselines.
//!
//! [`RpqExpr::label_alphabet`] reports which edge labels an expression can
//! possibly traverse — the label half of a cache entry's dependency set: an
//! edge update whose label is outside the alphabet can never change the
//! query's answer (see SERVING.md §3 for the full argument).

use crate::ast::{LabelSpec, RpqExpr};
use graph_store::Label;
use std::collections::BTreeSet;

impl RpqExpr {
    /// The canonical empty-path expression (`ε`): a repetition executed zero
    /// times. Matches exactly the empty path, so evaluating it returns each
    /// source itself.
    pub fn epsilon() -> RpqExpr {
        RpqExpr::Repeat { expr: Box::new(RpqExpr::any()), min: 0, max: 0 }
    }

    /// Returns `true` if the expression matches *only* the empty path.
    ///
    /// An expression whose maximum path length is zero cannot traverse any
    /// edge; if it is also nullable its language is exactly `{ε}`. (An empty
    /// alternation has no path longer than zero either, but matches none.)
    pub fn is_epsilon(&self) -> bool {
        self.max_path_length() == Some(0) && self.is_nullable()
    }

    /// Returns `true` if the empty path matches (the language contains `ε`).
    pub fn is_nullable(&self) -> bool {
        self.min_path_length() == 0
    }

    /// Rewrites the expression into a canonical form with the same language.
    ///
    /// The rewrite applies spelling-level identities only — each step
    /// preserves the matched path language exactly, which is what makes the
    /// result safe to use as a cache key:
    ///
    /// * concatenations and alternations flatten, and single-element groups
    ///   collapse (`(1)/(2)` → `1/2`);
    /// * alternation branches sort into a canonical order and deduplicate
    ///   (`2|1|2` → `1|2`);
    /// * ε-only parts drop out of concatenations, and any ε-only expression
    ///   becomes the one canonical [`RpqExpr::epsilon`];
    /// * nested closures collapse (`(e*)*` → `e*`, `(e+)?` → `e*`,
    ///   `(e?)+` → `e*`, `e??` → `e?`), and `e?` collapses to `e` when `e`
    ///   is already nullable;
    /// * bounded repetitions simplify (`e{1}` → `e`, `e{0,1}` → `e?`), and
    ///   any-label hop chains become the canonical k-hop shape
    ///   (`././.` → `.{3}`, matching [`RpqExpr::k_hop`]).
    ///
    /// The function is idempotent: `normalize(normalize(e)) == normalize(e)`.
    /// Both properties are property-tested against
    /// [`crate::ReferenceEvaluator`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rpq::{parser, RpqExpr};
    /// let a = parser::parse("././.")?.normalize();
    /// let b = parser::parse(".{3}")?.normalize();
    /// assert_eq!(a, b);
    /// assert_eq!(a, RpqExpr::k_hop(3));
    /// # Ok::<(), rpq::parser::ParseRpqError>(())
    /// ```
    pub fn normalize(&self) -> RpqExpr {
        let out = match self {
            RpqExpr::Atom(spec) => RpqExpr::Atom(*spec),
            RpqExpr::Concat(parts) => {
                let normed: Vec<RpqExpr> =
                    parts.iter().map(RpqExpr::normalize).filter(|p| !p.is_epsilon()).collect();
                if normed.is_empty() {
                    RpqExpr::epsilon()
                } else {
                    // `concat` flattens nested concatenations produced by the
                    // recursive normalization and collapses singletons.
                    RpqExpr::concat(normed)
                }
            }
            RpqExpr::Alt(branches) => {
                let normed: Vec<RpqExpr> = branches.iter().map(RpqExpr::normalize).collect();
                // Flatten once more (normalizing a branch can surface a
                // nested Alt), then order and deduplicate the branches.
                let flat = RpqExpr::alt(normed);
                match flat {
                    RpqExpr::Alt(mut inner) => {
                        inner.sort();
                        inner.dedup();
                        RpqExpr::alt(inner)
                    }
                    other => other,
                }
            }
            RpqExpr::Star(inner) => match inner.normalize() {
                e if e.is_epsilon() => RpqExpr::epsilon(),
                // (e*)* = (e+)* = (e?)* = e*
                RpqExpr::Star(x) | RpqExpr::Plus(x) | RpqExpr::Optional(x) => RpqExpr::Star(x),
                e => RpqExpr::Star(Box::new(e)),
            },
            RpqExpr::Plus(inner) => match inner.normalize() {
                e if e.is_epsilon() => RpqExpr::epsilon(),
                // (e*)+ = e*, (e+)+ = e+, (e?)+ = e*
                RpqExpr::Star(x) | RpqExpr::Optional(x) => RpqExpr::Star(x),
                RpqExpr::Plus(x) => RpqExpr::Plus(x),
                // ε ∈ L(e) already, so one-or-more equals zero-or-more.
                e if e.is_nullable() => RpqExpr::Star(Box::new(e)),
                e => RpqExpr::Plus(Box::new(e)),
            },
            RpqExpr::Optional(inner) => match inner.normalize() {
                e if e.is_epsilon() => RpqExpr::epsilon(),
                // (e*)? = e*, (e+)? = e*, (e?)? = e?
                RpqExpr::Star(x) | RpqExpr::Plus(x) => RpqExpr::Star(x),
                RpqExpr::Optional(x) => RpqExpr::Optional(x),
                // Adding ε to a language that already contains it is a no-op.
                e if e.is_nullable() => e,
                e => RpqExpr::Optional(Box::new(e)),
            },
            RpqExpr::Repeat { expr, min, max } => {
                let e = expr.normalize();
                if min > max {
                    // Unsatisfiable bound ranges are rejected by the parser;
                    // a programmatic tree keeps its shape (normalized body).
                    RpqExpr::Repeat { expr: Box::new(e), min: *min, max: *max }
                } else if *max == 0 || e.is_epsilon() {
                    RpqExpr::epsilon()
                } else if (*min, *max) == (1, 1) {
                    e
                } else if (*min, *max) == (0, 1) {
                    RpqExpr::Optional(Box::new(e)).normalize()
                } else {
                    RpqExpr::Repeat { expr: Box::new(e), min: *min, max: *max }
                }
            }
        };
        // Canonical k-hop: any chain/repetition matching "exactly k edges of
        // any label" becomes the `RpqExpr::k_hop(k)` shape (a single `.` for
        // k = 1). `as_k_hop` only accepts Atom/Repeat/Concat-of-those, so
        // this cannot undo the closure rewrites above.
        match out.as_k_hop() {
            Some(1) => RpqExpr::any(),
            Some(k) if !matches!(out, RpqExpr::Repeat { .. }) => RpqExpr::k_hop(k),
            _ => out,
        }
    }

    /// A stable 64-bit structural fingerprint of the expression tree.
    ///
    /// FNV-1a over a tagged pre-order encoding: equal trees always produce
    /// equal fingerprints, in every process and on every platform, so the
    /// value is usable in logs and bench records (unlike `Hash`, whose output
    /// std randomizes per process via `RandomState`). Collisions are
    /// possible in principle (64-bit), so fingerprints identify cache
    /// entries in *reporting*; correctness-critical lookups compare full
    /// trees.
    ///
    /// # Examples
    ///
    /// ```
    /// use rpq::parser;
    /// let a = parser::parse("1/(2|3)*")?.normalize();
    /// let b = parser::parse("1/((3|2))*")?.normalize();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// # Ok::<(), rpq::parser::ParseRpqError>(())
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.feed(&mut h);
        h.finish()
    }

    /// Feeds the tagged pre-order encoding of the tree into the hasher.
    fn feed(&self, h: &mut Fnv1a) {
        match self {
            RpqExpr::Atom(LabelSpec::Any) => h.write_u64(0x01),
            RpqExpr::Atom(LabelSpec::Exact(l)) => {
                h.write_u64(0x02);
                h.write_u64(l.0 as u64);
            }
            RpqExpr::Concat(parts) => {
                h.write_u64(0x03);
                h.write_u64(parts.len() as u64);
                parts.iter().for_each(|p| p.feed(h));
            }
            RpqExpr::Alt(branches) => {
                h.write_u64(0x04);
                h.write_u64(branches.len() as u64);
                branches.iter().for_each(|b| b.feed(h));
            }
            RpqExpr::Star(inner) => {
                h.write_u64(0x05);
                inner.feed(h);
            }
            RpqExpr::Plus(inner) => {
                h.write_u64(0x06);
                inner.feed(h);
            }
            RpqExpr::Optional(inner) => {
                h.write_u64(0x07);
                inner.feed(h);
            }
            RpqExpr::Repeat { expr, min, max } => {
                h.write_u64(0x08);
                h.write_u64(*min as u64);
                h.write_u64(*max as u64);
                expr.feed(h);
            }
        }
    }

    /// The language-reversal of the expression: `w` matches `e` exactly when
    /// the reversed label sequence matches `e.reverse()`.
    ///
    /// Structurally, concatenations reverse their part order (recursively)
    /// and every other variant keeps its shape while reversing its children —
    /// the standard regular-language reversal. The operation is an
    /// involution up to normalization: `e.reverse().reverse()` is `e` itself.
    ///
    /// The cost-based optimizer uses this to *cost* the bidirectional plan:
    /// expanding a reversed automaton from the target side of the graph
    /// traverses the same label multiset as the reversed expression does
    /// forward, so the reversed tree priced against in-side statistics is
    /// the simulated cost of the backward sweep (see `rpq::optimizer`).
    ///
    /// # Examples
    ///
    /// ```
    /// use rpq::parser;
    /// let e = parser::parse("1/2*/3")?;
    /// assert_eq!(e.reverse(), parser::parse("3/2*/1")?);
    /// assert_eq!(e.reverse().reverse(), e);
    /// # Ok::<(), rpq::parser::ParseRpqError>(())
    /// ```
    pub fn reverse(&self) -> RpqExpr {
        match self {
            RpqExpr::Atom(spec) => RpqExpr::Atom(*spec),
            RpqExpr::Concat(parts) => {
                RpqExpr::Concat(parts.iter().rev().map(RpqExpr::reverse).collect())
            }
            RpqExpr::Alt(branches) => RpqExpr::Alt(branches.iter().map(RpqExpr::reverse).collect()),
            RpqExpr::Star(inner) => RpqExpr::Star(Box::new(inner.reverse())),
            RpqExpr::Plus(inner) => RpqExpr::Plus(Box::new(inner.reverse())),
            RpqExpr::Optional(inner) => RpqExpr::Optional(Box::new(inner.reverse())),
            RpqExpr::Repeat { expr, min, max } => {
                RpqExpr::Repeat { expr: Box::new(expr.reverse()), min: *min, max: *max }
            }
        }
    }

    /// The set of edge labels this expression can traverse.
    ///
    /// Every path matched by the expression uses only edges whose label is in
    /// the alphabet; an expression containing a `.` atom can traverse any
    /// label. This is deliberately an over-approximation computed without
    /// reachability analysis (e.g. the unmatchable `1` inside `(1){0}` still
    /// contributes) — an alphabet that is too *large* only costs cache
    /// precision, never correctness.
    ///
    /// # Examples
    ///
    /// ```
    /// use graph_store::Label;
    /// use rpq::{parser, LabelAlphabet};
    /// let a = parser::parse("1/(2|3)+")?.label_alphabet();
    /// assert!(a.contains(Label(2)) && !a.contains(Label(4)));
    /// assert_eq!(parser::parse(".{3}")?.label_alphabet(), LabelAlphabet::Any);
    /// # Ok::<(), rpq::parser::ParseRpqError>(())
    /// ```
    pub fn label_alphabet(&self) -> LabelAlphabet {
        let mut labels = BTreeSet::new();
        if self.collect_alphabet(&mut labels) {
            LabelAlphabet::Labels(labels)
        } else {
            LabelAlphabet::Any
        }
    }

    /// Collects exact labels into `out`; returns `false` on the first `.`
    /// atom (the alphabet is then unbounded).
    fn collect_alphabet(&self, out: &mut BTreeSet<Label>) -> bool {
        match self {
            RpqExpr::Atom(LabelSpec::Any) => false,
            RpqExpr::Atom(LabelSpec::Exact(l)) => {
                out.insert(*l);
                true
            }
            RpqExpr::Concat(parts) | RpqExpr::Alt(parts) => {
                parts.iter().all(|p| p.collect_alphabet(out))
            }
            RpqExpr::Star(inner) | RpqExpr::Plus(inner) | RpqExpr::Optional(inner) => {
                inner.collect_alphabet(out)
            }
            RpqExpr::Repeat { expr, .. } => expr.collect_alphabet(out),
        }
    }
}

/// The labels an RPQ expression can traverse — the label half of a cached
/// result's dependency set.
///
/// # Examples
///
/// ```
/// use graph_store::Label;
/// use rpq::LabelAlphabet;
/// let a = LabelAlphabet::Labels([Label(1), Label(2)].into_iter().collect());
/// assert!(a.contains(Label(1)));
/// assert!(!a.contains(Label(9)));
/// assert!(LabelAlphabet::Any.contains(Label(9)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelAlphabet {
    /// The expression contains a `.` atom: every edge label is traversable.
    Any,
    /// Only these exact labels are traversable.
    Labels(BTreeSet<Label>),
}

impl LabelAlphabet {
    /// Returns `true` if an edge carrying `label` could be traversed by the
    /// expression this alphabet was computed from.
    pub fn contains(&self, label: Label) -> bool {
        match self {
            LabelAlphabet::Any => true,
            LabelAlphabet::Labels(set) => set.contains(&label),
        }
    }
}

/// Minimal FNV-1a hasher (stable across processes and platforms, unlike
/// `std::collections::hash_map::RandomState`).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn norm(text: &str) -> RpqExpr {
        parse(text).expect("test query must parse").normalize()
    }

    #[test]
    fn spelling_variants_collapse_to_one_tree() {
        assert_eq!(norm("(1)/(2)"), norm("1/2"));
        assert_eq!(norm("2|1|2"), norm("1|2"));
        assert_eq!(norm("././."), norm(".{3}"));
        assert_eq!(norm("."), RpqExpr::any());
        assert_eq!(norm(".{3}"), RpqExpr::k_hop(3));
        assert_eq!(norm("1{1}"), RpqExpr::label(1));
        assert_eq!(norm("1{0,1}"), RpqExpr::Optional(Box::new(RpqExpr::label(1))));
    }

    #[test]
    fn closure_nests_collapse() {
        assert_eq!(norm("(1*)*"), norm("1*"));
        assert_eq!(norm("(1+)+"), norm("1+"));
        assert_eq!(norm("(1*)+"), norm("1*"));
        assert_eq!(norm("(1+)?"), norm("1*"));
        assert_eq!(norm("(1?)+"), norm("1*"));
        assert_eq!(norm("(1?)?"), norm("1?"));
        // `e?` when `e` is nullable is `e` itself.
        assert_eq!(norm("(1*)?"), norm("1*"));
        assert_eq!(norm("((1?)|2)?"), norm("(1?)|2"));
    }

    #[test]
    fn epsilon_only_expressions_become_canonical_epsilon() {
        assert_eq!(norm("1{0}"), RpqExpr::epsilon());
        assert_eq!(norm("(1{0})*"), RpqExpr::epsilon());
        assert_eq!(norm("1{0}/2"), RpqExpr::label(2));
        assert!(RpqExpr::epsilon().is_epsilon());
        assert!(RpqExpr::epsilon().is_nullable());
    }

    /// The two ways a plan strategy factors a query — an `ε`-anchored
    /// concatenation (the reversed sweep) and a `(prefix)/(suffix)` grouping
    /// (the rare-label split) — are spellings of the query itself: built with
    /// raw constructors they normalize back to the exact tree, so a query and
    /// any plan-factored form of it share one cache row.
    #[test]
    fn epsilon_prefixes_and_regrouped_concatenations_normalize_away() {
        for text in ["1/2/3", "1/(2|3)*/4", "1*/8", "1/8", "1+", ".{2}", "(1|8)+"] {
            let e = norm(text);
            let anchored = RpqExpr::Concat(vec![RpqExpr::epsilon(), e.clone()]);
            assert_ne!(anchored, e);
            assert_eq!(anchored.normalize(), e, "ε/({text})");
            let RpqExpr::Concat(parts) = &e else { continue };
            for at in 1..parts.len() {
                let regrouped = RpqExpr::Concat(vec![
                    RpqExpr::Concat(parts[..at].to_vec()),
                    RpqExpr::Concat(parts[at..].to_vec()),
                ]);
                assert_eq!(regrouped.normalize(), e, "{text} regrouped at {at}");
            }
        }
    }

    #[test]
    fn normalize_is_idempotent_on_query_corpus() {
        for text in
            ["1/2/3", "1/(2|3)*/4", ".{2}", "1+", "((1|2))?", "(.{2})/(.)", "3{0,4}", "(1/2){2,3}"]
        {
            let once = norm(text);
            assert_eq!(once.normalize(), once, "normalize must be idempotent for {text:?}");
        }
    }

    #[test]
    fn normalize_preserves_the_language() {
        use crate::ReferenceEvaluator;
        use graph_store::{AdjacencyGraph, NodeId};
        let mut g = AdjacencyGraph::new();
        // A small labelled diamond with a cycle.
        for &(s, d, l) in
            &[(0u64, 1u64, 1u16), (1, 2, 2), (1, 3, 3), (2, 4, 1), (3, 4, 2), (4, 1, 3), (0, 4, 2)]
        {
            g.insert_edge(NodeId(s), NodeId(d), Label(l));
        }
        let eval = ReferenceEvaluator::new(&g);
        let sources: Vec<NodeId> = (0..5u64).map(NodeId).collect();
        for text in
            ["1/2", "1/(2|3)*", "././.", "1{0}/2", "(1*)*", "(2?)+", "(3|2|3)", ".{2}", "2{0,2}"]
        {
            let expr = parse(text).expect("query must parse");
            let want = eval.evaluate(&expr, &sources);
            let got = eval.evaluate(&expr.normalize(), &sources);
            assert_eq!(got, want, "normalize changed the language of {text:?}");
        }
        // The empty alternation matches no path, so it is neither ε nor
        // nullable, and nothing built on it may lose or gain paths.
        let none = || RpqExpr::Alt(Vec::new());
        for expr in [
            none(),
            RpqExpr::Optional(Box::new(none())),
            RpqExpr::Star(Box::new(none())),
            RpqExpr::Concat(vec![none(), RpqExpr::label(1)]),
        ] {
            let want = eval.evaluate(&expr, &sources);
            let got = eval.evaluate(&expr.normalize(), &sources);
            assert_eq!(got, want, "normalize changed the language of {expr:?}");
        }
        assert!(!none().is_epsilon() && !none().is_nullable());
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let a = norm("1/(2|3)*");
        assert_eq!(a.fingerprint(), norm("1/((3|2))*").fingerprint());
        assert_ne!(a.fingerprint(), norm("1/(2|4)*").fingerprint());
        // Pinned value: the fingerprint is part of the observable bench
        // surface (`rpq --taxonomy`), so accidental encoding changes must show.
        assert_eq!(RpqExpr::any().fingerprint(), {
            let mut h = Fnv1a::new();
            h.write_u64(0x01);
            h.finish()
        });
    }

    #[test]
    fn reverse_is_an_involution_and_reverses_the_language() {
        use crate::ReferenceEvaluator;
        use graph_store::{AdjacencyGraph, NodeId};
        let mut fwd = AdjacencyGraph::new();
        let mut rev = AdjacencyGraph::new();
        for &(s, d, l) in
            &[(0u64, 1u64, 1u16), (1, 2, 2), (1, 3, 3), (2, 4, 1), (3, 4, 2), (4, 1, 3), (0, 4, 2)]
        {
            fwd.insert_edge(NodeId(s), NodeId(d), Label(l));
            rev.insert_edge(NodeId(d), NodeId(s), Label(l));
        }
        let sources: Vec<NodeId> = (0..5u64).map(NodeId).collect();
        for text in ["1/2/3", "1/(2|3)*", "1/2*/3", "(1/2)|3", ".{2}", "2{0,2}/1", "1+/2"] {
            let expr = parse(text).expect("query must parse");
            assert_eq!(
                expr.reverse().reverse(),
                expr,
                "reverse must be an involution for {text:?}"
            );
            // (u, v) matched by e on the graph  ⟺  (v, u) matched by
            // reverse(e) on the edge-reversed graph.
            let mut want: Vec<(NodeId, NodeId)> = Vec::new();
            for (i, row) in
                ReferenceEvaluator::new(&fwd).evaluate(&expr, &sources).iter().enumerate()
            {
                want.extend(row.iter().map(|&t| (sources[i], t)));
            }
            let mut got: Vec<(NodeId, NodeId)> = Vec::new();
            for (i, row) in
                ReferenceEvaluator::new(&rev).evaluate(&expr.reverse(), &sources).iter().enumerate()
            {
                got.extend(row.iter().map(|&t| (t, sources[i])));
            }
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "reverse changed the matched pair set of {text:?}");
        }
    }

    #[test]
    fn alphabet_covers_all_reachable_labels() {
        let a = norm("1/(2|3)+").label_alphabet();
        match &a {
            LabelAlphabet::Labels(set) => {
                assert_eq!(set.len(), 3);
                assert!(a.contains(Label(1)) && a.contains(Label(2)) && a.contains(Label(3)));
                assert!(!a.contains(Label::ANY));
            }
            LabelAlphabet::Any => panic!("exact-label expression must have a bounded alphabet"),
        }
        assert_eq!(norm("1/./2").label_alphabet(), LabelAlphabet::Any);
    }
}
