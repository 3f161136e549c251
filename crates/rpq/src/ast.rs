//! The RPQ expression tree.

use graph_store::Label;
use std::fmt;

/// What an atom of the expression matches: one specific edge label or any edge.
///
/// The `Ord` impl is structural (variant order, then label id); it exists so
/// [`RpqExpr`] values can be sorted into the canonical branch order
/// [`RpqExpr::normalize`] produces, not because the order means anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelSpec {
    /// Matches edges carrying exactly this label.
    Exact(Label),
    /// Matches any edge regardless of label (written `.` in the text syntax).
    Any,
}

impl LabelSpec {
    /// Returns `true` if an edge with `label` matches this atom.
    pub fn matches(self, label: Label) -> bool {
        match self {
            LabelSpec::Any => true,
            LabelSpec::Exact(l) => l == label,
        }
    }
}

impl fmt::Display for LabelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelSpec::Any => write!(f, "."),
            LabelSpec::Exact(l) => write!(f, "{}", l.0),
        }
    }
}

/// A regular path query expression over edge labels.
///
/// # Examples
///
/// ```
/// use rpq::RpqExpr;
/// // knows/knows — friend-of-friend over label 1.
/// let fof = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(1)]);
/// assert_eq!(fof.min_path_length(), 2);
/// assert_eq!(RpqExpr::k_hop(3).max_path_length(), Some(3));
/// ```
/// `Hash` and `Ord` are structural: two expressions compare equal only when
/// their trees are identical. Semantically equal but structurally different
/// expressions (`1/2` vs `(1/2)`) are first brought to one shape by
/// [`RpqExpr::normalize`]; cache layers key on the normalized tree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RpqExpr {
    /// A single edge matching the given label specification.
    Atom(LabelSpec),
    /// Concatenation: a path matching each part in sequence.
    Concat(Vec<RpqExpr>),
    /// Alternation: a path matching any one of the branches.
    Alt(Vec<RpqExpr>),
    /// Kleene star: zero or more repetitions.
    Star(Box<RpqExpr>),
    /// One or more repetitions.
    Plus(Box<RpqExpr>),
    /// Zero or one occurrence.
    Optional(Box<RpqExpr>),
    /// Bounded repetition: between `min` and `max` occurrences (inclusive).
    Repeat {
        /// The repeated sub-expression.
        expr: Box<RpqExpr>,
        /// Minimum number of repetitions.
        min: usize,
        /// Maximum number of repetitions.
        max: usize,
    },
}

impl RpqExpr {
    /// An atom matching edges with label id `id`.
    pub fn label(id: u16) -> RpqExpr {
        RpqExpr::Atom(LabelSpec::Exact(Label(id)))
    }

    /// An atom matching any edge.
    pub fn any() -> RpqExpr {
        RpqExpr::Atom(LabelSpec::Any)
    }

    /// The k-hop path query used throughout the paper's evaluation: exactly
    /// `k` hops over any edge label.
    pub fn k_hop(k: usize) -> RpqExpr {
        RpqExpr::Repeat { expr: Box::new(RpqExpr::any()), min: k, max: k }
    }

    /// Concatenation of several parts (flattens nested concatenations).
    pub fn concat(parts: Vec<RpqExpr>) -> RpqExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                RpqExpr::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match <[RpqExpr; 1]>::try_from(flat) {
            Ok([only]) => only,
            Err(flat) => RpqExpr::Concat(flat),
        }
    }

    /// Alternation of several branches (flattens nested alternations).
    pub fn alt(branches: Vec<RpqExpr>) -> RpqExpr {
        let mut flat = Vec::with_capacity(branches.len());
        for b in branches {
            match b {
                RpqExpr::Alt(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match <[RpqExpr; 1]>::try_from(flat) {
            Ok([only]) => only,
            Err(flat) => RpqExpr::Alt(flat),
        }
    }

    /// The minimum number of edges a matching path can have, or `usize::MAX`
    /// if no path matches (an empty alternation, or anything that requires
    /// one).
    pub fn min_path_length(&self) -> usize {
        match self {
            RpqExpr::Atom(_) => 1,
            RpqExpr::Concat(parts) => {
                parts.iter().map(RpqExpr::min_path_length).fold(0, usize::saturating_add)
            }
            RpqExpr::Alt(branches) => {
                branches.iter().map(RpqExpr::min_path_length).min().unwrap_or(usize::MAX)
            }
            RpqExpr::Star(_) | RpqExpr::Optional(_) => 0,
            RpqExpr::Plus(inner) => inner.min_path_length(),
            RpqExpr::Repeat { expr, min, .. } => expr.min_path_length().saturating_mul(*min),
        }
    }

    /// The maximum number of edges a matching path can have, or `None` if the
    /// expression is unbounded (contains `*` or `+`).
    pub fn max_path_length(&self) -> Option<usize> {
        match self {
            RpqExpr::Atom(_) => Some(1),
            RpqExpr::Concat(parts) => {
                parts.iter().map(RpqExpr::max_path_length).try_fold(0usize, |a, b| Some(a + b?))
            }
            RpqExpr::Alt(branches) => branches
                .iter()
                .map(RpqExpr::max_path_length)
                .try_fold(0usize, |a, b| Some(a.max(b?))),
            RpqExpr::Star(_) | RpqExpr::Plus(_) => None,
            RpqExpr::Optional(inner) => inner.max_path_length(),
            RpqExpr::Repeat { expr, max, .. } => Some(expr.max_path_length()? * max),
        }
    }

    /// Number of atom copies this expression expands to during NFA
    /// construction (saturating): bounded repeats unroll into `max` copies of
    /// their body, so nested repeats multiply. The parser bounds this per
    /// repetition construct ([`crate::parser::MAX_REPEAT`]) and
    /// [`crate::Nfa::from_expr`] guards the total
    /// ([`crate::nfa::MAX_NFA_EXPANSION`]).
    pub fn expansion_weight(&self) -> usize {
        match self {
            RpqExpr::Atom(_) => 1,
            RpqExpr::Concat(parts) | RpqExpr::Alt(parts) => {
                parts.iter().map(RpqExpr::expansion_weight).fold(0usize, usize::saturating_add)
            }
            RpqExpr::Star(inner) | RpqExpr::Plus(inner) | RpqExpr::Optional(inner) => {
                inner.expansion_weight()
            }
            RpqExpr::Repeat { expr, max, .. } => {
                expr.expansion_weight().saturating_mul((*max).max(1))
            }
        }
    }

    /// Returns `true` if the expression is a plain k-hop query over any label,
    /// the shape the matrix planner compiles into a chain of `smxm` operators.
    pub fn as_k_hop(&self) -> Option<usize> {
        match self {
            RpqExpr::Atom(LabelSpec::Any) => Some(1),
            RpqExpr::Repeat { expr, min, max } if min == max => {
                matches!(**expr, RpqExpr::Atom(LabelSpec::Any)).then_some(*min)
            }
            RpqExpr::Concat(parts) => {
                let mut total = 0usize;
                for p in parts {
                    total += p.as_k_hop()?;
                }
                Some(total)
            }
            _ => None,
        }
    }
}

impl fmt::Display for RpqExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpqExpr::Atom(spec) => write!(f, "{spec}"),
            RpqExpr::Concat(parts) => {
                let strs: Vec<String> = parts.iter().map(|p| format!("{p}")).collect();
                write!(f, "{}", strs.join("/"))
            }
            RpqExpr::Alt(branches) => {
                let strs: Vec<String> = branches.iter().map(|p| format!("{p}")).collect();
                write!(f, "({})", strs.join("|"))
            }
            RpqExpr::Star(inner) => write!(f, "({inner})*"),
            RpqExpr::Plus(inner) => write!(f, "({inner})+"),
            RpqExpr::Optional(inner) => write!(f, "({inner})?"),
            RpqExpr::Repeat { expr, min, max } if min == max => write!(f, "({expr}){{{min}}}"),
            RpqExpr::Repeat { expr, min, max } => write!(f, "({expr}){{{min},{max}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_spec_matching() {
        assert!(LabelSpec::Any.matches(Label(7)));
        assert!(LabelSpec::Exact(Label(3)).matches(Label(3)));
        assert!(!LabelSpec::Exact(Label(3)).matches(Label(4)));
    }

    #[test]
    fn k_hop_shape_is_recognised() {
        assert_eq!(RpqExpr::k_hop(3).as_k_hop(), Some(3));
        assert_eq!(RpqExpr::any().as_k_hop(), Some(1));
        let chain = RpqExpr::concat(vec![RpqExpr::any(), RpqExpr::k_hop(2)]);
        assert_eq!(chain.as_k_hop(), Some(3));
        assert_eq!(RpqExpr::label(1).as_k_hop(), None);
        assert_eq!(RpqExpr::Star(Box::new(RpqExpr::any())).as_k_hop(), None);
    }

    #[test]
    fn path_length_bounds() {
        let e = RpqExpr::concat(vec![
            RpqExpr::label(1),
            RpqExpr::Optional(Box::new(RpqExpr::label(2))),
        ]);
        assert_eq!(e.min_path_length(), 1);
        assert_eq!(e.max_path_length(), Some(2));

        let star = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        assert_eq!(star.min_path_length(), 0);
        assert_eq!(star.max_path_length(), None);

        let alt = RpqExpr::alt(vec![RpqExpr::k_hop(2), RpqExpr::label(5)]);
        assert_eq!(alt.min_path_length(), 1);
        assert_eq!(alt.max_path_length(), Some(2));

        let plus = RpqExpr::Plus(Box::new(RpqExpr::label(1)));
        assert_eq!(plus.min_path_length(), 1);
        assert_eq!(plus.max_path_length(), None);
    }

    #[test]
    fn constructors_flatten_nesting() {
        let c = RpqExpr::concat(vec![
            RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2)]),
            RpqExpr::label(3),
        ]);
        assert!(matches!(&c, RpqExpr::Concat(parts) if parts.len() == 3));
        let a = RpqExpr::alt(vec![
            RpqExpr::alt(vec![RpqExpr::label(1), RpqExpr::label(2)]),
            RpqExpr::label(3),
        ]);
        assert!(matches!(&a, RpqExpr::Alt(parts) if parts.len() == 3));
        // Single-element constructors collapse to the element itself.
        assert_eq!(RpqExpr::concat(vec![RpqExpr::label(9)]), RpqExpr::label(9));
        assert_eq!(RpqExpr::alt(vec![RpqExpr::label(9)]), RpqExpr::label(9));
    }

    #[test]
    fn display_is_parseable_syntax() {
        assert_eq!(RpqExpr::k_hop(4).to_string(), "(.){4}");
        assert_eq!(RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2)]).to_string(), "1/2");
        assert_eq!(RpqExpr::alt(vec![RpqExpr::label(1), RpqExpr::label(2)]).to_string(), "(1|2)");
        let r = RpqExpr::Repeat { expr: Box::new(RpqExpr::any()), min: 1, max: 3 };
        assert_eq!(r.to_string(), "(.){1,3}");
    }
}
