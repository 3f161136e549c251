//! Automaton construction for RPQ expressions.
//!
//! Expressions compile to a non-deterministic finite automaton whose
//! transitions are labelled with [`LabelSpec`]s. Construction goes through a
//! Thompson-style ε-NFA and then eliminates ε-transitions, producing the
//! ε-free automaton (equivalent to the Glushkov construction) that the
//! product-graph evaluator traverses.

use crate::ast::{LabelSpec, RpqExpr};
use std::collections::HashSet;

/// Largest expression expansion (atom copies after unrolling bounded
/// repeats, [`RpqExpr::expansion_weight`]) [`Nfa::from_expr`] accepts.
///
/// The text parser already rejects queries past [`crate::parser::MAX_REPEAT`]
/// per repetition construct; this larger cap is the defence for
/// *programmatically built* expressions, where a single
/// `Repeat { min: 1e9, max: 1e9 }` node would otherwise allocate ~1e9 NFA
/// states before construction even finishes.
pub const MAX_NFA_EXPANSION: usize = 1 << 20;

/// An ε-free non-deterministic finite automaton over edge labels.
///
/// # Examples
///
/// ```
/// use rpq::{Nfa, RpqExpr};
/// let nfa = Nfa::from_expr(&RpqExpr::k_hop(2));
/// assert!(!nfa.accepts_empty());
/// assert_eq!(nfa.start(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa {
    /// transitions[state] = list of (label spec, destination state).
    transitions: Vec<Vec<(LabelSpec, usize)>>,
    accepting: Vec<bool>,
    start: usize,
}

impl Nfa {
    /// Compiles an expression into an ε-free NFA.
    ///
    /// # Panics
    ///
    /// Panics if the expression expands past [`MAX_NFA_EXPANSION`] atoms —
    /// a deliberate guard so an adversarial programmatic `Repeat` fails fast
    /// with a message instead of exhausting memory mid-construction. Parsed
    /// queries can never hit this: [`crate::parser::parse`] rejects any
    /// expression whose total expansion exceeds the same cap.
    pub fn from_expr(expr: &RpqExpr) -> Self {
        let weight = expr.expansion_weight();
        assert!(
            weight <= MAX_NFA_EXPANSION,
            "expression expands to {weight} atoms, past the NFA construction cap of \
             {MAX_NFA_EXPANSION}"
        );
        let mut builder = EpsilonNfa::new();
        let start = builder.new_state();
        let accept = builder.new_state();
        builder.compile(expr, start, accept);
        builder.into_epsilon_free(start, accept)
    }

    /// The start state (always 0 after construction).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if `state` is accepting.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting.get(state).copied().unwrap_or(false)
    }

    /// Returns `true` if the automaton accepts the empty path (zero edges).
    pub fn accepts_empty(&self) -> bool {
        self.is_accepting(self.start)
    }

    /// Outgoing transitions of `state` as `(label spec, destination)` pairs.
    pub fn transitions_from(&self, state: usize) -> &[(LabelSpec, usize)] {
        self.transitions.get(state).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The reversed transition index: entry `to` lists `(spec, from)` for
    /// every transition `from --spec--> to`, in the deterministic order the
    /// forward transitions are stored. Backward (useful-set) sweeps walk
    /// this index over reverse adjacency rows.
    pub fn reversed_transitions(&self) -> Vec<Vec<(LabelSpec, usize)>> {
        let mut rev = vec![Vec::new(); self.transitions.len()];
        for (from, outs) in self.transitions.iter().enumerate() {
            for &(spec, to) in outs {
                if to < rev.len() {
                    rev[to].push((spec, from));
                }
            }
        }
        rev
    }
}

/// Thompson-style NFA with ε-transitions, used only during construction.
struct EpsilonNfa {
    labelled: Vec<Vec<(LabelSpec, usize)>>,
    epsilon: Vec<Vec<usize>>,
}

impl EpsilonNfa {
    fn new() -> Self {
        EpsilonNfa { labelled: Vec::new(), epsilon: Vec::new() }
    }

    fn new_state(&mut self) -> usize {
        self.labelled.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.labelled.len() - 1
    }

    fn add_label(&mut self, from: usize, spec: LabelSpec, to: usize) {
        self.labelled[from].push((spec, to));
    }

    fn add_epsilon(&mut self, from: usize, to: usize) {
        self.epsilon[from].push(to);
    }

    /// Compiles `expr` as a fragment from `start` to `accept`.
    fn compile(&mut self, expr: &RpqExpr, start: usize, accept: usize) {
        match expr {
            RpqExpr::Atom(spec) => self.add_label(start, *spec, accept),
            RpqExpr::Concat(parts) => {
                if parts.is_empty() {
                    self.add_epsilon(start, accept);
                    return;
                }
                let mut current = start;
                for (i, part) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() { accept } else { self.new_state() };
                    self.compile(part, current, next);
                    current = next;
                }
            }
            RpqExpr::Alt(branches) => {
                for branch in branches {
                    let s = self.new_state();
                    let a = self.new_state();
                    self.add_epsilon(start, s);
                    self.compile(branch, s, a);
                    self.add_epsilon(a, accept);
                }
            }
            RpqExpr::Star(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                self.add_epsilon(start, s);
                self.add_epsilon(start, accept);
                self.compile(inner, s, a);
                self.add_epsilon(a, s);
                self.add_epsilon(a, accept);
            }
            RpqExpr::Plus(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                self.add_epsilon(start, s);
                self.compile(inner, s, a);
                self.add_epsilon(a, s);
                self.add_epsilon(a, accept);
            }
            RpqExpr::Optional(inner) => {
                self.add_epsilon(start, accept);
                self.compile(inner, start, accept);
            }
            RpqExpr::Repeat { expr, min, max } => {
                // Expand into `min` mandatory copies followed by `max - min`
                // optional copies; path-query repetition counts are small.
                let mut current = start;
                for _ in 0..*min {
                    let next = self.new_state();
                    self.compile(expr, current, next);
                    current = next;
                }
                for _ in *min..*max {
                    let next = self.new_state();
                    self.add_epsilon(current, next);
                    let mid = self.new_state();
                    self.add_epsilon(current, mid);
                    self.compile(expr, mid, next);
                    current = next;
                }
                self.add_epsilon(current, accept);
            }
        }
    }

    /// ε-closure of one state.
    fn closure(&self, state: usize) -> Vec<usize> {
        let mut seen = vec![false; self.labelled.len()];
        let mut stack = vec![state];
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            out.push(s);
            for &t in &self.epsilon[s] {
                stack.push(t);
            }
        }
        out
    }

    /// Eliminates ε-transitions, producing the final [`Nfa`].
    ///
    /// The ε-free automaton keeps the same state ids; state `s` gets every
    /// labelled transition reachable from its ε-closure, and is accepting if
    /// its closure contains the accept state. Unreachable states are kept
    /// (harmless) so ids stay stable; state 0 is the start.
    fn into_epsilon_free(self, start: usize, accept: usize) -> Nfa {
        let n = self.labelled.len();
        let mut transitions = vec![Vec::new(); n];
        let mut accepting = vec![false; n];
        // Dedup per state with a hash set instead of `Vec::contains`: states
        // in alternation-heavy expressions accumulate hundreds of transitions
        // through their ε-closures, and the linear re-scan per candidate made
        // construction quadratic in that degree.
        let mut seen: HashSet<(LabelSpec, usize)> = HashSet::new();
        for s in 0..n {
            let closure = self.closure(s);
            if closure.contains(&accept) {
                accepting[s] = true;
            }
            seen.clear();
            for &c in &closure {
                for &(spec, to) in &self.labelled[c] {
                    if seen.insert((spec, to)) {
                        transitions[s].push((spec, to));
                    }
                }
            }
        }
        debug_assert_eq!(start, 0, "the start state is always created first");
        Nfa { transitions, accepting, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_store::Label;

    /// Checks whether the NFA accepts a given label sequence, by brute force.
    fn accepts(nfa: &Nfa, labels: &[Label]) -> bool {
        let mut states = vec![nfa.start()];
        for &label in labels {
            let mut next = Vec::new();
            for &s in &states {
                for &(spec, to) in nfa.transitions_from(s) {
                    if spec.matches(label) && !next.contains(&to) {
                        next.push(to);
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|&s| nfa.is_accepting(s))
    }

    #[test]
    fn k_hop_accepts_exactly_k_edges() {
        let nfa = Nfa::from_expr(&RpqExpr::k_hop(3));
        assert!(!accepts(&nfa, &[Label(0); 2]));
        assert!(accepts(&nfa, &[Label(0); 3]));
        assert!(accepts(&nfa, &[Label(1), Label(2), Label(3)]));
        assert!(!accepts(&nfa, &[Label(0); 4]));
        assert!(!nfa.accepts_empty());
    }

    #[test]
    fn concat_requires_label_sequence() {
        let expr = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2)]);
        let nfa = Nfa::from_expr(&expr);
        assert!(accepts(&nfa, &[Label(1), Label(2)]));
        assert!(!accepts(&nfa, &[Label(2), Label(1)]));
        assert!(!accepts(&nfa, &[Label(1)]));
    }

    #[test]
    fn alternation_accepts_either_branch() {
        let expr = RpqExpr::alt(vec![RpqExpr::label(1), RpqExpr::label(2)]);
        let nfa = Nfa::from_expr(&expr);
        assert!(accepts(&nfa, &[Label(1)]));
        assert!(accepts(&nfa, &[Label(2)]));
        assert!(!accepts(&nfa, &[Label(3)]));
    }

    #[test]
    fn star_accepts_zero_or_more() {
        let expr = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        let nfa = Nfa::from_expr(&expr);
        assert!(nfa.accepts_empty());
        assert!(accepts(&nfa, &[]));
        assert!(accepts(&nfa, &[Label(1)]));
        assert!(accepts(&nfa, &[Label(1); 5]));
        assert!(!accepts(&nfa, &[Label(2)]));
    }

    #[test]
    fn plus_requires_at_least_one() {
        let expr = RpqExpr::Plus(Box::new(RpqExpr::label(1)));
        let nfa = Nfa::from_expr(&expr);
        assert!(!nfa.accepts_empty());
        assert!(accepts(&nfa, &[Label(1)]));
        assert!(accepts(&nfa, &[Label(1), Label(1)]));
    }

    #[test]
    fn optional_accepts_zero_or_one() {
        let expr = RpqExpr::Optional(Box::new(RpqExpr::label(1)));
        let nfa = Nfa::from_expr(&expr);
        assert!(nfa.accepts_empty());
        assert!(accepts(&nfa, &[Label(1)]));
        assert!(!accepts(&nfa, &[Label(1), Label(1)]));
    }

    #[test]
    fn bounded_repeat_respects_range() {
        let expr = RpqExpr::Repeat { expr: Box::new(RpqExpr::label(1)), min: 1, max: 3 };
        let nfa = Nfa::from_expr(&expr);
        assert!(!accepts(&nfa, &[]));
        assert!(accepts(&nfa, &[Label(1)]));
        assert!(accepts(&nfa, &[Label(1); 2]));
        assert!(accepts(&nfa, &[Label(1); 3]));
        assert!(!accepts(&nfa, &[Label(1); 4]));
    }

    #[test]
    #[should_panic(expected = "NFA construction cap")]
    fn oversized_programmatic_repeat_panics_instead_of_allocating() {
        // Programmatic expressions bypass the parser's MAX_REPEAT check; the
        // construction cap turns the would-be OOM into a fast panic.
        let expr =
            RpqExpr::Repeat { expr: Box::new(RpqExpr::label(1)), min: 1 << 30, max: 1 << 30 };
        let _ = Nfa::from_expr(&expr);
    }

    #[test]
    fn complex_expression() {
        // 1/(2|3)*/4
        let expr = RpqExpr::concat(vec![
            RpqExpr::label(1),
            RpqExpr::Star(Box::new(RpqExpr::alt(vec![RpqExpr::label(2), RpqExpr::label(3)]))),
            RpqExpr::label(4),
        ]);
        let nfa = Nfa::from_expr(&expr);
        assert!(accepts(&nfa, &[Label(1), Label(4)]));
        assert!(accepts(&nfa, &[Label(1), Label(2), Label(3), Label(4)]));
        assert!(!accepts(&nfa, &[Label(1), Label(5), Label(4)]));
        assert!(nfa.state_count() > 2);
    }
}
