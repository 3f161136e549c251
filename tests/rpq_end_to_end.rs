//! End-to-end RPQ pipeline tests: text syntax -> AST -> automaton ->
//! evaluation, cross-checked against the host baseline's matrix chains.

use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig};
use proptest::prelude::*;
use rpq::{parser, ReferenceEvaluator, RpqExpr};

/// A small multi-label graph: a ring over label 0 with chords over label 1.
fn labelled_graph(n: u64) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new();
    for i in 0..n {
        g.insert_edge(NodeId(i), NodeId((i + 1) % n), Label(0));
        if i % 3 == 0 {
            g.insert_edge(NodeId(i), NodeId((i + 5) % n), Label(1));
        }
    }
    g
}

/// A host baseline holding exactly `graph`'s labelled edges.
fn host_baseline(graph: &AdjacencyGraph) -> HostBaseline {
    let mut engine = HostBaseline::new(MoctopusConfig::small_test());
    engine.insert_labeled_edges(&graph.to_sorted_edges());
    engine
}

#[test]
fn parsed_k_hop_matches_matrix_plan() {
    let g = labelled_graph(40);
    let mut engine = host_baseline(&g);
    let reference = ReferenceEvaluator::new(&g);
    let sources: Vec<NodeId> = (0..10u64).map(NodeId).collect();

    for k in 1..=4usize {
        let expr = parser::parse(&format!(".{{{k}}}")).expect("valid query text");
        assert_eq!(expr, RpqExpr::k_hop(k));
        let (matrix_results, stats) = engine.rpq_batch(&expr, &sources);
        assert_eq!(stats.hops, k, "a k-hop query runs as a k-step matrix chain");
        let nfa_results = reference.evaluate(&expr, &sources);
        for (m, n) in matrix_results.iter().zip(nfa_results.iter()) {
            let n: Vec<NodeId> = n.iter().copied().collect();
            assert_eq!(m, &n, "matrix plan and automaton disagree at k = {k}");
        }
    }
}

#[test]
fn label_constrained_chain_matches_automaton() {
    let g = labelled_graph(30);
    let mut engine = host_baseline(&g);
    let reference = ReferenceEvaluator::new(&g);
    let sources: Vec<NodeId> = (0..30u64).map(NodeId).collect();

    for (text, hops) in [("0/0", 2), ("1/0", 2), ("0/1/0", 3), ("1", 1), ("(0){3}", 3)] {
        let expr = parser::parse(text).expect("valid query text");
        let (matrix_results, stats) = engine.rpq_batch(&expr, &sources);
        assert_eq!(stats.hops, hops, "{text:?} runs as a matrix chain, one level per hop");
        let nfa_results = reference.evaluate(&expr, &sources);
        for (i, (m, n)) in matrix_results.iter().zip(nfa_results.iter()).enumerate() {
            let n: Vec<NodeId> = n.iter().copied().collect();
            assert_eq!(m, &n, "query {text:?} disagrees for source {i}");
        }
    }
}

#[test]
fn unbounded_queries_fall_back_to_the_automaton() {
    let g = labelled_graph(20);
    let reference = ReferenceEvaluator::new(&g);
    // Transitive closure over label 0 from node 0 reaches the whole ring.
    let expr = parser::parse("0+").expect("valid query text");
    let results = reference.evaluate(&expr, &[NodeId(0)]);
    assert_eq!(results[0].len(), 20);
    // No matrix chain has a fixed length for it: the host baseline sweeps
    // the automaton, one level per ring step (the last one finds nothing
    // new), and agrees with the reference.
    let (swept, stats) = host_baseline(&g).rpq_batch(&expr, &[NodeId(0)]);
    assert_eq!(swept[0], results[0].iter().copied().collect::<Vec<_>>());
    assert_eq!(stats.hops, 21);
}

#[test]
fn figure2_query_text_end_to_end() {
    // The paper's Figure 2 batch 2-hop query, expressed in the text syntax.
    let mut g = AdjacencyGraph::new();
    for (s, d) in [
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 5),
        (3, 6),
        (3, 9),
        (4, 5),
        (5, 6),
        (5, 8),
        (6, 9),
        (8, 9),
    ] {
        g.insert_edge(NodeId(s), NodeId(d), Label::ANY);
    }
    let expr = parser::parse(".{2}").expect("valid query text");
    let results = ReferenceEvaluator::new(&g).evaluate(&expr, &[NodeId(2), NodeId(3)]);
    let row2: Vec<u64> = results[0].iter().map(|n| n.0).collect();
    let row3: Vec<u64> = results[1].iter().map(|n| n.0).collect();
    assert_eq!(row2, vec![6, 8, 9]);
    assert_eq!(row3, vec![9]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Display output of any parsed expression re-parses to the same AST.
    #[test]
    fn display_parse_roundtrip(text in "(\\.|[0-9]{1,2})(/(\\.|[0-9]{1,2})){0,4}") {
        if let Ok(expr) = parser::parse(&text) {
            let reparsed = parser::parse(&expr.to_string()).expect("display output must parse");
            prop_assert_eq!(expr, reparsed);
        }
    }

    /// For random graphs and k, the matrix plan and the automaton agree.
    #[test]
    fn matrix_and_automaton_agree(seed in 0u64..500, k in 1usize..4) {
        let graph = graph_gen::uniform::generate(120, 3.0, seed);
        let mut engine = host_baseline(&graph);
        let reference = ReferenceEvaluator::new(&graph);
        let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();
        let expr = RpqExpr::k_hop(k);
        let (matrix_results, _) = engine.k_hop_batch(&sources, k);
        let nfa_results = reference.evaluate(&expr, &sources);
        for (m, n) in matrix_results.iter().zip(nfa_results.iter()) {
            let n: Vec<NodeId> = n.iter().copied().collect();
            prop_assert_eq!(m, &n);
        }
    }
}
