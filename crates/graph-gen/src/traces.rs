//! Specifications of the 15 SNAP traces from Table 1 of the paper.
//!
//! Each [`TraceSpec`] records the published node count and high-degree-node
//! percentage, plus the generator family and parameters that reproduce the
//! trace's degree distribution and locality synthetically. The average-degree
//! figures come from the public SNAP dataset pages.

use crate::powerlaw::{self, PowerLawConfig};
use crate::road;
use crate::uniform;
use graph_store::AdjacencyGraph;

/// The structural family a trace belongs to, which selects the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// Near-planar road networks (traces #1–#3): no hubs, high locality.
    Road,
    /// Power-law web/social/citation/communication graphs with hubs.
    PowerLaw,
    /// Bounded-degree co-purchase graphs (traces #13–#15): no hubs.
    Uniform,
}

/// Specification of one evaluation trace (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Trace id used throughout the paper's figures (#1–#15).
    pub trace_id: usize,
    /// SNAP dataset name.
    pub name: &'static str,
    /// Number of nodes in the original trace.
    pub nodes: usize,
    /// Percentage of high-degree nodes (out-degree > 16) reported in Table 1.
    pub high_degree_pct: f64,
    /// Approximate average out-degree of the original trace.
    pub avg_degree: f64,
    /// Generator family used for the synthetic stand-in.
    pub family: GraphFamily,
}

/// All 15 traces of Table 1, in trace-id order.
pub const TABLE1: [TraceSpec; 15] = [
    TraceSpec {
        trace_id: 1,
        name: "roadNet-CA",
        nodes: 1_965_206,
        high_degree_pct: 0.0,
        avg_degree: 2.8,
        family: GraphFamily::Road,
    },
    TraceSpec {
        trace_id: 2,
        name: "roadNet-PA",
        nodes: 1_088_092,
        high_degree_pct: 0.0,
        avg_degree: 2.8,
        family: GraphFamily::Road,
    },
    TraceSpec {
        trace_id: 3,
        name: "roadNet-TX",
        nodes: 1_379_917,
        high_degree_pct: 0.0,
        avg_degree: 2.8,
        family: GraphFamily::Road,
    },
    TraceSpec {
        trace_id: 4,
        name: "cit-Patents",
        nodes: 3_774_768,
        high_degree_pct: 2.83,
        avg_degree: 4.4,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 5,
        name: "com-youtube",
        nodes: 1_134_890,
        high_degree_pct: 2.07,
        avg_degree: 2.6,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 6,
        name: "com-DBLP",
        nodes: 317_080,
        high_degree_pct: 3.10,
        avg_degree: 3.3,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 7,
        name: "com-amazon",
        nodes: 334_863,
        high_degree_pct: 0.62,
        avg_degree: 2.8,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 8,
        name: "wiki-Talk",
        nodes: 2_394_385,
        high_degree_pct: 0.50,
        avg_degree: 2.1,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 9,
        name: "email-EuAll",
        nodes: 265_214,
        high_degree_pct: 0.29,
        avg_degree: 1.6,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 10,
        name: "web-Google",
        nodes: 875_713,
        high_degree_pct: 1.29,
        avg_degree: 5.8,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 11,
        name: "web-NotreDame",
        nodes: 325_729,
        high_degree_pct: 2.86,
        avg_degree: 4.6,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 12,
        name: "web-Stanford",
        nodes: 281_903,
        high_degree_pct: 4.84,
        avg_degree: 8.2,
        family: GraphFamily::PowerLaw,
    },
    TraceSpec {
        trace_id: 13,
        name: "amazon0312",
        nodes: 262_111,
        high_degree_pct: 0.0,
        avg_degree: 4.0,
        family: GraphFamily::Uniform,
    },
    TraceSpec {
        trace_id: 14,
        name: "amazon0505",
        nodes: 410_236,
        high_degree_pct: 0.0,
        avg_degree: 4.0,
        family: GraphFamily::Uniform,
    },
    TraceSpec {
        trace_id: 15,
        name: "amazon0601",
        nodes: 403_394,
        high_degree_pct: 0.0,
        avg_degree: 4.0,
        family: GraphFamily::Uniform,
    },
];

impl TraceSpec {
    /// Returns the spec for a paper trace id (1–15).
    pub fn by_trace_id(trace_id: usize) -> Option<&'static TraceSpec> {
        TABLE1.iter().find(|t| t.trace_id == trace_id)
    }

    /// The traces the paper groups as "highly skewed" (#5, #6, #8, #11, #12).
    pub fn high_skew_ids() -> &'static [usize] {
        &[5, 6, 8, 11, 12]
    }

    /// Node count after applying a uniform `scale` factor (at least 64 nodes).
    pub fn scaled_nodes(&self, scale: f64) -> usize {
        ((self.nodes as f64 * scale) as usize).max(64)
    }

    /// Generates the synthetic stand-in graph at the given scale.
    ///
    /// `scale = 1.0` reproduces the original node count; benchmarks default to
    /// a smaller scale so full figure sweeps finish quickly.
    pub fn generate(&self, scale: f64, seed: u64) -> AdjacencyGraph {
        let nodes = self.scaled_nodes(scale);
        match self.family {
            GraphFamily::Road => road::generate(nodes, 0.08, seed),
            GraphFamily::Uniform => uniform::generate(nodes, self.avg_degree, seed),
            GraphFamily::PowerLaw => {
                let cfg = PowerLawConfig {
                    nodes,
                    high_degree_fraction: self.high_degree_pct / 100.0,
                    mean_low_degree: self.avg_degree.min(8.0),
                    mean_high_degree: 64.0,
                    locality: 0.8,
                    community_size: 256,
                    hub_in_bias: 0.25,
                };
                powerlaw::generate(&cfg, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_fifteen_traces_in_order() {
        assert_eq!(TABLE1.len(), 15);
        for (i, t) in TABLE1.iter().enumerate() {
            assert_eq!(t.trace_id, i + 1);
        }
    }

    #[test]
    fn lookup_by_id_and_name() {
        assert_eq!(TraceSpec::by_trace_id(8).unwrap().name, "wiki-Talk");
        assert_eq!(TraceSpec::by_trace_id(12).unwrap().name, "web-Stanford");
        assert!(TraceSpec::by_trace_id(16).is_none());
    }

    #[test]
    fn road_traces_have_zero_high_degree() {
        for id in [1, 2, 3] {
            let t = TraceSpec::by_trace_id(id).unwrap();
            assert_eq!(t.family, GraphFamily::Road);
            assert_eq!(t.high_degree_pct, 0.0);
        }
    }

    #[test]
    fn skew_groups_match_paper() {
        assert_eq!(TraceSpec::high_skew_ids().len(), 5);
        for id in TraceSpec::high_skew_ids() {
            assert!(TraceSpec::by_trace_id(*id).unwrap().high_degree_pct > 0.4);
        }
    }

    #[test]
    fn scaled_nodes_has_a_floor() {
        let t = TraceSpec::by_trace_id(1).unwrap();
        assert_eq!(t.scaled_nodes(1.0), t.nodes);
        assert_eq!(t.scaled_nodes(0.0), 64);
    }

    #[test]
    fn generated_road_trace_has_no_hubs() {
        let t = TraceSpec::by_trace_id(2).unwrap();
        let g = t.generate(0.001, 1);
        assert_eq!(g.count_high_degree(16), 0);
        assert!(g.node_count() >= 1000);
    }

    #[test]
    fn generated_skewed_trace_has_hubs() {
        let t = TraceSpec::by_trace_id(12).unwrap(); // web-Stanford, 4.84 %
        let g = t.generate(0.02, 1);
        let pct = 100.0 * g.count_high_degree(16) as f64 / g.node_count() as f64;
        assert!(pct > 1.0, "expected hubs, observed {pct:.2}%");
    }
}
