//! The property-graph data model.
//!
//! Graph databases represent data with the property graph model: nodes are
//! entities, directed edges are relationships, and both carry labels and
//! property/value pairs. The paper strips non-essential features down to an
//! adjacency matrix for path matching; this module keeps the full model so the
//! examples can show realistic ingestion (e.g. the routing-connection graph of
//! Figure 2 with `ip` properties) while the query engines operate on the
//! simplified adjacency view extracted by [`PropertyGraph::to_adjacency`].

use crate::adjacency::AdjacencyGraph;
use crate::error::GraphStoreError;
use crate::ids::{IdMap, Label, LabeledEdgeKey, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A property value attached to a node or an edge.
///
/// # Examples
///
/// ```
/// use graph_store::PropertyValue;
/// let v = PropertyValue::from("127.0.0.1");
/// assert_eq!(v.as_str(), Some("127.0.0.1"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropertyValue {
    /// UTF-8 string value.
    Text(String),
    /// 64-bit signed integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
}

impl PropertyValue {
    /// Returns the string content if this value is [`PropertyValue::Text`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropertyValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content if this value is [`PropertyValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropertyValue::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<&str> for PropertyValue {
    fn from(s: &str) -> Self {
        PropertyValue::Text(s.to_owned())
    }
}

impl From<String> for PropertyValue {
    fn from(s: String) -> Self {
        PropertyValue::Text(s)
    }
}

impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::Int(v)
    }
}

impl From<f64> for PropertyValue {
    fn from(v: f64) -> Self {
        PropertyValue::Float(v)
    }
}

impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Text(s) => write!(f, "{s}"),
            PropertyValue::Int(v) => write!(f, "{v}"),
            PropertyValue::Float(v) => write!(f, "{v}"),
            PropertyValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Properties of a single node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeRecord {
    /// Node label (entity type), e.g. `Host`, `Person`.
    pub label: String,
    /// Property/value pairs describing the entity.
    pub properties: HashMap<String, PropertyValue>,
}

/// Properties of a single directed edge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// Relationship label id used by the RPQ engine.
    pub label: Label,
    /// Property/value pairs describing the relationship.
    pub properties: HashMap<String, PropertyValue>,
}

/// An in-memory property graph: nodes and relationships with attributes.
///
/// # Examples
///
/// ```
/// use graph_store::{PropertyGraph, PropertyValue, Label, NodeId};
///
/// let mut g = PropertyGraph::new();
/// let a = g.add_node("Host", [("ip", PropertyValue::from("10.0.0.1"))]);
/// let b = g.add_node("Host", [("ip", PropertyValue::from("10.0.0.2"))]);
/// g.add_edge(a, b, Label(0))?;
/// assert_eq!(g.node_count(), 2);
/// let adj = g.to_adjacency();
/// assert_eq!(adj.edge_count(), 1);
/// # Ok::<(), graph_store::GraphStoreError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PropertyGraph {
    nodes: IdMap<NodeId, NodeRecord>,
    edges: IdMap<LabeledEdgeKey, EdgeRecord>,
    next_id: u64,
}

impl PropertyGraph {
    /// Creates an empty property graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given entity label and properties, returning its id.
    pub fn add_node<K, I>(&mut self, label: &str, props: I) -> NodeId
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, PropertyValue)>,
    {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(
            id,
            NodeRecord {
                label: label.to_owned(),
                properties: props.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            },
        );
        id
    }

    /// Adds a directed relationship between two existing nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphStoreError::NodeNotFound`] if either endpoint is unknown
    /// and [`GraphStoreError::DuplicateEdge`] if the relationship already
    /// exists with the same label.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: Label,
    ) -> Result<(), GraphStoreError> {
        if !self.nodes.contains_key(&src) {
            return Err(GraphStoreError::NodeNotFound(src));
        }
        if !self.nodes.contains_key(&dst) {
            return Err(GraphStoreError::NodeNotFound(dst));
        }
        if self.edges.contains_key(&(src, dst, label)) {
            return Err(GraphStoreError::DuplicateEdge(src, dst));
        }
        self.edges.insert((src, dst, label), EdgeRecord { label, properties: HashMap::new() });
        Ok(())
    }

    /// Looks up a node record.
    pub fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(&id)
    }

    /// Returns the lowest-id node whose property `key` equals `value`.
    ///
    /// This is a full scan — property indexes are out of scope for the
    /// reproduction — and is only used by examples for readability. The
    /// lowest id (not the first hash-order hit) is returned so repeated
    /// runs resolve multi-match lookups identically.
    pub fn find_by_property(&self, key: &str, value: &PropertyValue) -> Option<NodeId> {
        // moctopus-lint: allow(hash-iter-order, reason = "reduced with min(): the lowest matching id is order-independent")
        self.nodes
            .iter()
            .filter(|(_, rec)| rec.properties.get(key) == Some(value))
            .map(|(&id, _)| id)
            .min()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of relationships.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Extracts the simplified adjacency view used by the query engines.
    ///
    /// Labels are preserved; node/edge properties are dropped, mirroring the
    /// paper's simplification of the property graph to an adjacency matrix.
    /// Nodes and edges are inserted in sorted order so the view's row layout
    /// (and therefore its row-scan and snapshot bytes) is identical on every
    /// run — the adjacency rows preserve insertion order verbatim.
    pub fn to_adjacency(&self) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::with_capacity(self.nodes.len());
        // moctopus-lint: allow(hash-iter-order, reason = "collected and sorted before insertion two lines below")
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            g.note_node(id);
        }
        // moctopus-lint: allow(hash-iter-order, reason = "collected and sorted before insertion two lines below")
        let mut edge_keys: Vec<(NodeId, NodeId, Label)> = self.edges.keys().copied().collect();
        edge_keys.sort_unstable();
        for (s, d, l) in edge_keys {
            g.insert_edge(s, d, l);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routing_graph() -> (PropertyGraph, Vec<NodeId>) {
        // Miniature version of the Figure 2 routing-connection graph.
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| g.add_node("Host", [("ip", PropertyValue::from(format!("127.0.0.{i}")))]))
            .collect();
        g.add_edge(ids[0], ids[1], Label(0)).unwrap();
        g.add_edge(ids[1], ids[2], Label(0)).unwrap();
        g.add_edge(ids[2], ids[3], Label(0)).unwrap();
        g.add_edge(ids[3], ids[4], Label(0)).unwrap();
        (g, ids)
    }

    #[test]
    fn add_node_assigns_sequential_ids() {
        let (_, ids) = routing_graph();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn add_edge_requires_existing_endpoints() {
        let (mut g, ids) = routing_graph();
        let err = g.add_edge(ids[0], NodeId(999), Label(0)).unwrap_err();
        assert_eq!(err, GraphStoreError::NodeNotFound(NodeId(999)));
    }

    #[test]
    fn add_edge_rejects_duplicates() {
        let (mut g, ids) = routing_graph();
        let err = g.add_edge(ids[0], ids[1], Label(0)).unwrap_err();
        assert!(matches!(err, GraphStoreError::DuplicateEdge(_, _)));
    }

    #[test]
    fn find_by_property_scans_nodes() {
        let (g, ids) = routing_graph();
        let hit = g.find_by_property("ip", &PropertyValue::from("127.0.0.3"));
        assert_eq!(hit, Some(ids[3]));
        assert_eq!(g.find_by_property("ip", &PropertyValue::from("10.1.1.1")), None);
    }

    #[test]
    fn to_adjacency_preserves_structure() {
        let (g, _) = routing_graph();
        let adj = g.to_adjacency();
        assert_eq!(adj.node_count(), g.node_count());
        assert_eq!(adj.edge_count(), g.edge_count());
        assert_eq!(adj.out_degree(NodeId(0)), 1);
    }

    #[test]
    fn property_value_conversions() {
        assert_eq!(PropertyValue::from(3i64).as_int(), Some(3));
        assert_eq!(PropertyValue::from("x").as_str(), Some("x"));
        assert_eq!(PropertyValue::from(true), PropertyValue::Bool(true));
        assert_eq!(PropertyValue::from(2.5f64), PropertyValue::Float(2.5));
        assert_eq!(PropertyValue::from(String::from("y")).to_string(), "y");
        assert_eq!(PropertyValue::Int(9).to_string(), "9");
    }

    #[test]
    fn node_lookup_returns_record() {
        let (g, ids) = routing_graph();
        let rec = g.node(ids[2]).unwrap();
        assert_eq!(rec.label, "Host");
        assert_eq!(rec.properties["ip"].as_str(), Some("127.0.0.2"));
        assert!(g.node(NodeId(1000)).is_none());
    }
}
