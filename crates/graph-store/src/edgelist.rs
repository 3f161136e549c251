//! SNAP-style edge-list import.
//!
//! The SNAP datasets the paper evaluates on are distributed as whitespace
//! separated `src dst` text files with `#` comment lines. This module parses
//! that format, with an optional label column, so externally downloaded
//! traces can be dropped in as a substitute for the synthetic generators.

use crate::error::GraphStoreError;
use crate::ids::{Label, NodeId};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// A labelled edge list loaded from a SNAP-style file, with the original
/// node ids compacted into a dense `0..node_count` range.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeListLoad {
    /// The labelled edges in file order, endpoints remapped to compact ids.
    pub edges: Vec<(NodeId, NodeId, Label)>,
    /// Compact id → original file id, in first-appearance order. The
    /// compaction is deterministic: the n-th distinct id the file mentions
    /// (reading top to bottom, `src` before `dst`) becomes `NodeId(n)`.
    pub id_map: Vec<u64>,
    /// Data lines parsed (comments and blanks excluded).
    pub lines: usize,
}

impl EdgeListLoad {
    /// Number of distinct nodes the file mentioned.
    pub fn node_count(&self) -> usize {
        self.id_map.len()
    }
}

/// Parses a SNAP-style labelled edge list: `src dst [label]` per line.
///
/// Lines starting with `#` (or empty lines) are ignored. The third column is
/// optional and defaults to [`Label::ANY`]; files mixing labelled and
/// unlabelled lines are accepted. Node ids are compacted deterministically in
/// first-appearance order (see [`EdgeListLoad::id_map`]), so sparse SNAP id
/// spaces map onto the dense ids the partition vector is sized by.
///
/// # Errors
///
/// Returns [`GraphStoreError::ParseEdgeList`] naming the offending line and
/// its number for malformed input, and [`GraphStoreError::Io`]-style context
/// via the caller for I/O failures (see [`load_labeled_edge_list_file`]).
///
/// # Examples
///
/// ```
/// use graph_store::edgelist::read_labeled_edge_list;
/// use graph_store::{Label, NodeId};
/// let text = "# comment\n10 30\n30 10 2\n";
/// let load = read_labeled_edge_list(text.as_bytes())?;
/// assert_eq!(load.edges, vec![
///     (NodeId(0), NodeId(1), Label::ANY),
///     (NodeId(1), NodeId(0), Label(2)),
/// ]);
/// assert_eq!(load.id_map, vec![10, 30]);
/// # Ok::<(), graph_store::GraphStoreError>(())
/// ```
pub fn read_labeled_edge_list<R: BufRead>(reader: R) -> Result<EdgeListLoad, GraphStoreError> {
    let mut load = EdgeListLoad::default();
    let mut compact: HashMap<u64, NodeId> = HashMap::new();
    let mut intern = |raw: u64, id_map: &mut Vec<u64>| -> NodeId {
        *compact.entry(raw).or_insert_with(|| {
            id_map.push(raw);
            NodeId(id_map.len() as u64 - 1)
        })
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| GraphStoreError::ParseEdgeList(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = || GraphStoreError::ParseEdgeList(format!("line {}: {line:?}", lineno + 1));
        let mut parts = trimmed.split_whitespace();
        let src = parts.next().and_then(|t| t.parse::<u64>().ok()).ok_or_else(bad)?;
        let dst = parts.next().and_then(|t| t.parse::<u64>().ok()).ok_or_else(bad)?;
        let label = match parts.next() {
            Some(t) => Label(t.parse::<u16>().map_err(|_| bad())?),
            None => Label::ANY,
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        let src = intern(src, &mut load.id_map);
        let dst = intern(dst, &mut load.id_map);
        load.edges.push((src, dst, label));
        load.lines += 1;
    }
    Ok(load)
}

/// Opens and parses a SNAP-style labelled edge-list file.
///
/// # Errors
///
/// I/O failures carry the path via [`GraphStoreError::Io`]; malformed lines
/// are reported as in [`read_labeled_edge_list`].
pub fn load_labeled_edge_list_file(path: &Path) -> Result<EdgeListLoad, GraphStoreError> {
    let file =
        std::fs::File::open(path).map_err(|e| GraphStoreError::io(path, "open edge list", &e))?;
    read_labeled_edge_list(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# SNAP header\n\n0 1\n1\t2\n  2   0  \n";
        let load = read_labeled_edge_list(text.as_bytes()).unwrap();
        assert_eq!(load.lines, 3);
        let [a, b, c] = [0, 1, 2].map(NodeId);
        assert_eq!(load.edges, vec![(a, b, Label::ANY), (b, c, Label::ANY), (c, a, Label::ANY)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = read_labeled_edge_list("0 1\nnot numbers\n".as_bytes()).unwrap_err();
        match err {
            GraphStoreError::ParseEdgeList(msg) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        // One column is not an edge.
        assert!(read_labeled_edge_list("0\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let load = read_labeled_edge_list("".as_bytes()).unwrap();
        assert_eq!(load, EdgeListLoad::default());
    }

    fn fixture_path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/snap_toy.txt")
    }

    #[test]
    fn labelled_loader_parses_the_checked_in_fixture() {
        let load = load_labeled_edge_list_file(&fixture_path()).unwrap();
        assert_eq!(load.lines, 6);
        assert_eq!(load.node_count(), 4);
        // First-appearance compaction: 100, 7, 42, 9000000000.
        assert_eq!(load.id_map, vec![100, 7, 42, 9_000_000_000]);
        assert_eq!(
            load.edges,
            vec![
                (NodeId(0), NodeId(1), Label::ANY),
                (NodeId(1), NodeId(0), Label(3)),
                (NodeId(2), NodeId(0), Label::ANY),
                (NodeId(2), NodeId(1), Label(1)),
                (NodeId(2), NodeId(3), Label(2)),
                (NodeId(3), NodeId(2), Label::ANY),
            ]
        );
    }

    #[test]
    fn compaction_is_deterministic_across_reloads() {
        let a = load_labeled_edge_list_file(&fixture_path()).unwrap();
        let b = load_labeled_edge_list_file(&fixture_path()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labelled_loader_rejects_bad_lines_with_line_numbers() {
        let err = read_labeled_edge_list("0 1\n1 2 notalabel\n".as_bytes()).unwrap_err();
        match err {
            GraphStoreError::ParseEdgeList(msg) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        // A fourth column is malformed, not silently ignored.
        assert!(read_labeled_edge_list("0 1 2 3\n".as_bytes()).is_err());
        // Labels must fit u16.
        assert!(read_labeled_edge_list("0 1 70000\n".as_bytes()).is_err());
    }

    #[test]
    fn missing_edge_list_file_reports_io_context() {
        let err =
            load_labeled_edge_list_file(std::path::Path::new("/nonexistent/xyz.txt")).unwrap_err();
        match err {
            GraphStoreError::Io { path, op, .. } => {
                assert!(path.contains("xyz.txt"));
                assert_eq!(op, "open edge list");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
