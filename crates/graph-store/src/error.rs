//! Error type returned by graph storage operations.

use crate::ids::NodeId;
use std::error::Error;
use std::fmt;

/// Errors produced by graph storage structures.
///
/// # Examples
///
/// ```
/// use graph_store::{GraphStoreError, NodeId};
/// let err = GraphStoreError::NodeNotFound(NodeId(9));
/// assert_eq!(err.to_string(), "node n9 not found");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphStoreError {
    /// A node referenced by the operation does not exist.
    NodeNotFound(NodeId),
    /// The edge referenced by the operation does not exist.
    EdgeNotFound(NodeId, NodeId),
    /// The input (e.g. an edge-list line) could not be parsed.
    ParseEdgeList(String),
    /// An I/O operation on a durability or edge-list file failed.
    Io {
        /// File the operation targeted.
        path: String,
        /// What was being attempted (e.g. `"append wal record"`).
        op: String,
        /// The underlying OS error message.
        detail: String,
    },
    /// On-disk bytes failed validation (magic, version, framing or checksum).
    Corrupt {
        /// File the bytes came from.
        path: String,
        /// Byte offset where validation failed.
        offset: u64,
        /// Index of the record (or section) being decoded when it failed.
        record: u64,
        /// What failed to validate.
        detail: String,
    },
}

impl GraphStoreError {
    /// Wraps a [`std::io::Error`] with the file and operation it hit.
    ///
    /// The variant stores rendered strings (not the source error) so the
    /// enum stays [`Clone`] + [`Eq`] for callers that compare outcomes.
    pub fn io(path: &std::path::Path, op: &str, err: &std::io::Error) -> Self {
        GraphStoreError::Io {
            path: path.display().to_string(),
            op: op.to_string(),
            detail: err.to_string(),
        }
    }

    /// Builds a [`GraphStoreError::Corrupt`] with full location context.
    pub fn corrupt(path: &std::path::Path, offset: u64, record: u64, detail: &str) -> Self {
        GraphStoreError::Corrupt {
            path: path.display().to_string(),
            offset,
            record,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for GraphStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphStoreError::NodeNotFound(n) => write!(f, "node {n} not found"),
            GraphStoreError::EdgeNotFound(s, d) => write!(f, "edge {s} -> {d} not found"),
            GraphStoreError::ParseEdgeList(line) => {
                write!(f, "malformed edge-list line: {line:?}")
            }
            GraphStoreError::Io { path, op, detail } => {
                write!(f, "io error on {path} while trying to {op}: {detail}")
            }
            GraphStoreError::Corrupt { path, offset, record, detail } => {
                write!(f, "corrupt file {path} at byte {offset} (record {record}): {detail}")
            }
        }
    }
}

impl Error for GraphStoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(GraphStoreError, &str)> = vec![
            (GraphStoreError::NodeNotFound(NodeId(1)), "node n1 not found"),
            (GraphStoreError::EdgeNotFound(NodeId(1), NodeId(2)), "edge n1 -> n2 not found"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphStoreError>();
    }
}
