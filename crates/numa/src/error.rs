//! Error type shared by the NUMA model.

use std::fmt;

/// Errors produced while building or querying a NUMA topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumaError {
    /// A socket id referenced a socket that does not exist.
    UnknownSocket(usize),
    /// A NUMA node id referenced a node that does not exist.
    UnknownNode(usize),
    /// A core id referenced a core that does not exist.
    UnknownCore(usize),
    /// A topology was constructed with no compute cores at all.
    EmptyTopology,
    /// The requested thread count cannot be placed with the given policy
    /// (for example more threads than hardware threads with binding enabled).
    PlacementOverflow {
        /// Number of threads requested.
        requested: usize,
        /// Number of placement slots available.
        available: usize,
    },
    /// A distance matrix was given with dimensions that do not match the
    /// number of NUMA nodes.
    MalformedDistanceMatrix {
        /// Number of nodes in the topology.
        nodes: usize,
        /// Number of rows provided.
        rows: usize,
    },
}

impl fmt::Display for NumaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumaError::UnknownSocket(id) => write!(f, "unknown socket id {id}"),
            NumaError::UnknownNode(id) => write!(f, "unknown NUMA node id {id}"),
            NumaError::UnknownCore(id) => write!(f, "unknown core id {id}"),
            NumaError::EmptyTopology => write!(f, "topology has no compute cores"),
            NumaError::PlacementOverflow {
                requested,
                available,
            } => write!(
                f,
                "cannot place {requested} threads on {available} available hardware threads"
            ),
            NumaError::MalformedDistanceMatrix { nodes, rows } => write!(
                f,
                "distance matrix has {rows} rows but the topology has {nodes} NUMA nodes"
            ),
        }
    }
}

impl std::error::Error for NumaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = NumaError::PlacementOverflow {
            requested: 40,
            available: 20,
        };
        let msg = err.to_string();
        assert!(msg.contains("40"));
        assert!(msg.contains("20"));
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(NumaError::UnknownNode(2), NumaError::UnknownNode(2));
        assert_ne!(NumaError::UnknownNode(2), NumaError::UnknownNode(3));
    }
}
