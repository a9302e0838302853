//! Error type for the memory simulator.

use std::fmt;

/// Errors produced while building machines or simulating traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A NUMA node has no memory device attached.
    MissingDevice(usize),
    /// No path (sequence of links) is defined from a socket to a node.
    MissingPath {
        /// Socket the access originates from.
        socket: usize,
        /// Target NUMA node.
        node: usize,
    },
    /// Traffic referenced a CPU that does not exist in the machine topology.
    UnknownCpu(usize),
    /// Traffic referenced a NUMA node that does not exist.
    UnknownNode(usize),
    /// A parameter was out of range (negative bandwidth, zero latency...).
    InvalidParameter(String),
    /// Wrapped topology error.
    Numa(numa::NumaError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingDevice(node) => write!(f, "NUMA node {node} has no memory device"),
            SimError::MissingPath { socket, node } => {
                write!(
                    f,
                    "no interconnect path from socket {socket} to node {node}"
                )
            }
            SimError::UnknownCpu(cpu) => write!(f, "unknown CPU {cpu}"),
            SimError::UnknownNode(node) => write!(f, "unknown NUMA node {node}"),
            SimError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            SimError::Numa(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<numa::NumaError> for SimError {
    fn from(e: numa::NumaError) -> Self {
        SimError::Numa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_ids() {
        let e = SimError::MissingPath { socket: 1, node: 2 };
        assert!(e.to_string().contains("socket 1"));
        assert!(e.to_string().contains("node 2"));
    }

    #[test]
    fn numa_error_converts() {
        let e: SimError = numa::NumaError::UnknownNode(3).into();
        assert!(matches!(e, SimError::Numa(_)));
    }
}
