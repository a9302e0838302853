//! ACPI SLIT-style NUMA distance matrices.

use crate::error::NumaError;
use crate::topology::{NodeId, NumaNode};
use crate::Result;

/// Distance of a node to itself in SLIT units.
pub const LOCAL_DISTANCE: u32 = 10;
/// Default distance between two compute sockets connected by UPI.
pub const CROSS_SOCKET_DISTANCE: u32 = 21;
/// Default distance from a compute socket to a memory-only (CXL/PMem) node.
pub const EXPANDER_DISTANCE: u32 = 31;

/// A square matrix of relative access distances between NUMA nodes,
/// following the ACPI SLIT convention where the local distance is 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    rows: Vec<Vec<u32>>,
}

impl DistanceMatrix {
    /// Builds a matrix from explicit rows. Every row must have the same length
    /// as the number of rows.
    pub fn from_rows(rows: Vec<Vec<u32>>) -> Result<Self> {
        let n = rows.len();
        if rows.iter().any(|r| r.len() != n) {
            return Err(NumaError::MalformedDistanceMatrix { nodes: n, rows: n });
        }
        Ok(DistanceMatrix { rows })
    }

    /// Derives a default matrix for a node list: 10 on the diagonal, 21 between
    /// compute nodes, 31 between a compute node and a memory-only node (and
    /// between two memory-only nodes, which never happens in practice).
    pub fn default_for(nodes: &[NumaNode]) -> Self {
        let n = nodes.len();
        let mut rows = vec![vec![LOCAL_DISTANCE; n]; n];
        for (i, a) in nodes.iter().enumerate() {
            for (j, b) in nodes.iter().enumerate() {
                if i == j {
                    rows[i][j] = LOCAL_DISTANCE;
                } else if a.is_cpuless() || b.is_cpuless() {
                    rows[i][j] = EXPANDER_DISTANCE;
                } else {
                    rows[i][j] = CROSS_SOCKET_DISTANCE;
                }
            }
        }
        DistanceMatrix { rows }
    }

    /// Number of nodes described by the matrix.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the matrix describes no nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distance from `from` to `to`, if both nodes exist.
    pub fn get(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.rows.get(from)?.get(to).copied()
    }

    /// Renders the matrix like `numactl --hardware` does.
    pub fn render(&self) -> String {
        let n = self.len();
        let mut out = String::from("node ");
        for j in 0..n {
            out.push_str(&format!("{j:>4}"));
        }
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("{i:>4}:"));
            for d in row {
                out.push_str(&format!("{d:>4}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NumaNode;
    use proptest::prelude::*;

    fn nodes(compute: usize, memory_only: usize) -> Vec<NumaNode> {
        let mut out = Vec::new();
        for id in 0..compute {
            out.push(NumaNode {
                id,
                cores: vec![id],
                mem_bytes: 1 << 30,
                label: format!("ddr{id}"),
            });
        }
        for k in 0..memory_only {
            out.push(NumaNode {
                id: compute + k,
                cores: vec![],
                mem_bytes: 1 << 30,
                label: format!("cxl{k}"),
            });
        }
        out
    }

    #[test]
    fn default_matrix_has_slit_structure() {
        let m = DistanceMatrix::default_for(&nodes(2, 1));
        assert_eq!(m.get(0, 0), Some(LOCAL_DISTANCE));
        assert_eq!(m.get(0, 1), Some(CROSS_SOCKET_DISTANCE));
        assert_eq!(m.get(0, 2), Some(EXPANDER_DISTANCE));
        assert_eq!(m.get(1, 2), Some(EXPANDER_DISTANCE));
        assert_eq!(m.get(2, 2), Some(LOCAL_DISTANCE));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let m = DistanceMatrix::default_for(&nodes(2, 0));
        assert_eq!(m.get(0, 5), None);
        assert_eq!(m.get(5, 0), None);
    }

    #[test]
    fn from_rows_rejects_non_square() {
        assert!(DistanceMatrix::from_rows(vec![vec![10, 20], vec![20]]).is_err());
    }

    #[test]
    fn render_contains_every_distance() {
        let m = DistanceMatrix::default_for(&nodes(2, 1));
        let text = m.render();
        assert!(text.contains("10"));
        assert!(text.contains("21"));
        assert!(text.contains("31"));
    }

    proptest! {
        #[test]
        fn prop_default_matrix_symmetric(compute in 1usize..5, memory in 0usize..3) {
            let m = DistanceMatrix::default_for(&nodes(compute, memory));
            let n = m.len();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(m.get(i, j), m.get(j, i));
                }
                prop_assert_eq!(m.get(i, i), Some(LOCAL_DISTANCE));
            }
        }

        #[test]
        fn prop_diagonal_is_minimal(compute in 1usize..5, memory in 0usize..3) {
            let m = DistanceMatrix::default_for(&nodes(compute, memory));
            for i in 0..m.len() {
                for j in 0..m.len() {
                    prop_assert!(m.get(i, i).unwrap() <= m.get(i, j).unwrap());
                }
            }
        }
    }
}
