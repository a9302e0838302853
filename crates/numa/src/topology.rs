//! Sockets, cores, hardware threads and NUMA nodes.
//!
//! The topology model intentionally mirrors what `lscpu` + `numactl --hardware`
//! report on the paper's two setups:
//!
//! * **Setup #1** — 2× Sapphire Rapids sockets, 10 cores each (BIOS-limited),
//!   Hyper-Threading on, one DDR5 DIMM per socket, plus a *CPU-less* NUMA node
//!   backed by the CXL-attached DDR4 expander (`/mnt/pmem2`, `numactl
//!   --membind=2`).
//! * **Setup #2** — 2× Xeon Gold 5215 sockets, 10 cores each, 6× DDR4-2666
//!   channels per socket, no CXL device.

use crate::distance::DistanceMatrix;
use crate::error::NumaError;
use crate::Result;

/// Identifier of a CPU socket (package).
pub type SocketId = usize;
/// Identifier of a NUMA node. CPU-less (memory-only) nodes are allowed.
pub type NodeId = usize;
/// Identifier of a physical core.
pub type CoreId = usize;

/// A physical core with its hardware threads (logical CPUs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// Global core id.
    pub id: CoreId,
    /// Socket this core belongs to.
    pub socket: SocketId,
    /// NUMA node this core belongs to.
    pub node: NodeId,
    /// Logical CPU ids (one per hardware thread).
    pub hw_threads: Vec<usize>,
}

/// A CPU package with its cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Socket {
    /// Socket id.
    pub id: SocketId,
    /// Human-readable model name (e.g. "Intel Xeon Sapphire Rapids").
    pub model: String,
    /// Base frequency in GHz, informational.
    pub base_ghz: f64,
    /// Core ids belonging to this socket.
    pub cores: Vec<CoreId>,
    /// NUMA node that holds this socket's locally attached DRAM.
    pub local_node: NodeId,
}

/// A NUMA node: a set of cores (possibly empty) plus locally attached memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaNode {
    /// Node id (matches `numactl` numbering).
    pub id: NodeId,
    /// Cores local to this node; empty for memory-only nodes such as a CXL expander.
    pub cores: Vec<CoreId>,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// Free-form label, e.g. "DDR5-4800 socket0" or "CXL DDR4-1333 expander".
    pub label: String,
}

impl NumaNode {
    /// A node with no local cores — how CXL Type-3 expanders appear to Linux.
    pub fn is_cpuless(&self) -> bool {
        self.cores.is_empty()
    }
}

/// Full machine topology: sockets, cores, NUMA nodes and inter-node distances.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Machine name, e.g. "sapphire-rapids-cxl".
    pub name: String,
    sockets: Vec<Socket>,
    cores: Vec<Core>,
    nodes: Vec<NumaNode>,
    distances: DistanceMatrix,
    smt: usize,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder(name: impl Into<String>) -> TopologyBuilder {
        TopologyBuilder {
            name: name.into(),
            sockets: Vec::new(),
            nodes: Vec::new(),
            smt: 1,
            distances: None,
        }
    }

    /// All sockets.
    pub fn sockets(&self) -> &[Socket] {
        &self.sockets
    }

    /// All cores, globally ordered.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// All NUMA nodes, including CPU-less ones.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// Number of hardware threads per core (1 = SMT off, 2 = Hyper-Threading).
    pub fn smt(&self) -> usize {
        self.smt
    }

    /// Inter-node distance matrix (ACPI SLIT-style, 10 = local).
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Looks up a socket.
    pub fn socket(&self, id: SocketId) -> Result<&Socket> {
        self.sockets.get(id).ok_or(NumaError::UnknownSocket(id))
    }

    /// Looks up a NUMA node.
    pub fn node(&self, id: NodeId) -> Result<&NumaNode> {
        self.nodes.get(id).ok_or(NumaError::UnknownNode(id))
    }

    /// Looks up a core.
    pub fn core(&self, id: CoreId) -> Result<&Core> {
        self.cores.get(id).ok_or(NumaError::UnknownCore(id))
    }

    /// Total number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Total number of hardware threads (logical CPUs).
    pub fn num_hw_threads(&self) -> usize {
        self.cores.iter().map(|c| c.hw_threads.len()).sum()
    }

    /// NUMA nodes that are memory-only (CXL expanders, PMem regions...).
    pub fn memory_only_nodes(&self) -> impl Iterator<Item = &NumaNode> {
        self.nodes.iter().filter(|n| n.is_cpuless())
    }

    /// Maps a logical CPU id back to its core.
    pub fn core_of_cpu(&self, cpu: usize) -> Option<&Core> {
        self.cores.iter().find(|c| c.hw_threads.contains(&cpu))
    }

    /// NUMA node that a logical CPU belongs to.
    pub fn node_of_cpu(&self, cpu: usize) -> Option<NodeId> {
        self.core_of_cpu(cpu).map(|c| c.node)
    }

    /// Socket that a logical CPU belongs to.
    pub fn socket_of_cpu(&self, cpu: usize) -> Option<SocketId> {
        self.core_of_cpu(cpu).map(|c| c.socket)
    }

    /// Renders the topology in a `numactl --hardware`-like format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("machine: {}\n", self.name));
        out.push_str(&format!("available: {} nodes\n", self.nodes.len()));
        for node in &self.nodes {
            let mut cpus: Vec<usize> = node
                .cores
                .iter()
                .flat_map(|&c| self.cores[c].hw_threads.iter().copied())
                .collect();
            cpus.sort_unstable();
            cpus.dedup();
            out.push_str(&format!("node {} cpus: {}\n", node.id, cpu_list(&cpus)));
            out.push_str(&format!(
                "node {} size: {} MB ({})\n",
                node.id,
                node.mem_bytes / (1024 * 1024),
                node.label
            ));
        }
        out.push_str("node distances:\n");
        out.push_str(&self.distances.render());
        out
    }
}

/// Renders sorted, distinct CPU ids in `numactl` list syntax (`0-9,20-29`),
/// or `(memory-only)` when there are none.
fn cpu_list(cpus: &[usize]) -> String {
    if cpus.is_empty() {
        return "(memory-only)".to_string();
    }
    let runs: Vec<String> = cpus
        .chunk_by(|a, b| a + 1 == *b)
        .map(|run| match (run[0], run[run.len() - 1]) {
            (first, last) if first == last => first.to_string(),
            (first, last) => format!("{first}-{last}"),
        })
        .collect();
    runs.join(",")
}

/// Incremental builder for [`Topology`].
#[derive(Debug)]
pub struct TopologyBuilder {
    name: String,
    sockets: Vec<SocketSpec>,
    nodes: Vec<NumaNode>,
    smt: usize,
    distances: Option<DistanceMatrix>,
}

#[derive(Debug)]
struct SocketSpec {
    model: String,
    base_ghz: f64,
    cores: usize,
    node: NodeId,
}

impl TopologyBuilder {
    /// Sets the number of hardware threads per core (default 1).
    pub fn smt(mut self, smt: usize) -> Self {
        self.smt = smt.max(1);
        self
    }

    /// Adds a socket with `cores` physical cores whose local memory is `node`.
    pub fn socket(
        mut self,
        model: impl Into<String>,
        base_ghz: f64,
        cores: usize,
        node: NodeId,
    ) -> Self {
        self.sockets.push(SocketSpec {
            model: model.into(),
            base_ghz,
            cores,
            node,
        });
        self
    }

    /// Adds a NUMA node description. Nodes must be added in id order; cores are
    /// attached automatically from the socket declarations.
    pub fn node(mut self, mem_bytes: u64, label: impl Into<String>) -> Self {
        let id = self.nodes.len();
        self.nodes.push(NumaNode {
            id,
            cores: Vec::new(),
            mem_bytes,
            label: label.into(),
        });
        self
    }

    /// Installs an explicit distance matrix; if omitted a default one is derived
    /// (10 local, 21 cross-socket, 31 to memory-only nodes).
    pub fn distances(mut self, matrix: DistanceMatrix) -> Self {
        self.distances = Some(matrix);
        self
    }

    /// Finalises the topology.
    pub fn build(self) -> Result<Topology> {
        if self.sockets.iter().map(|s| s.cores).sum::<usize>() == 0 {
            return Err(NumaError::EmptyTopology);
        }
        let mut nodes = self.nodes;
        let mut sockets = Vec::new();
        let mut cores = Vec::new();
        let mut next_cpu = 0usize;
        // First pass: primary hardware thread of every core, socket by socket
        // (this matches how Linux numbers CPUs on the paper's machines: 0-9 on
        // socket0, 10-19 on socket1, and the SMT siblings afterwards).
        let mut primary_cpus: Vec<Vec<usize>> = Vec::new();
        for spec in &self.sockets {
            let mut socket_primaries = Vec::new();
            for _ in 0..spec.cores {
                socket_primaries.push(next_cpu);
                next_cpu += 1;
            }
            primary_cpus.push(socket_primaries);
        }
        for (sid, spec) in self.sockets.iter().enumerate() {
            if spec.node >= nodes.len() {
                return Err(NumaError::UnknownNode(spec.node));
            }
            let mut socket_cores = Vec::new();
            #[allow(clippy::needless_range_loop)]
            for i in 0..spec.cores {
                let core_id = cores.len();
                let mut hw = vec![primary_cpus[sid][i]];
                for s in 1..self.smt {
                    // SMT siblings are numbered after all primary threads.
                    let total_primary: usize = self.sockets.iter().map(|s| s.cores).sum();
                    hw.push(total_primary * (s - 1) + total_primary + primary_cpus[sid][i]);
                }
                cores.push(Core {
                    id: core_id,
                    socket: sid,
                    node: spec.node,
                    hw_threads: hw,
                });
                nodes[spec.node].cores.push(core_id);
                socket_cores.push(core_id);
            }
            sockets.push(Socket {
                id: sid,
                model: spec.model.clone(),
                base_ghz: spec.base_ghz,
                cores: socket_cores,
                local_node: spec.node,
            });
        }
        let distances = match self.distances {
            Some(d) => {
                if d.len() != nodes.len() {
                    return Err(NumaError::MalformedDistanceMatrix {
                        nodes: nodes.len(),
                        rows: d.len(),
                    });
                }
                d
            }
            None => DistanceMatrix::default_for(&nodes),
        };
        Ok(Topology {
            name: self.name,
            sockets,
            cores,
            nodes,
            distances,
            smt: self.smt,
        })
    }
}

/// Test fixture shaped like the paper's **Setup #1**: dual Sapphire Rapids
/// (10 cores/socket after the BIOS limit), Hyper-Threading, 64 GB DDR5-4800
/// per socket, plus a CPU-less node 2 backed by the 16 GB CXL-attached
/// DDR4-1333 expander. The machine itself is `memsim`'s compiled Setup #1
/// description.
#[cfg(test)]
pub(crate) fn sapphire_rapids_cxl() -> Topology {
    Topology::builder("sapphire-rapids-cxl")
        .smt(2)
        .node(64 * GIB, "DDR5-4800 socket0")
        .node(64 * GIB, "DDR5-4800 socket1")
        .node(16 * GIB, "CXL DDR4-1333 expander (Agilex-7 FPGA)")
        .socket("Intel Xeon 4th Gen (Sapphire Rapids)", 2.1, 10, 0)
        .socket("Intel Xeon 4th Gen (Sapphire Rapids)", 2.1, 10, 1)
        .build()
        .expect("static topology is valid")
}

/// Test fixture shaped like the paper's **Setup #2**: dual Xeon Gold 5215,
/// 10 cores/socket, 96 GB DDR4-2666 in six channels per socket, no CXL device.
#[cfg(test)]
pub(crate) fn xeon_gold_ddr4() -> Topology {
    Topology::builder("xeon-gold-ddr4")
        .smt(2)
        .node(96 * GIB, "DDR4-2666 x6 socket0")
        .node(96 * GIB, "DDR4-2666 x6 socket1")
        .socket("Intel Xeon Gold 5215", 2.5, 10, 0)
        .socket("Intel Xeon Gold 5215", 2.5, 10, 1)
        .build()
        .expect("static topology is valid")
}

#[cfg(test)]
const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup1_matches_paper_description() {
        let topo = sapphire_rapids_cxl();
        assert_eq!(topo.sockets().len(), 2);
        assert_eq!(topo.nodes().len(), 3);
        assert_eq!(topo.num_cores(), 20);
        assert_eq!(topo.num_hw_threads(), 40);
        assert!(topo.node(2).unwrap().is_cpuless());
        assert_eq!(topo.memory_only_nodes().count(), 1);
        assert_eq!(topo.nodes().iter().filter(|n| !n.is_cpuless()).count(), 2);
    }

    #[test]
    fn setup2_has_no_cxl_node() {
        let topo = xeon_gold_ddr4();
        assert_eq!(topo.nodes().len(), 2);
        assert_eq!(topo.memory_only_nodes().count(), 0);
        assert_eq!(topo.num_cores(), 20);
    }

    #[test]
    fn cpu_numbering_is_socket_major() {
        let topo = sapphire_rapids_cxl();
        // Cores 0-9 (cpus 0-9) on socket 0, cores 10-19 (cpus 10-19) on socket 1.
        assert_eq!(topo.socket_of_cpu(0), Some(0));
        assert_eq!(topo.socket_of_cpu(9), Some(0));
        assert_eq!(topo.socket_of_cpu(10), Some(1));
        assert_eq!(topo.socket_of_cpu(19), Some(1));
        // SMT siblings 20-39.
        assert_eq!(topo.socket_of_cpu(20), Some(0));
        assert_eq!(topo.socket_of_cpu(30), Some(1));
    }

    #[test]
    fn unknown_ids_error() {
        let topo = sapphire_rapids_cxl();
        assert_eq!(topo.socket(7).unwrap_err(), NumaError::UnknownSocket(7));
        assert_eq!(topo.node(7).unwrap_err(), NumaError::UnknownNode(7));
        assert_eq!(topo.core(70).unwrap_err(), NumaError::UnknownCore(70));
    }

    #[test]
    fn empty_topology_is_rejected() {
        let err = Topology::builder("empty")
            .node(GIB, "x")
            .build()
            .unwrap_err();
        assert_eq!(err, NumaError::EmptyTopology);
    }

    #[test]
    fn socket_referencing_missing_node_is_rejected() {
        let err = Topology::builder("bad")
            .node(GIB, "n0")
            .socket("x", 2.0, 4, 3)
            .build()
            .unwrap_err();
        assert_eq!(err, NumaError::UnknownNode(3));
    }

    #[test]
    fn mismatched_distance_matrix_is_rejected() {
        let err = Topology::builder("bad")
            .node(GIB, "n0")
            .node(GIB, "n1")
            .socket("x", 2.0, 2, 0)
            .distances(DistanceMatrix::from_rows(vec![vec![10]]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, NumaError::MalformedDistanceMatrix { .. }));
    }

    #[test]
    fn render_mentions_all_nodes() {
        let topo = sapphire_rapids_cxl();
        let text = topo.render();
        assert!(text.contains("node 0 cpus: 0-9,20-29\n"));
        assert!(text.contains("node 1 cpus: 10-19,30-39\n"));
        assert!(text.contains("node 2 cpus: (memory-only)"));
        assert!(text.contains("CXL DDR4-1333"));
    }

    #[test]
    fn distance_to_cxl_node_is_largest() {
        let topo = sapphire_rapids_cxl();
        let from = topo.node_of_cpu(0).unwrap();
        let local = topo.distances().get(from, 0).unwrap();
        let remote = topo.distances().get(from, 1).unwrap();
        let cxl = topo.distances().get(from, 2).unwrap();
        assert!(local < remote);
        assert!(remote < cxl);
    }

    #[test]
    fn clone_preserves_equality() {
        let topo = sapphire_rapids_cxl();
        let clone = topo.clone();
        assert_eq!(clone, topo);
    }
}
