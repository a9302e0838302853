//! Traffic descriptions submitted to the simulation engine.

use numa::NodeId;

/// The memory traffic one software thread generates during a phase: long
/// unit-stride streams, as STREAM kernels and checkpoint writes make.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTraffic {
    /// Logical CPU the thread is bound to.
    pub cpu: usize,
    /// NUMA node the data lives on.
    pub node: NodeId,
    /// Bytes read from the node.
    pub read_bytes: u64,
    /// Bytes written to the node.
    pub write_bytes: u64,
    /// Multiplicative software overhead on this thread's time (1.0 = none).
    ///
    /// The `pmem` runtime submits App-Direct traffic with the PMDK overhead
    /// factor here; raw Memory-Mode traffic uses 1.0.
    pub software_overhead: f64,
}

impl ThreadTraffic {
    /// Sequential traffic with no software overhead.
    pub fn sequential(cpu: usize, node: NodeId, read_bytes: u64, write_bytes: u64) -> Self {
        ThreadTraffic {
            cpu,
            node,
            read_bytes,
            write_bytes,
            software_overhead: 1.0,
        }
    }

    /// Applies a software overhead factor (returns a modified copy).
    pub fn with_overhead(mut self, factor: f64) -> Self {
        self.software_overhead = factor.max(1.0);
        self
    }

    /// Total bytes moved by the thread.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A phase of traffic: every participating thread's contribution, executed
/// concurrently and ending at a barrier (exactly one STREAM kernel invocation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficPhase {
    /// Per-thread traffic descriptions.
    pub traffic: Vec<ThreadTraffic>,
    /// Optional label used in traces and reports.
    pub label: String,
}

impl TrafficPhase {
    /// Creates an empty phase with a label.
    pub fn new(label: impl Into<String>) -> Self {
        TrafficPhase {
            traffic: Vec::new(),
            label: label.into(),
        }
    }

    /// Adds one thread's traffic.
    pub fn push(&mut self, traffic: ThreadTraffic) -> &mut Self {
        self.traffic.push(traffic);
        self
    }

    /// Builds a phase from an iterator of thread traffic.
    pub fn from_threads(
        label: impl Into<String>,
        threads: impl IntoIterator<Item = ThreadTraffic>,
    ) -> Self {
        TrafficPhase {
            traffic: threads.into_iter().collect(),
            label: label.into(),
        }
    }

    /// Total bytes moved by the phase.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.total_bytes()).sum()
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.read_bytes).sum()
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.write_bytes).sum()
    }

    /// Number of participating threads.
    pub fn threads(&self) -> usize {
        self.traffic.len()
    }

    /// The set of NUMA nodes touched by the phase.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.traffic.iter().map(|t| t.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_traffic() {
        let mut phase = TrafficPhase::new("copy");
        phase.push(ThreadTraffic::sequential(0, 0, 100, 50));
        phase.push(ThreadTraffic::sequential(1, 2, 200, 100));
        assert_eq!(phase.threads(), 2);
        assert_eq!(phase.total_bytes(), 450);
        assert_eq!(phase.read_bytes(), 300);
        assert_eq!(phase.write_bytes(), 150);
        assert_eq!(phase.nodes(), vec![0, 2]);
        assert_eq!(phase.label, "copy");
    }

    #[test]
    fn overhead_is_clamped_to_at_least_one() {
        let t = ThreadTraffic::sequential(0, 0, 1, 1).with_overhead(0.5);
        assert_eq!(t.software_overhead, 1.0);
        let t = ThreadTraffic::sequential(0, 0, 1, 1).with_overhead(1.125);
        assert!((t.software_overhead - 1.125).abs() < 1e-12);
    }

    #[test]
    fn random_marker_changes_pattern() {
        // All traffic is sequential; the constructor carries no overhead.
        let t = ThreadTraffic::sequential(3, 2, 7, 5);
        assert_eq!((t.cpu, t.node, t.total_bytes()), (3, 2, 12));
        assert_eq!(t.software_overhead, 1.0);
    }

    #[test]
    fn from_threads_collects() {
        let phase = TrafficPhase::from_threads(
            "triad",
            (0..4).map(|cpu| ThreadTraffic::sequential(cpu, 1, 10, 5)),
        );
        assert_eq!(phase.threads(), 4);
        assert_eq!(phase.total_bytes(), 60);
        assert_eq!(phase.nodes(), vec![1]);
    }
}
