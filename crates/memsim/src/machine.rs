//! A machine: a NUMA topology plus memory devices and interconnect paths.

use crate::calibration as cal;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::link::Path;
use crate::units::CACHE_LINE;
use crate::Result;
use numa::{NodeId, SocketId, Topology};
use std::collections::HashMap;

/// A complete machine model: topology, per-node devices and socket→node paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    topology: Topology,
    devices: Vec<DeviceSpec>,
    paths: HashMap<(SocketId, NodeId), Path>,
    /// Per-core memory-level parallelism: outstanding 64 B lines a core keeps
    /// in flight while streaming.
    core_mlp: f64,
}

impl Machine {
    /// Starts building a machine around a topology.
    pub fn builder(topology: Topology) -> MachineBuilder {
        MachineBuilder {
            topology,
            devices: HashMap::new(),
            paths: HashMap::new(),
            core_mlp: cal::SPR_CORE_MLP,
        }
    }

    /// The machine's NUMA topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The memory device backing a NUMA node.
    pub fn device(&self, node: NodeId) -> Result<&DeviceSpec> {
        self.devices.get(node).ok_or(SimError::MissingDevice(node))
    }

    /// All devices in node order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The interconnect path from a socket to a node.
    pub fn path(&self, socket: SocketId, node: NodeId) -> Result<&Path> {
        self.paths
            .get(&(socket, node))
            .ok_or(SimError::MissingPath { socket, node })
    }

    /// Per-core memory-level parallelism.
    pub fn core_mlp(&self) -> f64 {
        self.core_mlp
    }

    /// End-to-end idle latency (ns) from a CPU to a node: device latency plus
    /// every link on the path.
    pub fn access_latency_ns(&self, cpu: usize, node: NodeId) -> Result<f64> {
        let socket = self
            .topology
            .socket_of_cpu(cpu)
            .ok_or(SimError::UnknownCpu(cpu))?;
        let device = self.device(node)?;
        let path = self.path(socket, node)?;
        Ok(device.idle_latency_ns + path.added_latency_ns())
    }

    /// The latency-bound bandwidth one thread on `cpu` can extract from `node`
    /// (GB/s): `MLP × 64 B / latency`.
    pub fn per_thread_bandwidth_gbs(&self, cpu: usize, node: NodeId) -> Result<f64> {
        let latency_ns = self.access_latency_ns(cpu, node)?;
        if latency_ns <= 0.0 {
            return Err(SimError::InvalidParameter(format!(
                "non-positive latency {latency_ns} ns"
            )));
        }
        Ok(self.core_mlp * CACHE_LINE as f64 / latency_ns)
    }

    /// The narrowest ceiling (GB/s) between a socket and a node: the minimum of
    /// the device's mixed read/write ceiling and every link on the path.
    pub fn path_ceiling_gbs(
        &self,
        socket: SocketId,
        node: NodeId,
        read_bytes: u64,
        write_bytes: u64,
    ) -> Result<f64> {
        let device = self.device(node)?;
        let path = self.path(socket, node)?;
        let mut ceiling = device.mixed_bandwidth_gbs(read_bytes, write_bytes);
        if let Some(link_min) = path.min_bandwidth_gbs() {
            ceiling = ceiling.min(link_min);
        }
        Ok(ceiling)
    }

    /// Replaces the device of a node (used by ablations — e.g. swapping the
    /// CXL expander's DDR4-1333 for DDR4-3200 or DDR5-5600 as §2.2 suggests).
    pub fn with_device(mut self, node: NodeId, device: DeviceSpec) -> Result<Self> {
        if node >= self.devices.len() {
            return Err(SimError::UnknownNode(node));
        }
        self.devices[node] = device;
        Ok(self)
    }

    /// Replaces the path from a socket to a node (used by ablations).
    pub fn with_path(mut self, socket: SocketId, node: NodeId, path: Path) -> Self {
        self.paths.insert((socket, node), path);
        self
    }
}

/// Builder for [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    topology: Topology,
    devices: HashMap<NodeId, DeviceSpec>,
    paths: HashMap<(SocketId, NodeId), Path>,
    core_mlp: f64,
}

impl MachineBuilder {
    /// Attaches a memory device to a NUMA node.
    pub fn device(mut self, node: NodeId, device: DeviceSpec) -> Self {
        self.devices.insert(node, device);
        self
    }

    /// Defines the path from a socket to a node.
    pub fn path(mut self, socket: SocketId, node: NodeId, path: Path) -> Self {
        self.paths.insert((socket, node), path);
        self
    }

    /// Sets per-core memory-level parallelism.
    pub fn core_mlp(mut self, mlp: f64) -> Self {
        self.core_mlp = mlp.max(1.0);
        self
    }

    /// Finalises the machine, checking every node has a device and every
    /// (socket, node) pair has a path.
    pub fn build(self) -> Result<Machine> {
        let nodes = self.topology.nodes().len();
        let mut devices = Vec::with_capacity(nodes);
        for node in 0..nodes {
            match self.devices.get(&node) {
                Some(d) => devices.push(d.clone()),
                None => return Err(SimError::MissingDevice(node)),
            }
        }
        for socket in 0..self.topology.sockets().len() {
            for node in 0..nodes {
                if !self.paths.contains_key(&(socket, node)) {
                    return Err(SimError::MissingPath { socket, node });
                }
            }
        }
        Ok(Machine {
            topology: self.topology,
            devices,
            paths: self.paths,
            core_mlp: self.core_mlp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkKind, LinkSpec};
    use crate::machines;

    #[test]
    fn builder_requires_all_devices() {
        let topo = machines::sapphire_rapids_cxl_machine().topology().clone();
        let err = Machine::builder(topo).build().unwrap_err();
        assert_eq!(err, SimError::MissingDevice(0));
    }

    #[test]
    fn builder_requires_all_paths() {
        let setup1 = machines::sapphire_rapids_cxl_machine();
        let topo = setup1.topology().clone();
        let device = |node| setup1.device(node).unwrap().clone();
        let err = Machine::builder(topo)
            .device(0, device(0))
            .device(1, device(1))
            .device(2, device(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::MissingPath { .. }));
    }

    #[test]
    fn setup1_latency_ordering() {
        let m = machines::sapphire_rapids_cxl_machine();
        let local = m.access_latency_ns(0, 0).unwrap();
        let remote = m.access_latency_ns(0, 1).unwrap();
        let cxl = m.access_latency_ns(0, 2).unwrap();
        assert!(local < remote, "local {local} >= remote {remote}");
        assert!(remote < cxl, "remote {remote} >= cxl {cxl}");
        // CXL load-to-use latency lands in the 350-450 ns window typical of
        // FPGA prototypes.
        assert!(cxl > 350.0 && cxl < 450.0, "cxl latency {cxl}");
    }

    #[test]
    fn per_thread_bandwidth_decreases_with_distance() {
        let m = machines::sapphire_rapids_cxl_machine();
        let local = m.per_thread_bandwidth_gbs(0, 0).unwrap();
        let remote = m.per_thread_bandwidth_gbs(0, 1).unwrap();
        let cxl = m.per_thread_bandwidth_gbs(0, 2).unwrap();
        assert!(local > remote && remote > cxl);
        // A single SPR core streams 6-10 GB/s from local DDR5.
        assert!(local > 6.0 && local < 10.0, "local per-thread {local}");
    }

    #[test]
    fn cxl_per_thread_bandwidth_is_below_local_from_either_socket() {
        // The CPU-less CXL node is slower per thread than local DDR5, from
        // either socket.
        let m = machines::sapphire_rapids_cxl_machine();
        let local = m.per_thread_bandwidth_gbs(0, 0).unwrap();
        for cpu in [0, 10] {
            let cxl = m.per_thread_bandwidth_gbs(cpu, 2).unwrap();
            assert!(cxl < local, "cpu {cpu}: cxl {cxl} >= local {local}");
        }
    }

    #[test]
    fn path_ceiling_for_cxl_is_the_prototype_limit() {
        let m = machines::sapphire_rapids_cxl_machine();
        let ceiling = m.path_ceiling_gbs(0, 2, 1 << 30, 1 << 30).unwrap();
        assert!((ceiling - cal::CXL_PROTOTYPE_CEILING_GBS).abs() < 1e-9);
    }

    #[test]
    fn unknown_cpu_and_node_are_rejected() {
        let m = machines::sapphire_rapids_cxl_machine();
        assert!(m.access_latency_ns(400, 0).is_err());
        assert!(m.device(9).is_err());
    }

    #[test]
    fn ablation_hooks_replace_device_and_path() {
        let m = machines::sapphire_rapids_cxl_machine();
        let faster = m.device(2).unwrap().clone().scaled_bandwidth(2.4);
        let m2 = m.clone().with_device(2, faster).unwrap();
        assert!(m2.device(2).unwrap().read_bw_gbs > m.device(2).unwrap().read_bw_gbs);
        let gen6 = LinkSpec {
            name: "PCIe Gen6 x16 (CXL 3.0)".to_string(),
            kind: LinkKind::PcieGen6x16,
            bandwidth_gbs: 2.0 * cal::PCIE_GEN5_X16_GBS,
            latency_ns: 90.0,
        };
        let m3 = m2.with_path(0, 2, Path::through(vec![gen6]));
        assert!(m3.path(0, 2).unwrap().crosses(LinkKind::PcieGen6x16));
        assert!(m
            .clone()
            .with_device(9, m.device(0).unwrap().clone())
            .is_err());
    }
}
