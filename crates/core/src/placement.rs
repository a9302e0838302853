//! Data placement across memory tiers: which tier does a pool live on —
//! local DDR5 (`/mnt/pmem0`), the remote socket's DDR5 (`/mnt/pmem1`), or
//! the CXL expander (`/mnt/pmem2`)? [`TierPolicy`] captures that decision.
//!
//! How a data set larger than local DRAM spreads across tiers — the
//! memory-expansion use case — is the tiering engine's job
//! ([`crate::tiering`]).

use memsim::Machine;
use memsim::SimError;
use numa::NodeId;

/// Which NUMA node a pool or allocation should be placed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierPolicy {
    /// The node local to the calling socket.
    LocalDram {
        /// Socket whose local node is used.
        socket: usize,
    },
    /// The other socket's DRAM (one UPI hop) — the paper's "emulated PMem".
    RemoteDram {
        /// Socket whose local node is used (accessed from the other one).
        socket: usize,
    },
    /// An explicit NUMA node (e.g. the CXL expander's CPU-less node).
    Node(NodeId),
    /// The first CPU-less (memory-only) node of the machine — the CXL expander.
    CxlExpander,
}

impl TierPolicy {
    /// Resolves the policy to a concrete NUMA node on `machine`.
    pub fn resolve(&self, machine: &Machine) -> Result<NodeId, SimError> {
        let topo = machine.topology();
        match self {
            TierPolicy::LocalDram { socket } => {
                Ok(topo.socket(*socket).map_err(SimError::from)?.local_node)
            }
            TierPolicy::RemoteDram { socket } => {
                // The local node of any *other* socket.
                let other = topo
                    .sockets()
                    .iter()
                    .find(|s| s.id != *socket)
                    .ok_or(SimError::UnknownNode(usize::MAX))?;
                Ok(other.local_node)
            }
            TierPolicy::Node(node) => {
                topo.node(*node).map_err(SimError::from)?;
                Ok(*node)
            }
            TierPolicy::CxlExpander => topo
                .memory_only_nodes()
                .next()
                .map(|n| n.id)
                .ok_or(SimError::UnknownNode(usize::MAX)),
        }
    }

    /// The paper's mount-point style label (`/mnt/pmemN`).
    pub fn mount_label(&self, machine: &Machine) -> String {
        match self.resolve(machine) {
            Ok(node) => format!("/mnt/pmem{node}"),
            Err(_) => "/mnt/pmem?".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeBuilder;
    use crate::tiering::{ChunkHeat, PlanContext, StaticSpillPolicy, TierPlanner, TierShape};
    use memsim::machines::{sapphire_rapids_cxl_machine, xeon_gold_ddr4_machine};
    use memsim::units::GIB;

    /// The memory-expansion placement of a `gib` GiB data set: a static
    /// spill over the local DIMM (node 0), then the expander (node 2), each
    /// budgeted at its node's capacity. Returns the chunk fraction on the
    /// expander and the bytes placed on each node.
    fn expansion(gib: usize) -> crate::Result<(f64, Vec<(NodeId, u64)>)> {
        let rt = RuntimeBuilder::setup1().build();
        let tiers: Vec<TierShape> = [0, 2]
            .into_iter()
            .map(|node| TierShape {
                node,
                capacity_bytes: rt.topology().node(node).unwrap().mem_bytes,
            })
            .collect();
        let heat = vec![ChunkHeat::default(); gib];
        let ctx = PlanContext {
            data_len: gib as u64 * GIB,
            chunk_bytes: GIB,
            heat: &heat,
            tiers: &tiers,
            engine: rt.engine(),
            cpus: &[0],
            current: None,
        };
        let plan = StaticSpillPolicy.plan(&ctx)?;
        plan.validate(ctx.data_len, GIB, &tiers)?;
        // Before any traffic the planning weight of a chunk is its size.
        let parts = plan.traffic_parts(&tiers, &ctx.effective_heat());
        Ok((plan.fraction_on(1), parts))
    }

    #[test]
    fn tier_policies_resolve_to_paper_nodes() {
        let m = sapphire_rapids_cxl_machine();
        assert_eq!(TierPolicy::LocalDram { socket: 0 }.resolve(&m).unwrap(), 0);
        assert_eq!(TierPolicy::LocalDram { socket: 1 }.resolve(&m).unwrap(), 1);
        assert_eq!(TierPolicy::RemoteDram { socket: 0 }.resolve(&m).unwrap(), 1);
        assert_eq!(TierPolicy::RemoteDram { socket: 1 }.resolve(&m).unwrap(), 0);
        assert_eq!(TierPolicy::CxlExpander.resolve(&m).unwrap(), 2);
        assert_eq!(TierPolicy::Node(1).resolve(&m).unwrap(), 1);
        assert!(TierPolicy::Node(9).resolve(&m).is_err());
        assert_eq!(TierPolicy::CxlExpander.mount_label(&m), "/mnt/pmem2");
    }

    #[test]
    fn no_expander_means_no_cxl_tier() {
        let m = xeon_gold_ddr4_machine();
        assert!(TierPolicy::CxlExpander.resolve(&m).is_err());
        assert_eq!(TierPolicy::CxlExpander.mount_label(&m), "/mnt/pmem?");
    }

    #[test]
    fn expansion_spills_to_the_expander() {
        // 70 GiB: 64 on the local DIMM, 6 spill onto the CXL node.
        let (on_expander, parts) = expansion(70).unwrap();
        assert_eq!(parts, vec![(0, 64 * GIB), (2, 6 * GIB)]);
        assert_eq!(parts.iter().map(|&(_, b)| b).sum::<u64>(), 70 * GIB);
        assert!((on_expander - 6.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn small_datasets_stay_local() {
        let (on_expander, parts) = expansion(1).unwrap();
        assert_eq!(parts, vec![(0, GIB), (2, 0)]);
        assert_eq!(on_expander, 0.0);
    }

    #[test]
    fn overcommit_is_rejected() {
        let err = expansion(1000).unwrap_err();
        assert!(matches!(err, crate::RuntimeError::Tiering(_)), "{err}");
    }

    #[test]
    fn empty_plan_fraction_is_zero() {
        let (on_expander, parts) = expansion(0).unwrap();
        assert_eq!(parts, vec![(0, 0), (2, 0)]);
        assert_eq!(on_expander, 0.0);
    }
}
