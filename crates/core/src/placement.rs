//! Data placement across memory tiers: which tier does a pool live on —
//! local DDR5 (`/mnt/pmem0`), the remote socket's DDR5 (`/mnt/pmem1`), or
//! the CXL expander (`/mnt/pmem2`)? [`TierPolicy`] captures that decision,
//! and with it the paper's `numactl` policies: `--membind=N` and first-touch
//! local allocation each resolve to one NUMA node, whose pool the runtime
//! mounts as `/mnt/pmemN`; the node is the argument the runtime's simulated
//! STREAM phases take. Interleaving across expanders is a CFMWS window: in
//! the machine model an aggregate device whose bandwidth sums its ways, and
//! at the runtime one functional card for the window's node.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RuntimeBuilder, RuntimeError};
    use crate::tiering::{ChunkHeat, PlanContext, StaticSpillPolicy, TierPlanner, TierShape};
    use crate::AccessMode;
    use memsim::machines::{sapphire_rapids_cxl_machine, xeon_gold_ddr4_machine};
    use memsim::topology::reference;
    use memsim::units::GIB;
    use memsim::TopologyError;
    use numa::AffinityPolicy;
    use proptest::prelude::*;

    const MIB: u64 = 1 << 20;

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
    }

    #[test]
    fn no_expander_means_no_cxl_tier() {
        let m = xeon_gold_ddr4_machine();
        assert!(TierPolicy::CxlExpander.resolve(&m).is_err());
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

    #[test]
    fn local_alloc_follows_cpu() {
        // First touch lands on the local node of the touching CPU's socket.
        let rt = RuntimeBuilder::setup1().build();
        let topo = rt.topology();
        for cpu in 0..topo.num_hw_threads() {
            let socket = topo.socket_of_cpu(cpu).unwrap();
            let local = TierPolicy::LocalDram { socket }.resolve(rt.machine());
            assert_eq!(local.ok(), topo.node_of_cpu(cpu), "cpu {cpu}");
        }
    }

    #[test]
    fn bind_ignores_cpu() {
        // `--membind=2`: threads on either socket stream from the expander
        // and from no DIMM.
        let rt = RuntimeBuilder::setup1().build();
        for socket in 0..2 {
            let placement = rt.place(&AffinityPolicy::SingleSocket(socket), 4).unwrap();
            let report = rt
                .simulate_stream_phase("membind=2", &placement, 2, MIB, MIB, AccessMode::MemoryMode)
                .unwrap();
            let busy: Vec<&str> = report
                .resources
                .iter()
                .filter(|r| r.busy_seconds > 0.0)
                .map(|r| r.name.as_str())
                .collect();
            assert!(busy.contains(&"cxl-fpga"), "socket {socket}: {busy:?}");
            assert!(
                !busy.iter().any(|name| name.starts_with("ddr5")),
                "socket {socket}: {busy:?}"
            );
        }
    }

    #[test]
    fn bind_to_missing_node_fails() {
        let rt = RuntimeBuilder::setup1().build();
        assert!(TierPolicy::Node(9).resolve(rt.machine()).is_err());
        assert!(rt
            .provision_pool(&TierPolicy::Node(9), "missing", MIB)
            .is_err());
    }

    #[test]
    fn empty_interleave_rejected() {
        let text = reference::SPR_DUAL_CXL_INTERLEAVE
            .replace(r#"targets = ["cxl-card-a", "cxl-card-b"]"#, "targets = []");
        assert_ne!(text, reference::SPR_DUAL_CXL_INTERLEAVE);
        assert!(matches!(
            RuntimeBuilder::from_description(&text),
            Err(RuntimeError::Topology(TopologyError::EmptyWindow(_)))
        ));
    }

    #[test]
    fn distribution_of_bound_policy_is_single_node() {
        // A pool bound to a DIMM puts no byte on the card; one bound to the
        // expander puts its bytes there.
        let rt = RuntimeBuilder::setup1().build();
        let card = rt.fpga().unwrap().endpoint();
        let local = rt
            .provision_pool(&TierPolicy::LocalDram { socket: 0 }, "local", MIB)
            .unwrap();
        assert_eq!((local.node(), card.stats().bytes_written), (0, 0));
        let bound = rt
            .provision_pool(&TierPolicy::Node(2), "bound", MIB)
            .unwrap();
        assert_eq!(bound.node(), 2);
        assert!(card.stats().bytes_written > 0);
    }

    #[test]
    fn labels_match_numactl_syntax() {
        // `numactl --membind=N` pairs with the paper's `/mnt/pmemN` mount.
        let rt = RuntimeBuilder::setup1().build();
        for (policy, mount) in [
            (TierPolicy::LocalDram { socket: 0 }, "/mnt/pmem0"),
            (TierPolicy::RemoteDram { socket: 0 }, "/mnt/pmem1"),
            (TierPolicy::Node(2), "/mnt/pmem2"),
            (TierPolicy::CxlExpander, "/mnt/pmem2"),
        ] {
            let pool = rt.provision_pool(&policy, "label", MIB).unwrap();
            assert_eq!(pool.mount(), mount);
        }
    }

    proptest! {
        #[test]
        fn prop_resolve_always_returns_valid_node(socket in 0usize..2, node in 0usize..3) {
            let rt = RuntimeBuilder::setup1().build();
            let machine = rt.machine();
            prop_assert_eq!(TierPolicy::Node(node).resolve(machine).unwrap(), node);
            for policy in [
                TierPolicy::LocalDram { socket },
                TierPolicy::RemoteDram { socket },
                TierPolicy::Node(node),
                TierPolicy::CxlExpander,
            ] {
                let resolved = policy.resolve(machine).unwrap();
                prop_assert!(machine.topology().node(resolved).is_ok());
            }
        }
    }
}
