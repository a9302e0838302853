//! The paper's `numactl` memory policies, as the runtime expresses them.
//!
//! `--membind=N` and first-touch local allocation are a [`TierPolicy`] that
//! resolves to one NUMA node, whose pool the runtime mounts as `/mnt/pmemN`;
//! the node is the argument the runtime's simulated STREAM phases take.
//! Interleaving across expanders is a CFMWS window: in the machine model an
//! aggregate device whose bandwidth sums its ways, and at the runtime one
//! functional card for the window's node.
//!
//! [`TierPolicy`]: crate::TierPolicy

#[cfg(test)]
mod tests {
    use crate::runtime::{RuntimeBuilder, RuntimeError};
    use crate::{AccessMode, TierPolicy};
    use memsim::topology::reference;
    use memsim::TopologyError;
    use numa::AffinityPolicy;
    use proptest::prelude::*;

    const MIB: u64 = 1 << 20;

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
        assert_eq!(TierPolicy::Node(9).mount_label(rt.machine()), "/mnt/pmem?");
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
            assert_eq!(policy.mount_label(rt.machine()), mount);
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
