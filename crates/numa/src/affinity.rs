//! Thread-placement (affinity) policies.
//!
//! Test group 1.(c) of the paper compares two OpenMP-style affinities when both
//! sockets take part in the STREAM run:
//!
//! * **close** — fill socket 0 entirely before adding cores from socket 1
//!   (`OMP_PROC_BIND=close`);
//! * **spread** — alternate cores between the two sockets
//!   (`OMP_PROC_BIND=spread`).
//!
//! [`AffinityPolicy::place`] converts a policy plus a thread count into a
//! concrete [`ThreadPlacement`]: an ordered list of logical CPUs, one per
//! software thread. The ordering matters because the paper sweeps the thread
//! count from 1 to 20 and each added thread lands on the next CPU of the
//! placement.

use crate::error::NumaError;
use crate::topology::{SocketId, Topology};
use crate::Result;

/// How software threads are bound to logical CPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffinityPolicy {
    /// Fill sockets one after the other, in the given socket order.
    /// `Close { sockets: vec![0, 1] }` reproduces the paper's *close* runs.
    Close {
        /// Sockets in fill order.
        sockets: Vec<SocketId>,
    },
    /// Round-robin threads across the given sockets (the paper's *spread*).
    Spread {
        /// Sockets receiving threads alternately.
        sockets: Vec<SocketId>,
    },
    /// Restrict to a single socket (groups 1.(a), 1.(b), 2.(a)).
    SingleSocket(SocketId),
}

impl AffinityPolicy {
    /// Convenience constructor for the paper's two-socket close policy.
    pub fn close() -> Self {
        AffinityPolicy::Close {
            sockets: vec![0, 1],
        }
    }

    /// Convenience constructor for the paper's two-socket spread policy.
    pub fn spread() -> Self {
        AffinityPolicy::Spread {
            sockets: vec![0, 1],
        }
    }

    /// Human-readable label used by the harness legends.
    pub fn label(&self) -> String {
        match self {
            AffinityPolicy::Close { .. } => "close".to_string(),
            AffinityPolicy::Spread { .. } => "spread".to_string(),
            AffinityPolicy::SingleSocket(s) => format!("socket{s}"),
        }
    }

    /// Produces the placement of `threads` software threads on `topo`.
    ///
    /// Placement uses one hardware thread per physical core first (the paper
    /// runs STREAM with at most one thread per core), and only falls back to
    /// SMT siblings when the request exceeds the physical core count.
    pub fn place(&self, topo: &Topology, threads: usize) -> Result<ThreadPlacement> {
        if threads == 0 {
            return Ok(ThreadPlacement {
                cpus: Vec::new(),
                policy: self.clone(),
            });
        }
        let order = self.cpu_order(topo)?;
        if order.is_empty() {
            return Err(NumaError::EmptyTopology);
        }
        if threads > order.len() {
            return Err(NumaError::PlacementOverflow {
                requested: threads,
                available: order.len(),
            });
        }
        Ok(ThreadPlacement {
            cpus: order[..threads].to_vec(),
            policy: self.clone(),
        })
    }

    /// The full CPU visitation order implied by the policy.
    fn cpu_order(&self, topo: &Topology) -> Result<Vec<usize>> {
        match self {
            AffinityPolicy::Close { sockets } => {
                let mut primaries = Vec::new();
                let mut siblings = Vec::new();
                for &sid in sockets {
                    let socket = topo.socket(sid)?;
                    for &core_id in &socket.cores {
                        let core = topo.core(core_id)?;
                        if let Some((&first, rest)) = core.hw_threads.split_first() {
                            primaries.push(first);
                            siblings.extend_from_slice(rest);
                        }
                    }
                }
                primaries.extend(siblings);
                Ok(primaries)
            }
            AffinityPolicy::Spread { sockets } => {
                // Interleave the per-socket close orders.
                let per_socket: Vec<Vec<usize>> = sockets
                    .iter()
                    .map(|&sid| AffinityPolicy::Close { sockets: vec![sid] }.cpu_order(topo))
                    .collect::<Result<_>>()?;
                let max_len = per_socket.iter().map(|v| v.len()).max().unwrap_or(0);
                let mut out = Vec::new();
                for i in 0..max_len {
                    for socket_order in &per_socket {
                        if let Some(&cpu) = socket_order.get(i) {
                            out.push(cpu);
                        }
                    }
                }
                Ok(out)
            }
            AffinityPolicy::SingleSocket(sid) => AffinityPolicy::Close {
                sockets: vec![*sid],
            }
            .cpu_order(topo),
        }
    }
}

/// The result of placing N software threads: one logical CPU per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPlacement {
    cpus: Vec<usize>,
    policy: AffinityPolicy,
}

impl ThreadPlacement {
    /// Number of placed threads.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Returns `true` when no threads are placed.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// All CPUs in thread order.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// The policy this placement was derived from.
    pub fn policy(&self) -> &AffinityPolicy {
        &self.policy
    }

    /// Number of threads that landed on each socket of `topo`.
    pub fn threads_per_socket(&self, topo: &Topology) -> Vec<usize> {
        let mut counts = vec![0usize; topo.sockets().len()];
        for &cpu in &self.cpus {
            if let Some(sid) = topo.socket_of_cpu(cpu) {
                counts[sid] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::sapphire_rapids_cxl;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn close_fills_socket0_first() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::close().place(&topo, 12).unwrap();
        let per_socket = p.threads_per_socket(&topo);
        assert_eq!(per_socket, vec![10, 2]);
        assert_eq!(p.cpus()[0], 0);
        assert_eq!(p.cpus()[9], 9);
        assert_eq!(p.cpus()[10], 10);
    }

    #[test]
    fn spread_alternates_sockets() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::spread().place(&topo, 6).unwrap();
        let per_socket = p.threads_per_socket(&topo);
        assert_eq!(per_socket, vec![3, 3]);
        assert_eq!(topo.socket_of_cpu(p.cpus()[0]), Some(0));
        assert_eq!(topo.socket_of_cpu(p.cpus()[1]), Some(1));
        assert_eq!(topo.socket_of_cpu(p.cpus()[2]), Some(0));
    }

    #[test]
    fn single_socket_never_leaves_socket() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::SingleSocket(1).place(&topo, 10).unwrap();
        assert!(p
            .cpus()
            .iter()
            .all(|&cpu| topo.socket_of_cpu(cpu) == Some(1)));
    }

    #[test]
    fn physical_cores_used_before_smt_siblings() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::close().place(&topo, 20).unwrap();
        // First 20 threads must land on 20 distinct physical cores.
        let mut cores: Vec<_> = p
            .cpus()
            .iter()
            .map(|&cpu| topo.core_of_cpu(cpu).unwrap().id)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 20);
    }

    #[test]
    fn smt_siblings_are_used_beyond_core_count() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::close().place(&topo, 25).unwrap();
        assert_eq!(p.len(), 25);
        let distinct: BTreeSet<usize> = p.cpus().iter().copied().collect();
        assert_eq!(distinct.len(), 25);
    }

    #[test]
    fn placement_overflow_is_reported() {
        let topo = sapphire_rapids_cxl();
        let err = AffinityPolicy::close().place(&topo, 100).unwrap_err();
        assert!(matches!(err, NumaError::PlacementOverflow { .. }));
    }

    #[test]
    fn zero_threads_is_empty_placement() {
        let topo = sapphire_rapids_cxl();
        let p = AffinityPolicy::close().place(&topo, 0).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn explicit_placement_is_verbatim() {
        // Every placement comes from the topology's own cores: a single-socket
        // placement lists that socket's primary hardware threads in core order.
        let topo = sapphire_rapids_cxl();
        let primaries: Vec<usize> = topo
            .socket(1)
            .unwrap()
            .cores
            .iter()
            .map(|&core| topo.core(core).unwrap().hw_threads[0])
            .collect();
        assert_eq!(primaries, (10..20).collect::<Vec<_>>());
        let p = AffinityPolicy::SingleSocket(1).place(&topo, 10).unwrap();
        assert_eq!(p.cpus(), primaries.as_slice());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AffinityPolicy::close().label(), "close");
        assert_eq!(AffinityPolicy::spread().label(), "spread");
        assert_eq!(AffinityPolicy::SingleSocket(1).label(), "socket1");
    }

    proptest! {
        #[test]
        fn prop_placement_len_matches_request(threads in 0usize..40) {
            let topo = sapphire_rapids_cxl();
            let p = AffinityPolicy::close().place(&topo, threads).unwrap();
            prop_assert_eq!(p.len(), threads);
        }

        #[test]
        fn prop_no_duplicate_cpus(threads in 1usize..40,
                                  spread in proptest::bool::ANY) {
            let topo = sapphire_rapids_cxl();
            let policy = if spread { AffinityPolicy::spread() } else { AffinityPolicy::close() };
            let p = policy.place(&topo, threads).unwrap();
            let distinct: BTreeSet<usize> = p.cpus().iter().copied().collect();
            prop_assert_eq!(distinct.len(), threads);
        }

        #[test]
        fn prop_spread_is_balanced(threads in 1usize..=20) {
            let topo = sapphire_rapids_cxl();
            let p = AffinityPolicy::spread().place(&topo, threads).unwrap();
            let counts = p.threads_per_socket(&topo);
            let diff = counts[0].abs_diff(counts[1]);
            prop_assert!(diff <= 1, "spread imbalance {counts:?}");
        }
    }
}
