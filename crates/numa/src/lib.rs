//! NUMA topology modelling, CPU sets, thread affinity and pinned worker pools.
//!
//! The evaluation in *CXL Memory as Persistent Memory for Disaggregated HPC*
//! (SC'23) is entirely organised around **where threads run** and **where memory
//! lives**: compute cores on socket 0, socket 1 or both, memory on the local
//! socket, the remote socket, or the CXL-attached expander (exposed as a
//! CPU-less NUMA node), with `numactl --membind` selecting the node and
//! OpenMP-style *close*/*spread* affinities selecting the thread placement.
//!
//! This crate provides those concepts as a small, dependency-free model that the
//! rest of the workspace (the memory simulator, the persistent-memory runtime and
//! the STREAM harness) builds on:
//!
//! * [`topology::Topology`] — sockets, cores, hardware threads and NUMA nodes,
//!   including CPU-less memory-only nodes (the CXL expander appears exactly like
//!   that on real Sapphire Rapids + CXL systems).
//! * [`cpuset::CpuSet`] — a compact bit-set of logical CPUs, mirroring
//!   `cpu_set_t` / `hwloc` bitmaps.
//! * [`affinity`] — *close* and *spread* thread-placement policies as described
//!   in §3.2 of the paper (test group 1.(c)).
//! * [`pool::PinnedPool`] — a **persistent** thread pool whose workers carry a
//!   logical core binding: spawned once, parked on an epoch barrier between
//!   kernel invocations, used by the STREAM runner so that each software
//!   thread is attributed to a specific core of the simulated machine without
//!   paying a per-invocation spawn cost.
//!
//! Nothing in this crate touches the operating system scheduler: bindings are
//! *logical*. They drive the analytical memory simulator (`memsim`), which is the
//! substitution this reproduction makes for the paper's physical testbed. The
//! `numactl --membind` choice is the node argument the runtime and the STREAM
//! harness take, and the paper's machines are the `.topo` descriptions that
//! `memsim` compiles into a [`Topology`].
//!
//! The crate denies `unsafe_code` everywhere except [`pool`], whose epoch
//! barrier needs one audited lifetime erasure (see the safety argument in the
//! module docs); that module is covered by the nightly Miri CI job.
//!
//! # Example
//!
//! Describe a two-socket machine with a CPU-less expander node, then place
//! eight threads *close* — they pack onto socket 0, next to its local DRAM:
//!
//! ```
//! use numa::{AffinityPolicy, Topology};
//!
//! const GIB: u64 = 1 << 30;
//! let topo = Topology::builder("two-socket-cxl")
//!     .smt(2)
//!     .node(64 * GIB, "DDR5 socket0")
//!     .node(64 * GIB, "DDR5 socket1")
//!     .node(16 * GIB, "CXL expander")
//!     .socket("Xeon", 2.1, 10, 0)
//!     .socket("Xeon", 2.1, 10, 1)
//!     .build()
//!     .unwrap();
//! assert!(topo.node(2).unwrap().is_cpuless());
//!
//! let placement = AffinityPolicy::close().place(&topo, 8).unwrap();
//!
//! assert_eq!(placement.len(), 8);
//! // Every CPU of a close placement lives on the first socket.
//! assert!(placement
//!     .cpus()
//!     .iter()
//!     .all(|&cpu| topo.socket_of_cpu(cpu) == Some(0)));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod cpuset;
pub mod distance;
pub mod error;
pub mod pool;
pub mod topology;

pub use affinity::{AffinityPolicy, ThreadPlacement};
pub use cpuset::CpuSet;
pub use distance::DistanceMatrix;
pub use error::NumaError;
pub use pool::{chunk_for, PinnedPool, WorkerCtx};
pub use topology::{Core, CoreId, NodeId, NumaNode, Socket, SocketId, Topology};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumaError>;
