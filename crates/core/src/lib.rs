//! `cxl-pmem` — CXL memory as Persistent Memory for disaggregated HPC.
//!
//! This crate is the paper's contribution packaged as a library: a runtime
//! that provisions PMDK-style persistent pools **on CXL-attached memory** and
//! exposes the two usage modes the paper evaluates:
//!
//! * **App-Direct** — the pool is accessed directly and transactionally
//!   (`pmem` crate), exactly like a `libpmemobj` pool on Optane DCPMM; the
//!   PMDK software overhead is carried into the performance model.
//! * **Memory Mode** — the CXL device is used as plain CC-NUMA memory
//!   expansion (`numactl --membind` style), with no persistence guarantees.
//!
//! The runtime also owns the machine model (`memsim`), the CXL device model
//! (`cxl`) and the placement/affinity machinery (`numa`), so a caller can ask
//! one object both "store these bytes durably on the expander" and "how long
//! would this STREAM kernel take on setup #1 with 8 threads bound close?".
//!
//! Entry points:
//!
//! * [`runtime::CxlPmemRuntime`] — construct through [`runtime::RuntimeBuilder`]:
//!   `RuntimeBuilder::setup1().build()` (the paper's Sapphire Rapids + CXL
//!   machine), `setup2` (Xeon Gold DDR4), `dcpmm_baseline` (the
//!   published-Optane comparison machine), or the `machine`/`from_description`/
//!   `from_ingested` topology knobs. The runtime
//!   also provisions and owns the resident [`numa::PinnedPool`] worker pools
//!   ([`runtime::CxlPmemRuntime::worker_pool`]), so repeated STREAM
//!   invocations share parked, logically pinned OS threads instead of
//!   respawning them.
//! * [`backend::CxlDeviceBackend`] — a `pmem::PoolBackend` storing pool bytes
//!   on a `cxl::Type3Device`, i.e. the pool really lives on the (modelled)
//!   expander.
//! * [`modes::AccessMode`] — App-Direct vs Memory-Mode and their properties
//!   (the paper's Table 1).
//! * [`placement`] — tier selection and Memory-Mode capacity expansion.
//! * [`tiering`] — the adaptive tiering engine: access-tracked hot/cold chunk
//!   migration across DRAM/CXL tiers (placement as a feedback loop, not a
//!   one-shot decision).
//! * [`cluster`] — the disaggregated cluster: many hosts federating
//!   checkpoint/restart segments over switch-pooled, multi-headed far memory.
//! * [`admission`] — the fleet-serving front door: per-[`QosClass`]
//!   token-bucket admission with bounded queues and typed rejection.
//!
//! # Example
//!
//! Checkpoint a host's state into the pooled far-memory tier and restore it
//! bit-exact, with pool accounting conserved throughout:
//!
//! ```
//! use cxl_pmem::cluster::CoherenceMode;
//! use cxl_pmem::RuntimeBuilder;
//!
//! let runtime = RuntimeBuilder::setup1().build();
//! let cluster = runtime.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
//!
//! let state = vec![42u8; 64 * 1024];
//! let mut segment = cluster.host(0).create_segment("doc", 64 * 1024, 4096).unwrap();
//! segment.checkpoint(&state).unwrap();
//!
//! let mut restored = vec![0u8; 64 * 1024];
//! segment.restore(&mut restored).unwrap();
//! assert_eq!(restored, state);
//! assert!(cluster.accounting().conserves());
//! ```
//!
//! Fleet serving fronts that cluster with QoS admission control — paying
//! classes are sized for their load, scavengers get typed rejections:
//!
//! ```
//! use cxl_pmem::{AdmissionController, ClassConfig, Decision, QosClass};
//!
//! let front_door = AdmissionController::new([
//!     ClassConfig { rate_bytes_per_sec: 12e9, burst_bytes: 1 << 30, queue_depth: 32 },
//!     ClassConfig { rate_bytes_per_sec: 8e9, burst_bytes: 1 << 30, queue_depth: 16 },
//!     ClassConfig::closed(), // Background is shut off entirely
//! ]);
//! assert!(matches!(
//!     front_door.submit(QosClass::Checkpoint, 64 << 20, 0.0),
//!     Ok(Decision::Admitted(_))
//! ));
//! assert!(front_door.submit(QosClass::Background, 1, 0.0).is_err());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod backend;
pub mod cluster;
pub mod modes;
pub mod placement;
#[cfg(test)]
mod policy;
pub mod runtime;
pub mod tiering;

pub use admission::{
    AdmissionController, AdmissionError, ClassConfig, Decision, Permit, QosClass, Ticket,
};
pub use backend::CxlDeviceBackend;
pub use cluster::{
    ClusterError, ClusterHost, DisaggregatedCluster, HostHandle, HostSegment, HostStore,
    SegmentPayload,
};
pub use modes::{AccessMode, ModeProperties};
pub use placement::TierPolicy;
pub use runtime::{
    CxlPmemRuntime, InterleavedWindow, ManagedPool, PooledChunkExecutor, RuntimeBuilder,
    RuntimeError, SetupKind,
};
pub use tiering::{
    assignment_bandwidth, AccessTracker, BandwidthAwarePolicy, ChunkHeat, HotGreedyPolicy,
    MigrationCrash, MigrationPhase, MigrationStats, PlanContext, StaticSpillPolicy, TierAssignment,
    TierPlanner, TierShape, TieredRegion,
};

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
