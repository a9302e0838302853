//! `streamer-repro` — workspace facade for the SC'23 reproduction of
//! *CXL Memory as Persistent Memory for Disaggregated HPC: A Practical
//! Approach*.
//!
//! This crate re-exports the workspace's public APIs under one roof so the
//! examples and integration tests (and downstream users who just want "the
//! whole thing") can depend on a single crate:
//!
//! * [`cxl_pmem`] — the CXL-as-PMem runtime (the paper's contribution).
//! * [`pmem`] — the PMDK-style persistent object store.
//! * [`cxl`] — the CXL protocol/device model (Type-3 endpoint, FPGA prototype,
//!   switch pooling, multi-headed sharing).
//! * [`memsim`] — the calibrated analytical memory-system model.
//! * [`numa`] — topology, affinity and memory-binding policies.
//! * [`stream`] — STREAM / STREAM-PMem kernels and the simulated runner.
//! * [`streamer`] — the evaluation harness regenerating every figure/table.
//!
//! For the common entry points there is a [`prelude`]: one glob import that
//! brings in the runtime builder, the disaggregated cluster, checkpointing,
//! tiering, admission control and the versioned object store.
//!
//! # Example
//!
//! Bring up the paper's Setup #1 and ask the model for a Triad point on the
//! CXL expander — the one-liner version of `examples/quickstart.rs`:
//!
//! ```
//! use streamer_repro::prelude::*;
//!
//! let runtime = RuntimeBuilder::setup1().build();
//! let placement = runtime.place(&AffinityPolicy::SingleSocket(0), 10).unwrap();
//! let stream = SimulatedStream::new(&runtime, StreamConfig::paper());
//! let point = stream
//!     .simulate(Kernel::Triad, &placement, 2, AccessMode::AppDirect)
//!     .unwrap();
//! assert!(point.bandwidth_gbs > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use cxl;
pub use cxl_pmem;
pub use memsim;
pub use numa;
pub use pmem;
pub use streamer;

/// The STREAM / STREAM-PMem crate (named `stream-bench` on crates.io-style
/// naming; re-exported as `stream` for readability).
pub use stream_bench as stream;

/// The common entry points, importable in one line.
///
/// The prelude names exactly the types a typical program touches on its way
/// from "build a runtime" to "serve versioned objects out of pooled far
/// memory": the [`RuntimeBuilder`](crate::cxl_pmem::RuntimeBuilder) front
/// door, thread placement, the
/// disaggregated cluster with its per-host segment/store handles, the
/// checkpoint and object-store subsystems with the one way to crash a host
/// ([`Crash`](crate::pmem::Crash)), adaptive tiering, QoS admission, and the
/// STREAM harness.
/// Everything else stays one hop away behind the per-crate re-exports
/// ([`cxl_pmem`], [`pmem`], ...).
///
/// Deprecated items are deliberately excluded, so `use
/// streamer_repro::prelude::*;` never drags a deprecation warning into a
/// downstream build:
///
/// ```
/// #![deny(warnings)]
/// use streamer_repro::prelude::*;
///
/// let runtime = RuntimeBuilder::setup2().build();
/// assert_eq!(runtime.setup(), SetupKind::XeonGoldDdr4);
/// ```
pub mod prelude {
    pub use crate::cxl::CoherenceMode;
    pub use crate::cxl_pmem::{
        AccessMode, AdmissionController, ClassConfig, ClusterError, CxlPmemRuntime, Decision,
        DisaggregatedCluster, HostSegment, HostStore, QosClass, RuntimeBuilder, SetupKind,
        TierPolicy, TieredRegion,
    };
    pub use crate::numa::AffinityPolicy;
    pub use crate::pmem::{CheckpointRegion, Crash, ObjectStore, PmemPool, StoreCheck};
    pub use crate::stream::{Kernel, SimulatedStream, StreamConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // A single line touching each re-export keeps the facade honest.
        let runtime = crate::cxl_pmem::RuntimeBuilder::setup1().build();
        assert_eq!(runtime.topology().nodes().len(), 3);
        assert_eq!(crate::stream::Kernel::Triad.figure_number(), 8);
        assert_eq!(crate::streamer::groups::TestGroup::ALL.len(), 5);
        // The checkpoint subsystem (and the host crash its matrix sweeps)
        // are reachable through the facade.
        assert!(crate::pmem::CheckpointRegion::region_size(4096, 1024) > 4096);
        assert_eq!(crate::pmem::Crash::new().calls(), 0);
        // So are the disaggregation subsystem and its scenario group.
        let cluster = crate::cxl_pmem::DisaggregatedCluster::new(
            "facade",
            crate::cxl::CoherenceMode::SoftwareManaged,
        );
        assert_eq!(cluster.ports(), 0);
        assert_eq!(crate::streamer::RestartScenario::ALL.len(), 4);
        // And the adaptive tiering engine (tracker, residency, sweep grid).
        let tracker = crate::cxl_pmem::AccessTracker::new(4096, 1024);
        tracker.record_read(0, 4096);
        assert_eq!(tracker.chunk_count(), 4);
        assert_eq!(crate::pmem::ResidencyMap::map_size(4), 32 + 16);
        assert_eq!(crate::streamer::tiering::DATASETS_GIB.len(), 6);
        // And the versioned object store, plus the QoS admission front door.
        assert!(crate::pmem::ObjectStore::region_size(64, 256) > 0);
        assert!(crate::cxl_pmem::ClassConfig::closed().queue_depth == 0);
    }

    /// The prelude glob must resolve without ambiguity and must never
    /// re-export a deprecated item (the doctest on [`crate::prelude`] enforces
    /// the warning-free guarantee on a downstream-shaped build; this test
    /// keeps it honest from inside the crate, where `deny(deprecated)` turns
    /// any deprecated re-export's use into a compile error).
    #[test]
    #[deny(deprecated, unused_imports, ambiguous_glob_reexports)]
    fn prelude_is_glob_importable_and_deprecation_free() {
        use crate::prelude::*;

        let runtime = RuntimeBuilder::dcpmm_baseline().build();
        assert_eq!(runtime.setup(), SetupKind::SapphireRapidsDcpmm);
        assert_eq!(Crash::new().calls(), 0);
        let _ = (
            AccessMode::AppDirect,
            CoherenceMode::SoftwareManaged,
            QosClass::Checkpoint,
            TierPolicy::CxlExpander,
            Kernel::Triad,
        );
        let cluster = DisaggregatedCluster::new("prelude", CoherenceMode::SoftwareManaged);
        assert_eq!(cluster.ports(), 0);
    }
}
