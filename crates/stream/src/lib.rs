//! STREAM and STREAM-PMem.
//!
//! The paper's entire quantitative evaluation is the STREAM benchmark (Copy,
//! Scale, Add, Triad over three 100 M-element `double` arrays) in two
//! flavours: the original cache-coherent version (Memory-Mode / CC-NUMA runs)
//! and STREAM-PMem, where the arrays are `POBJ_ALLOC`ed from a `pmemobj` pool
//! (App-Direct runs). This crate provides both:
//!
//! * [`kernels`] — the four kernels, their byte/flop accounting and the
//!   analytic validation values from the reference implementation.
//! * [`exec`] — the zero-copy parallel execution engine, in safe code:
//!   per-worker disjoint `&mut` windows over the three arrays (split with
//!   `split_at_mut`), each in a one-shot slot its worker claims. Its
//!   [`exec::record_kernel_span`] samples every worker window into the
//!   adaptive tiering engine's `AccessTracker`.
//! * [`volatile`] — STREAM over ordinary heap arrays, parallelised with the
//!   affinity-aware [`numa::PinnedPool`].
//! * [`pmem_stream`] — STREAM-PMem over [`pmem::PersistentArray`]s living in a
//!   pool (optionally a pool on the CXL expander), its kernels computing on
//!   the pool's stored bytes in place.
//! * [`report`] — per-kernel bandwidth bookkeeping (best-of-N, as STREAM
//!   reports).
//! * [`runner`] — the bridge to the analytical machine model: converts a
//!   kernel + thread placement + data placement + access mode into the
//!   simulated bandwidth the harness plots, while the functional kernels above
//!   are used to validate correctness of the data path.
//!
//! # Example
//!
//! Run the four STREAM kernels over heap arrays with two pinned workers and
//! check Triad against its analytic expectation:
//!
//! ```
//! use memsim::machines::sapphire_rapids_cxl_machine;
//! use numa::{AffinityPolicy, PinnedPool};
//! use stream_bench::{Kernel, StreamConfig, VolatileStream};
//!
//! let setup1 = sapphire_rapids_cxl_machine();
//! let topo = setup1.topology();
//! let placement = AffinityPolicy::close().place(topo, 2).unwrap();
//! let pool = PinnedPool::new(topo, &placement);
//!
//! let mut stream = VolatileStream::new(StreamConfig {
//!     elements: 1001,
//!     ntimes: 2,
//!     scalar: 3.0,
//! });
//! let report = stream.run(&pool);
//! assert!(report.best(Kernel::Triad).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared knobs for the crate's test suites.

    /// Scales an element count down under Miri (interpretation is ~3 orders
    /// of magnitude slower); keeps the count odd so the static-schedule
    /// partitions stay awkward. One definition so the Miri divisor cannot
    /// drift between suites.
    pub fn sz(full: usize) -> usize {
        if cfg!(miri) {
            (full / 64).max(33) | 1
        } else {
            full
        }
    }
}

pub mod kernels;
pub mod pmem_stream;
pub mod report;
pub mod runner;
pub mod volatile;

pub use exec::{ArrayChunk, ChunkedArrays};
pub use kernels::{Kernel, StreamArray, StreamConfig};
pub use pmem_stream::PmemStream;
pub use report::{BandwidthReport, KernelMeasurement};
pub use runner::SimulatedStream;
pub use volatile::VolatileStream;
