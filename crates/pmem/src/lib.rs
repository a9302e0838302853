//! A PMDK-style persistent object store.
//!
//! The paper's App-Direct experiments replace STREAM's static arrays with
//! `libpmemobj` allocations: a pool is created (or reopened) on a DAX
//! filesystem (`/mnt/pmem{0,1,2}`), the three arrays are `POBJ_ALLOC`ed from
//! it, and all updates can be wrapped in transactions so that "either all of
//! the modifications are successfully applied or none of them take effect"
//! (§1.4, Listing 2). This crate rebuilds that programming model from scratch:
//!
//! * [`pool::PmemPool`] — pool create/open with a checksummed header and a
//!   layout name, a root object, and close/reopen semantics.
//! * [`alloc`] — a persistent heap allocator whose block headers live *inside*
//!   the pool, so the heap state survives restarts and is recovered by
//!   scanning.
//! * [`oid::PmemOid`] / [`oid::TypedOid`] — pool-relative object identifiers,
//!   the equivalent of `PMEMoid` / `TOID(type)`.
//! * [`tx`] — undo-log transactions: `tx_begin`, `add_range`, batched
//!   `write_all`, `commit`, `abort`, and recovery on pool open.
//! * [`array::PersistentArray`] — typed persistent arrays (the STREAM-PMem
//!   `a`, `b`, `c` vectors).
//! * [`checkpoint`] — versioned checkpoint/restart: double-buffered,
//!   epoch-versioned snapshot slots with incremental dirty-chunk persists and
//!   a transactional commit record; an open only reads, even when it falls
//!   back to the older slot; validated by an exhaustive crash matrix
//!   (`tests/crash_matrix.rs`).
//! * [`object`] — a versioned transactional object store: a durable directory
//!   of millions of small epoch-versioned objects whose per-object commit
//!   records ride the undo log (double-buffered payload slots, checksummed
//!   entries, its own tear matrix).
//! * [`residency`] — the durable chunk → tier table the adaptive tiering
//!   engine commits its migrations through (the undo log is the migration
//!   record, so a crash mid-migration rolls back to the source tier).
//! * `versioned` (crate-private) — the one layout engine those three share:
//!   the descriptor, checked shape sizing, the root lookup, sealed
//!   (checksummed) word records and the content digest. Each layout keeps
//!   only its own protocol.
//! * [`persist`] — flush/drain primitives with instrumentation counters, the
//!   stand-ins for `CLWB`/`SFENCE` (or the `pmem_persist` libpmem call).
//! * [`backend`] — where the bytes actually live: a volatile buffer, a
//!   multi-headed shared far-memory window reached through one host's
//!   attachment ([`backend::SharedRegionBackend`], the pooled-CXL tier
//!   cross-host checkpoint/restart runs on), or any caller-provided store
//!   such as the CXL Type-3 endpoint from the `cxl` crate (wired up in
//!   `cxl-pmem`: the App-Direct pool on the expander, which stands in for
//!   the paper's pool file on a DAX mount).
//!   [`backend::Crash`] wraps a host's backends to crash the host at any of
//!   their calls: the one crash mechanism every crash suite uses.
//!
//! The store is **functional**: bytes really are written, checksums really are
//! validated, transactions really roll back after a simulated crash. What is
//! *not* claimed is cycle-accurate performance — timing belongs to `memsim`.
//!
//! # Example
//!
//! Checkpoint an 8 KiB state image into a double-buffered
//! [`CheckpointRegion`] and restore the committed epoch bit-exact:
//!
//! ```
//! use pmem::{CheckpointRegion, PmemPool};
//!
//! let size = CheckpointRegion::required_pool_size(8192, 1024).max(1 << 20);
//! let pool = PmemPool::create_volatile("doc", size).unwrap();
//! let mut region = CheckpointRegion::format(&pool, 8192, 1024).unwrap();
//!
//! let state = vec![7u8; 8192];
//! region.checkpoint(&state).unwrap();
//!
//! let mut restored = vec![0u8; 8192];
//! assert_eq!(region.restore(&mut restored).unwrap(), 1); // epoch 1
//! assert_eq!(restored, state);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod array;
pub mod backend;
pub mod checkpoint;
pub mod error;
pub mod object;
pub mod oid;
pub mod persist;
pub mod pool;
pub mod residency;
pub mod tx;
mod versioned;

pub use alloc::AllocStats;
pub use array::{PersistentArray, PmemScalar};
pub use backend::{Crash, PoolBackend, SharedBackend, SharedRegionBackend, VolatileBackend};
pub use checkpoint::{
    CheckpointRegion, CheckpointStats, Checkpointable, ChunkExecutor, SerialExecutor,
};
pub use error::PmemError;
pub use object::{ObjectStore, StoreCheck};
pub use oid::{PmemOid, TypedOid};
pub use persist::PersistStats;
pub use pool::PmemPool;
pub use residency::ResidencyMap;
pub use tx::Transaction;

/// Result alias for persistent-memory operations.
pub type Result<T> = std::result::Result<T, PmemError>;
