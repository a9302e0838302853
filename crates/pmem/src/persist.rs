//! Flush/drain primitives and their instrumentation.
//!
//! On real PMem (and on CXL memory used as PMem) stores only become durable
//! once the cache lines are flushed (`CLWB`/`CLFLUSHOPT`) and a fence
//! (`SFENCE`) has drained the write-pending queues — or, with eADR/GPF, once
//! the store reaches the memory controller. `libpmem` wraps this as
//! `pmem_persist`. [`PersistTracker`] mirrors that API, forwards the actual
//! durability request to the pool backend and counts everything so tests and
//! benchmarks can assert on flush behaviour (this is where the PMDK overhead
//! the paper quantifies comes from).

use crate::backend::SharedBackend;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of a flush granule (one cache line).
pub const FLUSH_GRANULE: u64 = 64;

/// Counters describing persist activity.
///
/// Snapshots subtract (`after - before` via [`std::ops::Sub`]) so tests can
/// assert on the flush cost of a single operation — the checkpoint suite uses
/// this to prove an unchanged incremental checkpoint flushes zero chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Number of `flush` calls.
    pub flushes: u64,
    /// Number of cache lines flushed (a flush of N bytes touches ⌈N/64⌉ lines).
    pub lines_flushed: u64,
    /// Number of `drain` (fence) calls.
    pub drains: u64,
    /// Total bytes made durable.
    pub bytes_persisted: u64,
}

impl std::ops::Sub for PersistStats {
    type Output = PersistStats;

    /// Counter-wise difference (saturating, so an out-of-order subtraction
    /// yields zeros instead of wrapping).
    fn sub(self, earlier: PersistStats) -> PersistStats {
        PersistStats {
            flushes: self.flushes.saturating_sub(earlier.flushes),
            lines_flushed: self.lines_flushed.saturating_sub(earlier.lines_flushed),
            drains: self.drains.saturating_sub(earlier.drains),
            bytes_persisted: self.bytes_persisted.saturating_sub(earlier.bytes_persisted),
        }
    }
}

/// Tracks flush/drain activity for one pool.
#[derive(Debug, Default)]
pub struct PersistTracker {
    flushes: AtomicU64,
    lines_flushed: AtomicU64,
    drains: AtomicU64,
    bytes_persisted: AtomicU64,
}

impl PersistTracker {
    /// Creates a tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flushes a byte range of the pool: the range becomes durable on the
    /// backend and the counters are updated. Equivalent to
    /// `pmem_flush` + `pmem_drain` (i.e. `pmem_persist`).
    pub fn persist(&self, backend: &SharedBackend, offset: u64, len: u64) -> Result<()> {
        self.flush(backend, offset, len)?;
        self.drain();
        Ok(())
    }

    /// Flush without the trailing fence (`pmem_flush`).
    pub fn flush(&self, backend: &SharedBackend, offset: u64, len: u64) -> Result<()> {
        backend.persist(offset, len)?;
        let lines = len.div_ceil(FLUSH_GRANULE);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.lines_flushed.fetch_add(lines, Ordering::Relaxed);
        self.bytes_persisted.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Store fence (`pmem_drain`).
    pub fn drain(&self) {
        self.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            lines_flushed: self.lines_flushed.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            bytes_persisted: self.bytes_persisted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VolatileBackend;
    use std::sync::Arc;

    fn backend() -> SharedBackend {
        Arc::new(VolatileBackend::new(1 << 20))
    }

    #[test]
    fn persist_counts_lines_and_bytes() {
        let tracker = PersistTracker::new();
        let backend = backend();
        tracker.persist(&backend, 0, 100).unwrap();
        let stats = tracker.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.lines_flushed, 2); // 100 bytes = 2 cache lines
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.bytes_persisted, 100);
    }

    #[test]
    fn flush_without_drain() {
        let tracker = PersistTracker::new();
        let backend = backend();
        tracker.flush(&backend, 64, 64).unwrap();
        tracker.flush(&backend, 128, 64).unwrap();
        tracker.drain();
        let stats = tracker.stats();
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.lines_flushed, 2);
    }

    #[test]
    fn chunk_batching_fences_once_for_many_flushes() {
        // The STREAM-PMem hot path: N workers each flush their chunk, then a
        // single drain makes the whole invocation durable. The batched
        // pattern must cost N flushes + 1 drain, vs N of each for the
        // per-range persist() pattern it replaced.
        let workers = 8u64;
        let batched = PersistTracker::new();
        let backend = backend();
        for w in 0..workers {
            batched.flush(&backend, w * 4096, 4096).unwrap();
        }
        batched.drain();
        assert_eq!(batched.stats().flushes, workers);
        assert_eq!(batched.stats().drains, 1);

        let unbatched = PersistTracker::new();
        for w in 0..workers {
            unbatched.persist(&backend, w * 4096, 4096).unwrap();
        }
        assert_eq!(unbatched.stats().drains, workers);
        // Same durability coverage either way.
        assert_eq!(
            batched.stats().bytes_persisted,
            unbatched.stats().bytes_persisted
        );
    }

    #[test]
    fn out_of_range_persist_fails_without_counting() {
        let tracker = PersistTracker::new();
        let backend = backend();
        assert!(tracker.persist(&backend, (1 << 20) - 10, 100).is_err());
        assert_eq!(tracker.stats().flushes, 0);
    }

    #[test]
    fn stats_subtract_counterwise() {
        let tracker = PersistTracker::new();
        let backend = backend();
        tracker.persist(&backend, 0, 4096).unwrap();
        let before = tracker.stats();
        tracker.flush(&backend, 0, 128).unwrap();
        tracker.drain();
        let delta = tracker.stats() - before;
        assert_eq!(delta.flushes, 1);
        assert_eq!(delta.lines_flushed, 2);
        assert_eq!(delta.drains, 1);
        assert_eq!(delta.bytes_persisted, 128);
        // Saturating: subtracting a later snapshot from an earlier one is zero.
        assert_eq!(before - tracker.stats(), PersistStats::default());
    }
}
