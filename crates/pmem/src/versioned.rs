//! Plumbing shared by the crate's two versioned engines, the
//! [`CheckpointRegion`](crate::CheckpointRegion) and the
//! [`ObjectStore`](crate::ObjectStore): how an engine addresses its pool, the
//! torn write an injected crash leaves behind, and the undo-log commit record
//! with its crash arming.
//!
//! Both engines inject crashes the same way. A *write phase* (checkpoint slot
//! header, object payload slot) is torn at one of four sub-positions picked by
//! the [`CrashPoint`] ordinal; the *commit record* (descriptor or directory
//! entry update inside one pool transaction) either fires the point at its
//! native transaction site or strands the log so the following recovery hits
//! it. The public `CheckpointPhase` / `ObjectPhase` enums only say which of
//! these an injection targets.

use crate::error::PmemError;
use crate::pool::PmemPool;
use crate::tx::{CrashPoint, Transaction};
use crate::Result;
use std::sync::Arc;

/// How an engine addresses its pool: borrowed for the classic in-stack use,
/// or shared ownership for long-lived handles (the disaggregated cluster
/// keeps one layout per host handle, preserving per-handle caches such as the
/// checkpoint region's incremental chunk hashes across calls).
#[derive(Debug)]
pub(crate) enum PoolRef<'p> {
    Borrowed(&'p PmemPool),
    Shared(Arc<PmemPool>),
}

impl std::ops::Deref for PoolRef<'_> {
    type Target = PmemPool;
    fn deref(&self) -> &PmemPool {
        match self {
            PoolRef::Borrowed(pool) => pool,
            PoolRef::Shared(pool) => pool,
        }
    }
}

/// Ordinal of a crash point, used as the deterministic sub-position inside a
/// write phase (chunk ordinal, torn-write step).
pub(crate) fn point_ordinal(point: CrashPoint) -> usize {
    match point {
        CrashPoint::AfterLogAppend => 0,
        CrashPoint::BeforeCommit => 1,
        CrashPoint::AfterCommit => 2,
        CrashPoint::DuringRecovery => 3,
    }
}

/// Leaves `bytes` at `off` the way a crash at `point` would, then fails with
/// the injected-crash error named `site`. The point's ordinal selects:
/// 0 = no byte written, 1 = the first half written (a torn write), 2 = every
/// byte written but not persisted, 3 = every byte written and persisted.
pub(crate) fn torn_write<T>(
    pool: &PmemPool,
    off: u64,
    bytes: &[u8],
    point: CrashPoint,
    site: &'static str,
) -> Result<T> {
    match point_ordinal(point) {
        0 => {}
        // in-bounds: bytes.len() / 2 ≤ bytes.len().
        1 => pool.write(off, &bytes[..bytes.len() / 2])?,
        2 => pool.write(off, bytes)?,
        _ => {
            pool.write(off, bytes)?;
            pool.persist(off, bytes.len() as u64)?;
        }
    }
    Err(PmemError::InjectedCrash(site))
}

/// A crash injected into a commit record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordCrash {
    /// Fire the point at its native transaction site
    /// ([`CrashPoint::DuringRecovery`] never fires inside a transaction, so
    /// that cell commits cleanly).
    Commit(CrashPoint),
    /// Strand the undo log at [`CrashPoint::BeforeCommit`], then leave the
    /// point armed on the pool so the next [`PmemPool::recover`] hits it.
    Recovery(CrashPoint),
}

/// Runs `body` as one undo-logged commit record, with `crash` (if any) armed
/// around it.
pub(crate) fn commit_record<T>(
    pool: &PmemPool,
    crash: Option<RecordCrash>,
    body: impl FnOnce(&mut Transaction<'_>) -> Result<T>,
) -> Result<T> {
    match crash {
        Some(RecordCrash::Commit(point)) => pool.set_crash_point(Some(point)),
        Some(RecordCrash::Recovery(_)) => pool.set_crash_point(Some(CrashPoint::BeforeCommit)),
        None => {}
    }
    let result = pool.run_tx(body);
    if let (Err(e), Some(RecordCrash::Recovery(point))) = (&result, crash) {
        if e.is_injected_crash() {
            pool.set_crash_point(Some(point));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh pool with one zeroed 8-byte target.
    fn pool_with_target() -> (PmemPool, u64) {
        let pool = PmemPool::create_volatile("versioned", 1 << 20).unwrap();
        let off = pool.alloc_bytes(8).unwrap().offset;
        pool.write(off, &[0u8; 8]).unwrap();
        pool.persist(off, 8).unwrap();
        (pool, off)
    }

    fn read8(pool: &PmemPool, off: u64) -> [u8; 8] {
        let mut bytes = [0u8; 8];
        pool.read(off, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn torn_write_leaves_each_sub_position() {
        let left: [&[u8; 8]; 4] = [&[0; 8], b"torn\0\0\0\0", b"torn-hdr", b"torn-hdr"];
        for (point, want) in CrashPoint::ALL.into_iter().zip(left) {
            let (pool, off) = pool_with_target();
            let before = pool.persist_stats();
            let err = torn_write::<()>(&pool, off, b"torn-hdr", point, "test-site").unwrap_err();
            assert!(matches!(err, PmemError::InjectedCrash("test-site")));
            assert_eq!(&read8(&pool, off), want, "{point:?}");
            // Only the last sub-position persists what it wrote.
            let persisted = (pool.persist_stats() - before).bytes_persisted;
            assert_eq!(
                persisted > 0,
                point == CrashPoint::DuringRecovery,
                "{point:?}"
            );
        }
    }

    #[test]
    fn commit_record_fires_at_its_site_or_strands_the_log_for_recovery() {
        let write = |off: u64| move |tx: &mut Transaction<'_>| tx.write(off, b"new-val!");

        let (pool, off) = pool_with_target();
        commit_record(&pool, None, write(off)).unwrap();
        assert_eq!(&read8(&pool, off), b"new-val!");

        // Commit: the point fires inside the transaction; recovery rolls the
        // record back.
        let (pool, off) = pool_with_target();
        let crash = Some(RecordCrash::Commit(CrashPoint::BeforeCommit));
        assert!(commit_record(&pool, crash, write(off))
            .unwrap_err()
            .is_injected_crash());
        assert!(pool.recover().unwrap());
        assert_eq!(read8(&pool, off), [0; 8]);

        // Recovery: the log is stranded and the point stays armed, so the
        // first recovery pass dies and the second one converges.
        let (pool, off) = pool_with_target();
        let crash = Some(RecordCrash::Recovery(CrashPoint::DuringRecovery));
        assert!(commit_record(&pool, crash, write(off))
            .unwrap_err()
            .is_injected_crash());
        assert!(pool.tx_log_active().unwrap());
        assert!(pool.recover().unwrap_err().is_injected_crash());
        assert!(pool.recover().unwrap());
        assert_eq!(read8(&pool, off), [0; 8]);
    }
}
