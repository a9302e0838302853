//! The crate's one layout engine. The
//! [`CheckpointRegion`](crate::CheckpointRegion), the
//! [`ObjectStore`](crate::ObjectStore) and the
//! [`ResidencyMap`](crate::ResidencyMap) take every on-media format decision
//! they share from here: the descriptor, the checked sizing of a shape, the
//! root lookup, the sealed (checksummed) word records and the one content
//! [`digest`]. Each [`Layout`] supplies its format constants and keeps its
//! own protocol (slot validation, directory entries, residency flips).
//!
//! # Descriptor
//!
//! ```text
//! base +  0  magic      u64  per layout
//!         8  version    u32  then 4 zero bytes
//!        16  shape.0    u64  \ the layout's two shape words
//!        24  shape.1    u64  /
//!        32  counter 0  u64  \ protocol counters, undo-log guarded
//!        40  counter 1  u64  /  (64-byte descriptors only)
//!        48  reserved, zero
//! ```
//!
//! The checkpoint region and the object store address their pool the same
//! way ([`PoolRef`]) and write each commit record with [`PmemPool::run_tx`].

use crate::error::PmemError;
use crate::oid::PmemOid;
use crate::pool::{fnv1a, PmemPool, MIN_POOL_SIZE};
use crate::Result;
use std::sync::Arc;

/// Bytes of a full descriptor (the residency map's is 32).
pub(crate) const DESC_SIZE: u64 = 64;
/// Descriptor offset of the first protocol counter.
pub(crate) const COUNTERS_AT: u64 = 32;

/// The format constants of one on-media layout.
pub(crate) trait Layout {
    /// Descriptor magic.
    const MAGIC: u64;
    /// Format version; an open refuses any other.
    const VERSION: u32;
    /// Bytes of the descriptor.
    const DESC_LEN: u64 = DESC_SIZE;

    /// The layout's typed error.
    fn error(msg: &'static str) -> PmemError;

    /// Bytes the layout occupies after its descriptor for the shape
    /// `(a, b)`, or `None` when they do not fit in `u64`.
    fn body_size(a: u64, b: u64) -> Option<u64>;

    /// Which slot of a pair holds epoch `epoch`: epochs alternate, so a
    /// commit of `epoch + 1` never touches the slot holding `epoch`.
    fn slot_for(epoch: u64) -> usize {
        (epoch % 2) as usize
    }
}

/// A written or validated descriptor.
#[derive(Debug)]
pub(crate) struct Descriptor {
    /// Pool offset of the region, where the descriptor starts.
    pub(crate) base: u64,
    /// The layout's two shape words, both non-zero.
    pub(crate) shape: (u64, u64),
    /// The two protocol counters (zero for a 32-byte descriptor).
    pub(crate) counters: [u64; 2],
}

/// Bytes of a region of shape `(a, b)`, descriptor included, or `None` when
/// they do not fit in `u64`.
fn checked_size<L: Layout>(a: u64, b: u64) -> Option<u64> {
    L::body_size(a, b)?.checked_add(L::DESC_LEN)
}

/// Bytes a region of shape `(a, b)` occupies inside a pool (saturating at
/// `u64::MAX` for a shape that does not fit in `u64`).
pub(crate) fn region_size<L: Layout>(a: u64, b: u64) -> u64 {
    checked_size::<L>(a, b).unwrap_or(u64::MAX)
}

/// A pool size comfortably fitting one region of shape `(a, b)`:
/// [`MIN_POOL_SIZE`] covers the pool header and undo log, 64 KiB of slack
/// covers heap bookkeeping. Saturates at `u64::MAX`, which no pool satisfies.
pub(crate) fn required_pool_size<L: Layout>(a: u64, b: u64) -> u64 {
    MIN_POOL_SIZE
        .saturating_add(region_size::<L>(a, b))
        .saturating_add(64 * 1024)
}

/// Allocates a region of shape `(a, b)` and writes its descriptor with zero
/// counters. The caller writes the rest of its format and persists it
/// together with the descriptor.
pub(crate) fn format<L: Layout>(pool: &PmemPool, a: u64, b: u64) -> Result<Descriptor> {
    if a == 0 || b == 0 {
        return Err(L::error("layout shape must be non-zero"));
    }
    let len = checked_size::<L>(a, b).ok_or(PmemError::SizeOverflow)?;
    let base = pool.alloc_bytes(len)?.offset;
    let mut desc = [0u8; DESC_SIZE as usize];
    encode(&mut desc, &[L::MAGIC, u64::from(L::VERSION), a, b]);
    // in-bounds: DESC_LEN ≤ DESC_SIZE for every layout.
    pool.write(base, &desc[..L::DESC_LEN as usize])?;
    Ok(Descriptor {
        base,
        shape: (a, b),
        counters: [0, 0],
    })
}

/// Reads and validates the descriptor at `base`: magic, version, a non-zero
/// shape, and a region of that shape that fits in the pool, so a corrupt
/// shape can neither size a cache nor address bytes beyond the pool.
pub(crate) fn open<L: Layout>(pool: &PmemPool, base: u64) -> Result<Descriptor> {
    let mut desc = [0u8; DESC_SIZE as usize];
    // in-bounds: DESC_LEN ≤ DESC_SIZE for every layout.
    pool.read(base, &mut desc[..L::DESC_LEN as usize])?;
    let [magic, version, a, b, counter0, counter1] = decode(&desc);
    if magic != L::MAGIC {
        return Err(L::error("descriptor magic mismatch"));
    }
    if version != u64::from(L::VERSION) {
        return Err(L::error("unsupported format version"));
    }
    if a == 0 || b == 0 {
        return Err(L::error("corrupt descriptor shape"));
    }
    let fits = checked_size::<L>(a, b)
        .and_then(|len| base.checked_add(len))
        .is_some_and(|end| end <= pool.capacity());
    if !fits {
        return Err(L::error("descriptor shape exceeds the pool"));
    }
    Ok(Descriptor {
        base,
        shape: (a, b),
        counters: [counter0, counter1],
    })
}

/// The pool's root object, where a layout is registered to be reopened.
pub(crate) fn root<L: Layout>(pool: &PmemPool) -> Result<PmemOid> {
    pool.root()
        .map(|(oid, _)| oid)
        .ok_or_else(|| L::error("pool has no root object"))
}

/// The one content digest of every layout: chunk and value hashes, the
/// combined slot hash and record checksums. It is FNV-1a, the pool header's
/// checksum.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// Seals a record: `words` little-endian, then the [`digest`] of those
/// bytes. `B` is the record length, `8 × (words.len() + 1)`.
pub(crate) fn seal<const B: usize>(words: &[u64]) -> [u8; B] {
    debug_assert_eq!(B, 8 * (words.len() + 1), "sealed record length");
    let mut record = [0u8; B];
    if let Some((body, sum)) = record.split_last_chunk_mut::<8>() {
        encode(body, words);
        *sum = digest(body).to_le_bytes();
    }
    record
}

/// The `N` words of a sealed record, or `None` when the record is not
/// `8 × (N + 1)` bytes or its digest does not match (a torn or foreign
/// record).
pub(crate) fn unseal<const N: usize>(record: &[u8]) -> Option<[u64; N]> {
    let (body, sum) = record.split_last_chunk::<8>()?;
    (body.len() == N * 8 && digest(body) == u64::from_le_bytes(*sum)).then(|| decode(body))
}

/// Writes `words` little-endian to the front of `out`.
fn encode(out: &mut [u8], words: &[u64]) {
    for (bytes, word) in out.chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// The first `N` little-endian words of `bytes`.
fn decode<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut words = [0u64; N];
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().unwrap_or_default());
    }
    words
}

/// How a layout addresses its pool: borrowed for the classic in-stack use,
/// or shared ownership for long-lived handles (the disaggregated cluster
/// keeps one layout per host handle, preserving per-handle caches such as the
/// checkpoint region's incremental chunk hashes across calls). A clone
/// addresses the same pool, which is how a layout reopens on the pool it
/// holds.
#[derive(Debug, Clone)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Crash, VolatileBackend};

    /// A fresh pool with one zeroed 8-byte target.
    fn pool_with_target() -> (Crash, PmemPool, u64) {
        let crash = Crash::new();
        let backend = crash.wrap(Arc::new(VolatileBackend::new_persistent(1 << 20)));
        let pool = PmemPool::create_with_backend(backend, "versioned").unwrap();
        let off = pool.alloc_bytes(8).unwrap().offset;
        pool.write(off, &[0u8; 8]).unwrap();
        pool.persist(off, 8).unwrap();
        (crash, pool, off)
    }

    fn read8(pool: &PmemPool, off: u64) -> [u8; 8] {
        let mut bytes = [0u8; 8];
        pool.read(off, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn open_refuses_another_layouts_descriptor_and_another_version() {
        use crate::{CheckpointRegion, ObjectStore};
        let pool = PmemPool::create_volatile("versioned", 1 << 20).unwrap();
        let desc = format::<CheckpointRegion<'static>>(&pool, 4096, 1024).unwrap();
        assert!(matches!(
            open::<ObjectStore<'static>>(&pool, desc.base),
            Err(PmemError::ObjectStore("descriptor magic mismatch"))
        ));
        pool.write(desc.base + 8, &2u32.to_le_bytes()).unwrap();
        assert!(matches!(
            open::<CheckpointRegion<'static>>(&pool, desc.base),
            Err(PmemError::Checkpoint("unsupported format version"))
        ));
    }

    #[test]
    fn unseal_refuses_a_torn_or_misshapen_record() {
        let record: [u8; 32] = seal(&[1, 2, 3]);
        assert_eq!(unseal::<3>(&record), Some([1, 2, 3]));
        assert_eq!(unseal::<4>(&record), None);
        let mut torn = record;
        torn[9] ^= 1;
        assert_eq!(unseal::<3>(&torn), None);
    }

    #[test]
    fn torn_write_leaves_each_sub_position() {
        // A layout's write phase is a write and a persist. A crash at each of
        // their calls leaves one sub-position: no byte, the first half, every
        // byte unpersisted, or (the op run to its end) every byte persisted.
        let mut left = Vec::new();
        Crash::sweep(|k, torn| {
            let (crash, pool, off) = pool_with_target();
            let before = pool.persist_stats();
            crash.arm(k, torn);
            let result = pool
                .write(off, b"torn-hdr")
                .and_then(|()| pool.persist(off, 8));
            crash.revive();
            let persisted = (pool.persist_stats() - before).bytes_persisted > 0;
            left.push((read8(&pool, off), persisted));
            match result {
                Err(e) => {
                    assert!(e.is_injected_crash(), "{e}");
                    true
                }
                Ok(()) => false,
            }
        });
        let (none, torn, all) = ([0; 8], *b"torn\0\0\0\0", *b"torn-hdr");
        let want = [
            (none, false),
            (all, false),
            (all, true),
            (torn, false),
            (all, false),
            (all, true),
        ];
        assert_eq!(left, want);
    }

    #[test]
    fn commit_record_fires_at_its_site_or_strands_the_log_for_recovery() {
        // A layout's commit record is one `run_tx`. A crash at each of its
        // calls either strands the undo log, which recovery rolls back, or
        // leaves the record whole: never committed, or committed durably.
        let attempt = |k: u64, torn: bool| {
            let (crash, pool, off) = pool_with_target();
            crash.arm(k, torn);
            let result = pool.run_tx(|tx| tx.write(off, b"new-val!"));
            crash.revive();
            (crash, pool, off, result)
        };
        let (mut stranded, mut committed, mut recoveries) = (0, 0, 0);
        let positions = Crash::sweep(|k, torn| {
            let (_, pool, off, result) = attempt(k, torn);
            if let Err(e) = &result {
                assert!(e.is_injected_crash(), "{e}");
            }
            if !pool.tx_log_active().unwrap() {
                let value = read8(&pool, off);
                assert!(value == [0; 8] || &value == b"new-val!", "{k}/{torn}");
                committed += usize::from(&value == b"new-val!");
                return result.is_err();
            }
            stranded += 1;
            // The recovery of the stranded record dies at each of its calls
            // in turn; the next pass converges and rolls the record back.
            recoveries += Crash::sweep(|r, torn_r| {
                let (crash, pool, off, _) = attempt(k, torn);
                crash.arm(r, torn_r);
                let crashed = pool.recover().is_err();
                crash.revive();
                pool.recover().unwrap();
                assert!(!pool.tx_log_active().unwrap());
                assert_eq!(read8(&pool, off), [0; 8], "{k}/{torn} then {r}/{torn_r}");
                crashed
            });
            result.is_err()
        });
        println!("commit record sweep: {positions} positions, {recoveries} recovery positions");
        // Ten calls: the log is stranded from the header's write (torn) or
        // persist to the clear (whole); the record is durable from the
        // clear's persist (or its torn write) on.
        assert_eq!(positions, 22);
        assert_eq!(stranded, 8);
        assert!(recoveries > stranded, "{recoveries}");
        assert_eq!(committed, 5);
    }
}
