//! Durable chunk-residency map: which tier each chunk of a tiered data set
//! lives on, with migration records committed through the existing undo log.
//!
//! The adaptive tiering engine (`cxl-pmem`'s `tiering` module) moves chunks
//! between tier pools while the application keeps reading them. The one piece
//! of state that must never tear is the answer to "which tier holds chunk
//! `i` right now?" — a torn answer would make a chunk readable from zero or
//! two tiers. [`ResidencyMap`] stores that answer inside a pool (in practice
//! the persistent spill tier, so it survives a crash together with the data),
//! and commits every migration through [`PmemPool::run_tx`]:
//!
//! 1. the migrator copies the chunk's bytes into the destination tier and
//!    makes them durable (`flush` batches + one `drain`) — the destination is
//!    a *shadow* copy, invisible to readers;
//! 2. the residency entry is flipped from the source to the destination tier
//!    inside a pool transaction, so the existing [`TxLog`] machinery is the
//!    migration record: a crash before the commit record clears leaves an
//!    active undo log, and recovery rolls the entry back to the source tier.
//!
//! At every instant, committed state names **exactly one** tier per chunk and
//! that tier holds the chunk's committed bytes: before the flip the source is
//! authoritative (the shadow copy is ignored), after the flip the destination
//! is. There is no in-between.
//!
//! [`TxLog`]: crate::tx::TxLog

use crate::error::PmemError;
use crate::oid::PmemOid;
use crate::pool::PmemPool;
use crate::versioned::{self, Descriptor, Layout};
use crate::Result;
use std::sync::Arc;

/// Residency-map magic ("TIERRMAP").
pub const RESIDENCY_MAGIC: u64 = 0x5449_4552_524D_4150;
/// Residency-map format version.
pub const RESIDENCY_VERSION: u32 = 1;
/// Bytes of the map's descriptor (magic, version, chunk_count, tier_count).
const MAP_HEADER: u64 = 32;
/// Bytes per chunk entry (a little-endian `u32` tier index).
const ENTRY: u64 = 4;

/// A durable chunk → tier table living inside a pool.
///
/// The map owns a shared handle on its pool (like
/// [`CheckpointRegion::open_root_shared`](crate::CheckpointRegion::open_root_shared))
/// so long-lived tiering state can hold the map and the pool together.
pub struct ResidencyMap {
    pool: Arc<PmemPool>,
    base: u64,
    chunks: usize,
    tier_count: u32,
}

impl std::fmt::Debug for ResidencyMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyMap")
            .field("base", &self.base)
            .field("chunks", &self.chunks)
            .field("tier_count", &self.tier_count)
            .finish()
    }
}

impl Layout for ResidencyMap {
    const MAGIC: u64 = RESIDENCY_MAGIC;
    const VERSION: u32 = RESIDENCY_VERSION;
    const DESC_LEN: u64 = MAP_HEADER;

    fn error(msg: &'static str) -> PmemError {
        PmemError::Residency(msg)
    }

    /// One entry per chunk; the tier count does not size the map.
    fn body_size(chunks: u64, _tier_count: u64) -> Option<u64> {
        chunks.checked_mul(ENTRY)
    }
}

impl ResidencyMap {
    /// Bytes the map occupies inside a pool for `chunks` entries (saturating
    /// at `u64::MAX` for a count whose map does not fit in `u64`).
    pub fn map_size(chunks: usize) -> u64 {
        versioned::region_size::<Self>(chunks as u64, 1)
    }

    /// Formats a fresh map holding `initial[i]` as chunk `i`'s tier; every
    /// entry must be below `tier_count`.
    pub fn format(pool: Arc<PmemPool>, tier_count: u32, initial: &[u32]) -> Result<Self> {
        if initial.iter().any(|&t| t >= tier_count) {
            return Err(PmemError::Residency("initial tier index out of range"));
        }
        let desc = versioned::format::<Self>(&pool, initial.len() as u64, u64::from(tier_count))?;
        let mut entries = vec![0u8; initial.len() * ENTRY as usize];
        for (bytes, tier) in entries.chunks_exact_mut(ENTRY as usize).zip(initial) {
            bytes.copy_from_slice(&tier.to_le_bytes());
        }
        pool.write(desc.base + MAP_HEADER, &entries)?;
        pool.persist(desc.base, Self::map_size(initial.len()))?;
        Self::at(pool, desc)
    }

    /// Opens an existing map at `oid` (typically after a pool reopen —
    /// [`PmemPool::open_with_backend`] has already replayed any interrupted
    /// migration record by then).
    pub fn open(pool: Arc<PmemPool>, oid: PmemOid) -> Result<Self> {
        let desc = versioned::open::<Self>(&pool, oid.offset)?;
        Self::at(pool, desc)
    }

    /// The map a descriptor describes.
    fn at(pool: Arc<PmemPool>, desc: Descriptor) -> Result<Self> {
        let corrupt = |_| PmemError::Residency("corrupt residency map header");
        Ok(ResidencyMap {
            pool,
            base: desc.base,
            chunks: usize::try_from(desc.shape.0).map_err(corrupt)?,
            tier_count: u32::try_from(desc.shape.1).map_err(corrupt)?,
        })
    }

    /// Opens the map registered as the pool's root object.
    pub fn open_root(pool: Arc<PmemPool>) -> Result<Self> {
        let oid = versioned::root::<Self>(&pool)?;
        Self::open(pool, oid)
    }

    /// The map's object id (store it in the pool root to reopen later).
    pub fn oid(&self) -> PmemOid {
        PmemOid::new(self.pool.uuid(), self.base)
    }

    /// The pool holding the map.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Number of chunks tracked.
    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// Number of tiers entries may name.
    pub fn tier_count(&self) -> u32 {
        self.tier_count
    }

    fn entry_off(&self, chunk: usize) -> Result<u64> {
        if chunk >= self.chunks {
            return Err(PmemError::Residency("chunk index out of range"));
        }
        Ok(self.base + MAP_HEADER + chunk as u64 * ENTRY)
    }

    /// The tier currently holding `chunk`.
    pub fn tier_of(&self, chunk: usize) -> Result<u32> {
        let off = self.entry_off(chunk)?;
        let mut buf = [0u8; ENTRY as usize];
        self.pool.read(off, &mut buf)?;
        self.decode(buf)
    }

    /// Every chunk's tier, in chunk order, from one read of the entry array.
    pub fn tiers(&self) -> Result<Vec<u32>> {
        let mut entries = vec![0u8; self.chunks * ENTRY as usize];
        self.pool.read(self.base + MAP_HEADER, &mut entries)?;
        entries
            .chunks_exact(ENTRY as usize)
            .map(|entry| {
                let mut buf = [0u8; ENTRY as usize];
                buf.copy_from_slice(entry);
                self.decode(buf)
            })
            .collect()
    }

    /// An entry's tier, refused when it names no tier of the map.
    fn decode(&self, entry: [u8; ENTRY as usize]) -> Result<u32> {
        let tier = u32::from_le_bytes(entry);
        if tier >= self.tier_count {
            return Err(PmemError::Residency("residency entry out of range"));
        }
        Ok(tier)
    }

    /// Chunks resident on each tier (index = tier).
    pub fn counts(&self) -> Result<Vec<usize>> {
        let mut counts = vec![0usize; self.tier_count as usize];
        for tier in self.tiers()? {
            // in-bounds: tier_of refuses any tier ≥ tier_count = counts.len().
            counts[tier as usize] += 1;
        }
        Ok(counts)
    }

    /// Commits one migration record: chunk `chunk` moves `from → to`. The
    /// update runs inside a pool transaction, so a crash mid-commit is rolled
    /// back to `from` by recovery — the chunk is never resident on zero or
    /// two tiers. Fails if the entry no longer names `from` (a stale plan).
    /// The entry is read through the transaction, which logs those bytes as
    /// the undo entry instead of reading them again.
    pub fn commit_move(&self, chunk: usize, from: u32, to: u32) -> Result<()> {
        if to >= self.tier_count {
            return Err(PmemError::Residency("destination tier out of range"));
        }
        let off = self.entry_off(chunk)?;
        self.pool.run_tx(|tx| {
            let mut entry = [0u8; ENTRY as usize];
            tx.read(off, &mut entry)?;
            if self.decode(entry)? != from {
                return Err(PmemError::Residency(
                    "migration source does not match current residency",
                ));
            }
            tx.write(off, &to.to_le_bytes())
        })
    }

    /// Runs undo-log recovery on the underlying pool (normally done by pool
    /// open); a migration record stranded by a crash rolls the entry back to
    /// its source tier. Returns `true` if there was anything to roll back.
    pub fn recover(&self) -> Result<bool> {
        self.pool.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Crash, SharedBackend, VolatileBackend};
    use proptest::prelude::*;

    const POOL_SIZE: u64 = 2 * 1024 * 1024;

    fn shared_pool() -> (VolatileBackend, Arc<PmemPool>) {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool = Arc::new(PmemPool::create_with_backend(shared, "tier").unwrap());
        (backend, pool)
    }

    /// [`shared_pool`] over a crash-wrapped backend.
    fn crashable_pool() -> (VolatileBackend, Crash, Arc<PmemPool>) {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let crash = Crash::new();
        let wrapped = crash.wrap(Arc::new(backend.clone()));
        let pool = Arc::new(PmemPool::create_with_backend(wrapped, "tier").unwrap());
        (backend, crash, pool)
    }

    /// The clear of a move's undo log: a move is one one-range transaction
    /// that reads its entry through the transaction, and the clear is its
    /// ninth call.
    const MOVE_LOG_CLEAR: u64 = 8;

    #[test]
    fn format_open_round_trip() {
        let (backend, pool) = shared_pool();
        let initial = [0u32, 0, 1, 2, 1, 0];
        let map = ResidencyMap::format(Arc::clone(&pool), 3, &initial).unwrap();
        pool.set_root(map.oid(), ResidencyMap::map_size(initial.len()))
            .unwrap();
        assert_eq!(map.chunk_count(), 6);
        assert_eq!(map.tier_count(), 3);
        assert_eq!(map.tiers().unwrap(), initial);
        assert_eq!(map.counts().unwrap(), vec![3, 2, 1]);
        drop(map);
        drop(pool);

        let shared: SharedBackend = Arc::new(backend);
        let reopened = Arc::new(PmemPool::open_with_backend(shared, "tier").unwrap());
        let map = ResidencyMap::open_root(reopened).unwrap();
        assert_eq!(map.tiers().unwrap(), initial);
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let (_, pool) = shared_pool();
        assert!(ResidencyMap::format(Arc::clone(&pool), 0, &[0]).is_err());
        assert!(ResidencyMap::format(Arc::clone(&pool), 2, &[]).is_err());
        assert!(ResidencyMap::format(Arc::clone(&pool), 2, &[0, 2]).is_err());
        let map = ResidencyMap::format(Arc::clone(&pool), 2, &[0, 1]).unwrap();
        assert!(map.tier_of(2).is_err());
        assert!(map.commit_move(0, 0, 2).is_err());
    }

    #[test]
    fn commit_move_flips_exactly_one_entry_and_validates_the_source() {
        let (_, pool) = shared_pool();
        let map = ResidencyMap::format(Arc::clone(&pool), 3, &[0, 0, 0, 0]).unwrap();
        map.commit_move(2, 0, 1).unwrap();
        assert_eq!(map.tiers().unwrap(), vec![0, 0, 1, 0]);
        // A plan computed against stale residency is refused.
        assert!(map.commit_move(2, 0, 2).is_err());
        assert_eq!(map.tier_of(2).unwrap(), 1);
    }

    #[test]
    fn tiers_reads_every_entry_in_one_call_and_refuses_a_bad_one() {
        let (_, crash, pool) = crashable_pool();
        let initial = [1u32, 0, 2, 2, 1, 0, 0];
        let map = ResidencyMap::format(Arc::clone(&pool), 3, &initial).unwrap();
        let before = crash.calls();
        assert_eq!(map.tiers().unwrap(), initial);
        assert_eq!(map.counts().unwrap(), vec![3, 2, 2]);
        assert_eq!(crash.calls() - before, 2, "one read per call");
        // An entry naming no tier is refused by the array read as by the
        // entry read.
        pool.write(map.base + MAP_HEADER + 4 * ENTRY, &7u32.to_le_bytes())
            .unwrap();
        for refused in [map.tiers().map(drop), map.tier_of(4).map(drop)] {
            assert!(matches!(
                refused,
                Err(PmemError::Residency("residency entry out of range"))
            ));
        }
    }

    #[test]
    fn crash_mid_commit_rolls_the_record_back() {
        let (_, crash, pool) = crashable_pool();
        let map = ResidencyMap::format(Arc::clone(&pool), 2, &[0, 0]).unwrap();
        map.commit_move(0, 0, 1).unwrap();
        // Tear the next migration record before its commit clears the log.
        crash.arm(MOVE_LOG_CLEAR, false);
        assert!(map.commit_move(1, 0, 1).unwrap_err().is_injected_crash());
        crash.revive();
        assert!(pool.tx_log_active().unwrap(), "stranded migration record");
        assert!(map.recover().unwrap());
        // The torn move rolled back; the earlier committed one survives.
        assert_eq!(map.tiers().unwrap(), vec![1, 0]);
        // The map stays usable: the same move now commits cleanly.
        map.commit_move(1, 0, 1).unwrap();
        assert_eq!(map.tiers().unwrap(), vec![1, 1]);
    }

    #[test]
    fn committed_move_survives_reopen() {
        let (backend, crash, pool) = crashable_pool();
        let map = ResidencyMap::format(Arc::clone(&pool), 2, &[0, 0, 0]).unwrap();
        pool.set_root(map.oid(), ResidencyMap::map_size(3)).unwrap();
        map.commit_move(1, 0, 1).unwrap();
        crash.arm(MOVE_LOG_CLEAR, false);
        assert!(map.commit_move(2, 0, 1).unwrap_err().is_injected_crash());
        drop(map);
        drop(pool);

        // Pool open replays the stranded record: chunk 2 is back on tier 0,
        // chunk 1 keeps its committed destination.
        let shared: SharedBackend = Arc::new(backend);
        let reopened = Arc::new(PmemPool::open_with_backend(shared, "tier").unwrap());
        let map = ResidencyMap::open_root(reopened).unwrap();
        assert_eq!(map.tiers().unwrap(), vec![0, 1, 0]);
    }

    #[test]
    fn descriptor_shape_beyond_the_pool_is_a_typed_error() {
        let (backend, pool) = shared_pool();
        let map = ResidencyMap::format(Arc::clone(&pool), 2, &[0, 1, 0]).unwrap();
        pool.set_root(map.oid(), ResidencyMap::map_size(3)).unwrap();
        // Rewrite chunk_count behind the map's back: 2^40 entries would make
        // `tiers()` read heap bytes far past the map as entries.
        let base = map.oid().offset;
        drop(map);
        pool.write(base + 16, &(1u64 << 40).to_le_bytes()).unwrap();
        pool.persist(base + 16, 8).unwrap();
        drop(pool);

        let shared: SharedBackend = Arc::new(backend);
        let reopened = Arc::new(PmemPool::open_with_backend(shared, "tier").unwrap());
        assert!(matches!(
            ResidencyMap::open_root(reopened),
            Err(PmemError::Residency(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_moves_conserve_chunks(
            chunks in 1usize..24,
            tiers in 1u32..5,
            moves in proptest::collection::vec(any::<u64>(), 0..32),
        ) {
            let (_, pool) = shared_pool();
            let initial: Vec<u32> = (0..chunks).map(|i| i as u32 % tiers).collect();
            let map = ResidencyMap::format(Arc::clone(&pool), tiers, &initial).unwrap();
            for seed in moves {
                let chunk = (seed % chunks as u64) as usize;
                let to = ((seed >> 8) % tiers as u64) as u32;
                let from = map.tier_of(chunk).unwrap();
                map.commit_move(chunk, from, to).unwrap();
            }
            // Every chunk still resident on exactly one in-range tier.
            let all = map.tiers().unwrap();
            prop_assert_eq!(all.len(), chunks);
            prop_assert!(all.iter().all(|&t| t < tiers));
            prop_assert_eq!(map.counts().unwrap().iter().sum::<usize>(), chunks);
        }
    }
}
