//! Versioned transactional object store: a durable directory of small,
//! epoch-versioned objects inside one pool allocation.
//!
//! The [`crate::checkpoint`] module versions one *region*; this module
//! versions millions of *objects* with the same discipline, so a shared far
//! memory segment can serve KV-style traffic instead of bulk snapshots. Every
//! object gets two payload slots (double buffering, committed slot =
//! `epoch % 2`) and one 40-byte directory entry that acts as its commit
//! record. Entry updates ride the pool's undo log, so a torn commit rolls
//! back to the previous version on recovery; payload bytes are drained
//! *before* the entry transaction, so the version named by a committed entry
//! is always bit-exact.
//!
//! # Layout
//!
//! ```text
//! base ┌──────────────────────────────────────────────────────────────┐
//!      │ store descriptor (64 B)                                      │
//!      │   magic "OBJSTOR1" · version · capacity · value_len          │
//!      │   commit_seq ◄─ undo log   live ◄─ undo log                  │
//!      ├──────────────────────────────────────────────────────────────┤
//!      │ directory: capacity × entry (40 B)                           │
//!      │   tag (id+1, 0 = free) · epoch · len · value_hash · checksum │
//!      ├──────────────────────────────────────────────────────────────┤
//!      │ slots: capacity × 2 × value_len (slot epoch % 2 = committed) │
//!      └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! # Commit protocol (per object)
//!
//! 1. **Slot write** — [`ObjectStore::put`] writes the new payload into the
//!    object's *staging* slot (`(epoch + 1) % 2`) and flushes it. The
//!    committed slot is never touched.
//! 2. **Drain** — [`ObjectStore::commit`] issues one `drain()`, making the
//!    staged payload durable before any commit record can name it.
//! 3. **Entry commit** — one undo-log transaction reads the directory entry
//!    and the descriptor counter pair (`commit_seq`, `live`: one adjacent
//!    16-byte range, read with one read) through the transaction, then
//!    writes the new entry (epoch + 1, length, payload hash, entry checksum)
//!    and counters as one two-range batch
//!    ([`Transaction::write_all`](crate::tx::Transaction::write_all)) whose
//!    undo entries are the bytes those reads returned. A crash before the
//!    log commit rolls the entry back; a crash after it leaves the new
//!    version fully durable. A commit makes 13 backend calls (the log
//!    header, entry and counter reads; five writes; five persists), so with
//!    the put's three a `put_commit` makes 16.
//!
//! Readers validate the entry checksum and the payload hash on every
//! [`ObjectStore::get`], so external corruption (or a bug in the protocol)
//! surfaces as a typed error, never as silently torn bytes. A store keeps no
//! copy of the descriptor counters: commit records and
//! [`ObjectStore::live`] read them from the media, so every handle on the
//! same media, on any host, counts the same objects.
//!
//! The `object_crash_matrix` integration suite kills the host at every
//! backend call of a put, a commit and a delete, and at every call of the
//! recovery that follows ([`Crash`](crate::backend::Crash)).

use crate::error::PmemError;
use crate::oid::PmemOid;
use crate::pool::PmemPool;
use crate::versioned::{self, Descriptor, Layout, PoolRef, COUNTERS_AT, DESC_SIZE};
use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// Bytes per directory entry.
const ENTRY_SIZE: u64 = 40;
/// Offset of `live` (descriptor counter 1) within the descriptor.
const LIVE_AT: u64 = COUNTERS_AT + 8;

/// A decoded, validated directory entry for a live object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    epoch: u64,
    len: u64,
    value_hash: u64,
}

/// A payload staged by [`ObjectStore::put`], waiting for its commit record.
#[derive(Debug, Clone, Copy)]
struct Staged {
    len: u64,
    hash: u64,
    /// Committed epoch the staging observed (0 = none). The staging slot is
    /// `(basis + 1) % 2`; if another handle commits in between, the slot
    /// parity flips and this stage can never be committed.
    basis: u64,
}

/// Point-in-time health counters from a full directory scan
/// ([`ObjectStore::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCheck {
    /// Entries holding a committed version whose payload validated.
    pub live: u64,
    /// Free directory entries.
    pub free: u64,
    /// Highest committed epoch seen across all objects.
    pub max_epoch: u64,
}

/// A versioned transactional object store inside a pool.
///
/// See the [module docs](self) for the layout and the commit protocol.
pub struct ObjectStore<'p> {
    pool: PoolRef<'p>,
    base: u64,
    capacity: u64,
    value_len: u64,
    staged: HashMap<u64, Staged>,
}

impl std::fmt::Debug for ObjectStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("base", &self.base)
            .field("capacity", &self.capacity)
            .field("value_len", &self.value_len)
            .finish()
    }
}

impl Layout for ObjectStore<'_> {
    /// "OBJSTOR1".
    const MAGIC: u64 = 0x4F42_4A53_544F_5231;
    const VERSION: u32 = 1;

    fn error(msg: &'static str) -> PmemError {
        PmemError::ObjectStore(msg)
    }

    /// The directory, then two payload slots per object.
    fn body_size(capacity: u64, value_len: u64) -> Option<u64> {
        let slots_len = capacity.checked_mul(value_len)?.checked_mul(2)?;
        capacity.checked_mul(ENTRY_SIZE)?.checked_add(slots_len)
    }
}

impl<'p> ObjectStore<'p> {
    // ---------------------------------------------------------------- sizing

    /// Bytes the store occupies inside a pool: descriptor + directory + two
    /// payload slots per object (saturating at `u64::MAX` for a shape that
    /// does not fit in `u64`).
    pub fn region_size(capacity: u64, value_len: u64) -> u64 {
        versioned::region_size::<Self>(capacity, value_len)
    }

    /// A pool size comfortably fitting one store of this shape — what the
    /// cluster's `create_store` provisions. Saturates at `u64::MAX`, which no
    /// pool satisfies.
    pub fn required_pool_size(capacity: u64, value_len: u64) -> u64 {
        versioned::required_pool_size::<Self>(capacity, value_len)
    }

    // ---------------------------------------------------------------- create

    /// Formats a fresh store for up to `capacity` objects of at most
    /// `value_len` bytes each. Every directory entry starts free.
    pub fn format(pool: &'p PmemPool, capacity: u64, value_len: u64) -> Result<Self> {
        let desc = versioned::format::<Self>(pool, capacity, value_len)?;
        // The directory must be explicitly freed: the heap may hand back a
        // recycled block still carrying another store's entries. Payload
        // slots need no scrub — only a committed entry makes one visible.
        // The engine checked that the whole shape fits in u64.
        let dir_len = capacity * ENTRY_SIZE;
        let zeros = vec![0u8; 64 * 1024];
        let mut written = 0u64;
        while written < dir_len {
            let step = (dir_len - written).min(zeros.len() as u64);
            // in-bounds: step ≤ zeros.len() by the min above.
            pool.write(desc.base + DESC_SIZE + written, &zeros[..step as usize])?;
            written += step;
        }
        pool.persist(desc.base, DESC_SIZE + dir_len)?;
        Ok(Self::at(PoolRef::Borrowed(pool), desc))
    }

    /// Opens an existing store at `oid` (typically after a pool reopen),
    /// validating the descriptor.
    pub fn open(pool: &'p PmemPool, oid: PmemOid) -> Result<Self> {
        Self::open_at(PoolRef::Borrowed(pool), oid)
    }

    fn open_at(pool: PoolRef<'p>, oid: PmemOid) -> Result<Self> {
        // A shape beyond the pool is refused before it addresses any slot.
        let desc = versioned::open::<Self>(&pool, oid.offset)?;
        Ok(Self::at(pool, desc))
    }

    /// The store a descriptor describes, with nothing staged.
    fn at(pool: PoolRef<'p>, desc: Descriptor) -> Self {
        let (capacity, value_len) = desc.shape;
        ObjectStore {
            pool,
            base: desc.base,
            capacity,
            value_len,
            staged: HashMap::new(),
        }
    }

    /// Opens the pool's root store with **shared ownership** of the pool, so
    /// the store can outlive the caller's stack frame — the disaggregated
    /// cluster's per-host store handles use this.
    pub fn open_root_shared(pool: Arc<PmemPool>) -> Result<ObjectStore<'static>> {
        let oid = versioned::root::<Self>(&pool)?;
        ObjectStore::open_at(PoolRef::Shared(pool), oid)
    }

    /// Opens the store registered as the pool's root object.
    pub fn open_root(pool: &'p PmemPool) -> Result<Self> {
        Self::open(pool, versioned::root::<Self>(pool)?)
    }

    /// Opens this store again on the pool it holds: the descriptor is read
    /// and validated afresh, and nothing is staged. The pool's header and
    /// heap are not read again. Run [`PmemPool::recover`] on
    /// [`pool`](Self::pool) first, as a pool open would.
    pub fn reopen(&self) -> Result<Self> {
        Self::open_at(self.pool.clone(), self.oid())
    }

    // ------------------------------------------------------------- accessors

    /// This store's object id — hand it to [`PmemPool::set_root`] so the
    /// store survives a pool reopen.
    pub fn oid(&self) -> PmemOid {
        PmemOid::new(self.pool.uuid(), self.base)
    }

    /// The pool holding the store.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Maximum number of objects the store can hold.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Maximum payload bytes per object.
    pub fn value_len(&self) -> u64 {
        self.value_len
    }

    /// Number of objects holding a committed version, read from the
    /// descriptor on the media: it counts every handle's commits, this
    /// one's and any other's on the same media.
    pub fn live(&self) -> Result<u64> {
        let mut live = [0u8; 8];
        self.pool.read(self.base + LIVE_AT, &mut live)?;
        Ok(u64::from_le_bytes(live))
    }

    // --------------------------------------------------------------- offsets

    fn entry_off(&self, id: u64) -> u64 {
        self.base + DESC_SIZE + id * ENTRY_SIZE
    }

    fn slot_off(&self, id: u64, slot: usize) -> u64 {
        self.base + DESC_SIZE + self.capacity * ENTRY_SIZE + (id * 2 + slot as u64) * self.value_len
    }

    fn check_id(&self, id: u64) -> Result<()> {
        if id >= self.capacity {
            return Err(PmemError::ObjectStore("object id beyond store capacity"));
        }
        Ok(())
    }

    /// Reads and decodes object `id`'s directory entry.
    fn read_entry(&self, id: u64) -> Result<Option<Entry>> {
        let mut bytes = [0u8; ENTRY_SIZE as usize];
        self.pool.read(self.entry_off(id), &mut bytes)?;
        decode_entry(id, &bytes)
    }

    /// Where object `id`'s commit record reads and writes: its directory
    /// entry and the descriptor counters.
    fn record_at(&self, id: u64) -> (u64, u64) {
        (self.entry_off(id), self.base + COUNTERS_AT)
    }

    // ----------------------------------------------------------------- write

    /// Stages a new version of object `id`: writes `value` into the object's
    /// staging slot and flushes it. Nothing is visible to readers until
    /// [`commit`](Self::commit); the committed version (if any) is untouched.
    pub fn put(&mut self, id: u64, value: &[u8]) -> Result<()> {
        self.check_id(id)?;
        if value.len() as u64 > self.value_len {
            return Err(PmemError::ObjectStore(
                "value exceeds the store's slot length",
            ));
        }
        let epoch = self.read_entry(id)?.map_or(0, |e| e.epoch);
        let off = self.slot_off(id, Self::slot_for(epoch + 1));
        self.pool.write(off, value)?;
        self.pool.flush(off, value.len() as u64)?;
        self.staged.insert(
            id,
            Staged {
                len: value.len() as u64,
                hash: versioned::digest(value),
                basis: epoch,
            },
        );
        Ok(())
    }

    /// Whether object `id` has a staged, not-yet-committed put.
    pub fn has_staged(&self, id: u64) -> bool {
        self.staged.contains_key(&id)
    }

    /// Commits the staged version of object `id` and returns its new epoch.
    ///
    /// One undo-log transaction is the per-object commit record: it reads
    /// the object's directory entry and the descriptor counters, issues one
    /// `drain()` (making the staged payload durable), and writes the new
    /// entry and counters as one two-range batch logged from the bytes it
    /// read. The new counter values are based on the durable descriptor (a
    /// store keeps no copy of it), and a put staged against a committed epoch
    /// that another handle has since superseded is refused with a typed
    /// error. After an error the media may hold a stranded transaction;
    /// reopen the store (running pool recovery) before further writes, as
    /// the cluster layer does.
    pub fn commit(&mut self, id: u64) -> Result<u64> {
        self.check_id(id)?;
        let staged = self
            .staged
            .get(&id)
            .copied()
            .ok_or(PmemError::ObjectStore("commit without a staged put"))?;
        let at = self.record_at(id);
        let (pool, stages) = (&self.pool, &mut self.staged);
        let epoch = commit_record(pool, id, at, |previous, [seq, live]| {
            let current = previous.map_or(0, |e| e.epoch);
            if staged.basis != current {
                // Another handle committed this object after the put: the
                // staged payload sits in what is now the *committed* slot's
                // twin for a different epoch parity, so a commit record
                // naming it would point at stale bytes. The stage can never
                // become valid.
                stages.remove(&id);
                return Err(PmemError::ObjectStore(
                    "staged put superseded by a newer commit",
                ));
            }
            let epoch = current + 1;
            // The staged payload must be durable before any commit record
            // can name it: one drain for the flushes the put fan-out issued.
            pool.drain();
            Ok(Next {
                value: epoch,
                // The sealed entry: tag (id + 1), epoch, length, payload hash.
                entry: versioned::seal(&[id + 1, epoch, staged.len, staged.hash]),
                counters: [seq + 1, live + u64::from(previous.is_none())],
            })
        })?;
        self.staged.remove(&id);
        Ok(epoch)
    }

    /// Stages and commits `value` as the next version of object `id`.
    pub fn put_commit(&mut self, id: u64, value: &[u8]) -> Result<u64> {
        self.put(id, value)?;
        self.commit(id)
    }

    /// Deletes object `id`: frees its directory entry and updates the
    /// descriptor counters inside one undo-log transaction, the same
    /// two-range commit record as [`commit`](Self::commit). Any staged put
    /// for the id is discarded.
    pub fn delete(&mut self, id: u64) -> Result<()> {
        self.check_id(id)?;
        let at = self.record_at(id);
        commit_record(&self.pool, id, at, |previous, [seq, live]| {
            if previous.is_none() {
                return Err(PmemError::NoSuchObject(id));
            }
            // A desynced counter must surface as a typed error, never wrap.
            let live = live
                .checked_sub(1)
                .ok_or(PmemError::ObjectStore("descriptor live counter desynced"))?;
            Ok(Next {
                value: (),
                entry: [0u8; ENTRY_SIZE as usize],
                counters: [seq + 1, live],
            })
        })?;
        self.staged.remove(&id);
        Ok(())
    }

    // ------------------------------------------------------------------ read

    /// Whether object `id` currently holds a committed version.
    pub fn contains(&self, id: u64) -> Result<bool> {
        self.check_id(id)?;
        Ok(self.read_entry(id)?.is_some())
    }

    /// The committed epoch of object `id`.
    pub fn committed_version(&self, id: u64) -> Result<u64> {
        self.check_id(id)?;
        self.read_entry(id)?
            .map(|e| e.epoch)
            .ok_or(PmemError::NoSuchObject(id))
    }

    /// Reads the committed version of object `id`, validating the directory
    /// entry's checksum and the payload's content hash — a reader gets the
    /// exact committed bytes or a typed error, never a torn mix.
    pub fn get(&self, id: u64) -> Result<Vec<u8>> {
        self.check_id(id)?;
        let entry = self.read_entry(id)?.ok_or(PmemError::NoSuchObject(id))?;
        if entry.len > self.value_len {
            return Err(PmemError::ObjectStore("directory entry length corrupt"));
        }
        let mut value = vec![0u8; entry.len as usize];
        self.pool
            .read(self.slot_off(id, Self::slot_for(entry.epoch)), &mut value)?;
        if versioned::digest(&value) != entry.value_hash {
            return Err(PmemError::ObjectStore(
                "payload bytes do not match the committed content hash",
            ));
        }
        Ok(value)
    }

    // ---------------------------------------------------------------- verify

    /// Full-directory audit: validates every live entry and its payload,
    /// recounts the population and cross-checks the descriptor counters.
    /// O(capacity) — a test/recovery aid, not a hot-path call.
    pub fn verify(&self) -> Result<StoreCheck> {
        let mut live = 0u64;
        let mut max_epoch = 0u64;
        for id in 0..self.capacity {
            if let Some(entry) = self.read_entry(id)? {
                self.get(id)?;
                live += 1;
                max_epoch = max_epoch.max(entry.epoch);
            }
        }
        if live != self.live()? {
            return Err(PmemError::ObjectStore(
                "descriptor live counter disagrees with the directory",
            ));
        }
        Ok(StoreCheck {
            live,
            free: self.capacity - live,
            max_epoch,
        })
    }
}

/// What a commit record writes: the new directory entry and descriptor
/// counters, and the value the op returns.
struct Next<T> {
    value: T,
    entry: [u8; ENTRY_SIZE as usize],
    counters: [u64; 2],
}

/// Decodes object `id`'s directory entry. `Ok(None)` = free entry; tag or
/// checksum mismatches surface as typed errors (the entry is tx-guarded, so
/// a mismatch means external corruption, not a protocol tear).
fn decode_entry(id: u64, bytes: &[u8; ENTRY_SIZE as usize]) -> Result<Option<Entry>> {
    // A free entry is all zeros, so its tag is read before the checksum.
    if bytes.starts_with(&[0; 8]) {
        return Ok(None);
    }
    let [tag, epoch, len, value_hash] = versioned::unseal(bytes)
        .ok_or(PmemError::ObjectStore("directory entry checksum mismatch"))?;
    if tag != id + 1 {
        return Err(PmemError::ObjectStore("directory entry tag mismatch"));
    }
    Ok(Some(Entry {
        epoch,
        len,
        value_hash,
    }))
}

/// Object `id`'s commit record, one undo-log transaction: reads the
/// directory entry and the descriptor counters `[commit_seq, live]` at
/// `(entry_off, counters_off)` through the transaction, lets `next` derive
/// the new entry and counters from them, and writes both as one two-range
/// batch. The batch's undo entries are the bytes the two reads returned, so
/// neither range is read twice. The counters come from media: another
/// handle on the same media (e.g. another host of a shared segment) may have
/// committed since this one was opened.
/// Returns `next`'s value.
fn commit_record<T>(
    pool: &PmemPool,
    id: u64,
    (entry_off, counters_off): (u64, u64),
    next: impl FnOnce(Option<Entry>, [u64; 2]) -> Result<Next<T>>,
) -> Result<T> {
    pool.run_tx(|tx| {
        let mut entry = [0u8; ENTRY_SIZE as usize];
        tx.read(entry_off, &mut entry)?;
        let mut words = [[0u8; 8]; 2];
        tx.read(counters_off, words.as_flattened_mut())?;
        let record = next(decode_entry(id, &entry)?, words.map(u64::from_le_bytes))?;
        let counter_bytes = record.counters.map(u64::to_le_bytes);
        tx.write_all(&[
            (entry_off, &record.entry),
            (counters_off, counter_bytes.as_flattened()),
        ])?;
        Ok(record.value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Crash, VolatileBackend};

    fn pool_pair(capacity: u64, value_len: u64) -> (PmemPool, VolatileBackend) {
        let backend =
            VolatileBackend::new_persistent(ObjectStore::required_pool_size(capacity, value_len));
        let pool = PmemPool::create_with_backend(Arc::new(backend.clone()), "objects").unwrap();
        (pool, backend)
    }

    /// [`pool_pair`] with the pool over a crash-wrapped backend.
    fn crashable_pair(capacity: u64, value_len: u64) -> (PmemPool, VolatileBackend, Crash) {
        let backend =
            VolatileBackend::new_persistent(ObjectStore::required_pool_size(capacity, value_len));
        let crash = Crash::new();
        let wrapped = crash.wrap(Arc::new(backend.clone()));
        let pool = PmemPool::create_with_backend(wrapped, "objects").unwrap();
        (pool, backend, crash)
    }

    fn value_for(id: u64, epoch: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (id as u8).wrapping_mul(31) ^ (epoch as u8).wrapping_mul(7) ^ i as u8)
            .collect()
    }

    #[test]
    fn put_commit_get_roundtrip_and_versioning() {
        let (pool, _backend) = pool_pair(64, 128);
        let mut store = ObjectStore::format(&pool, 64, 128).unwrap();
        assert_eq!(store.live().unwrap(), 0);
        assert!(matches!(store.get(3), Err(PmemError::NoSuchObject(3))));

        let v1 = value_for(3, 1, 100);
        assert_eq!(store.put_commit(3, &v1).unwrap(), 1);
        assert_eq!(store.get(3).unwrap(), v1);
        assert_eq!(store.committed_version(3).unwrap(), 1);
        assert_eq!(store.live().unwrap(), 1);

        // A staged put is invisible until commit.
        let v2 = value_for(3, 2, 80);
        store.put(3, &v2).unwrap();
        assert!(store.has_staged(3));
        assert_eq!(store.get(3).unwrap(), v1);
        assert_eq!(store.commit(3).unwrap(), 2);
        assert_eq!(store.get(3).unwrap(), v2);
        assert_eq!(store.live().unwrap(), 1, "an update adds no object");
    }

    #[test]
    fn typed_errors_for_misuse() {
        let (pool, _backend) = pool_pair(8, 32);
        let mut store = ObjectStore::format(&pool, 8, 32).unwrap();
        assert!(matches!(
            store.put(8, b"x"),
            Err(PmemError::ObjectStore("object id beyond store capacity"))
        ));
        assert!(matches!(
            store.put(0, &[0u8; 33]),
            Err(PmemError::ObjectStore(_))
        ));
        assert!(matches!(
            store.commit(0),
            Err(PmemError::ObjectStore("commit without a staged put"))
        ));
        assert!(matches!(store.delete(0), Err(PmemError::NoSuchObject(0))));
    }

    #[test]
    fn delete_frees_and_epochs_restart() {
        let (pool, _backend) = pool_pair(8, 32);
        let mut store = ObjectStore::format(&pool, 8, 32).unwrap();
        store.put_commit(5, b"alpha").unwrap();
        store.put_commit(5, b"beta").unwrap();
        assert_eq!(store.committed_version(5).unwrap(), 2);
        store.delete(5).unwrap();
        assert_eq!(store.live().unwrap(), 0);
        assert!(matches!(store.get(5), Err(PmemError::NoSuchObject(5))));
        // Re-creating the object starts a fresh version history.
        assert_eq!(store.put_commit(5, b"gamma").unwrap(), 1);
        assert_eq!(store.get(5).unwrap(), b"gamma");
        let check = store.verify().unwrap();
        assert_eq!(check.live, 1);
        assert_eq!(check.free, 7);
    }

    #[test]
    fn stale_staged_put_is_refused_after_a_foreign_commit() {
        let (pool, _backend) = pool_pair(8, 64);
        let mut a = ObjectStore::format(&pool, 8, 64).unwrap();
        let oid = a.oid();
        a.put_commit(4, b"epoch-1").unwrap();

        // Handle A stages epoch 2; handle B (same media) commits epoch 2
        // first, claiming the very slot A's stage was written into.
        a.put(4, b"staged by a").unwrap();
        let mut b = ObjectStore::open(&pool, oid).unwrap();
        assert_eq!(b.put_commit(4, b"committed by b").unwrap(), 2);

        // Committing A's stage would name epoch 3 → the slot still holding
        // the epoch-1 bytes, with A's hash: a permanently torn object. The
        // basis check refuses with a typed error and drops the stage.
        assert!(matches!(
            a.commit(4),
            Err(PmemError::ObjectStore(
                "staged put superseded by a newer commit"
            ))
        ));
        assert!(!a.has_staged(4));
        assert_eq!(a.get(4).unwrap(), b"committed by b");
        b.verify().unwrap();

        // Re-staging against the refreshed committed epoch works.
        a.put(4, b"epoch-3").unwrap();
        assert_eq!(a.commit(4).unwrap(), 3);
        assert_eq!(b.get(4).unwrap(), b"epoch-3");
    }

    #[test]
    fn foreign_commits_keep_descriptor_counters_exact() {
        let (pool, _backend) = pool_pair(8, 64);
        let mut a = ObjectStore::format(&pool, 8, 64).unwrap();
        let oid = a.oid();
        a.put_commit(0, b"a-0").unwrap();

        // A second handle over the same media commits a new object; handle
        // A then commits another. Both must extend the durable counters —
        // basing them on A's stale snapshot would desync the descriptor.
        let mut b = ObjectStore::open(&pool, oid).unwrap();
        b.put_commit(1, b"b-1").unwrap();
        a.put_commit(2, b"a-2").unwrap();
        assert_eq!(a.verify().unwrap().live, 3);
        assert_eq!(b.verify().unwrap().live, 3);

        // Delete ping-pong between desynced-snapshot handles stays exact
        // down to zero — no counter underflow.
        b.delete(1).unwrap();
        a.delete(0).unwrap();
        a.delete(2).unwrap();
        assert_eq!(a.verify().unwrap().live, 0);
        assert!(matches!(a.delete(0), Err(PmemError::NoSuchObject(0))));
    }

    #[test]
    fn live_counts_another_handles_commits() {
        // The count comes from the media, not from what this handle saw at
        // its open or its last mutation.
        let (pool, _backend) = pool_pair(8, 64);
        let a = ObjectStore::format(&pool, 8, 64).unwrap();
        let mut b = ObjectStore::open(&pool, a.oid()).unwrap();
        b.put_commit(6, b"b-6").unwrap();
        assert_eq!(a.live().unwrap(), 1);
        b.delete(6).unwrap();
        assert_eq!(a.live().unwrap(), 0);
    }

    #[test]
    fn survives_reopen_with_recovery() {
        let (pool, backend) = pool_pair(16, 64);
        let mut store = ObjectStore::format(&pool, 16, 64).unwrap();
        for id in 0..10u64 {
            store.put_commit(id, &value_for(id, 1, 48)).unwrap();
        }
        pool.set_root(store.oid(), ObjectStore::region_size(16, 64))
            .unwrap();
        drop(store);
        drop(pool);

        let pool = PmemPool::open_with_backend(Arc::new(backend.clone()), "objects").unwrap();
        let store = ObjectStore::open_root(&pool).unwrap();
        assert_eq!(store.live().unwrap(), 10);
        for id in 0..10u64 {
            assert_eq!(store.get(id).unwrap(), value_for(id, 1, 48));
        }
        store.verify().unwrap();
    }

    #[test]
    fn injected_slot_write_crash_leaves_committed_version_intact() {
        let (pool, _backend, crash) = crashable_pair(8, 64);
        let mut store = ObjectStore::format(&pool, 8, 64).unwrap();
        let v1 = value_for(2, 1, 64);
        store.put_commit(2, &v1).unwrap();
        // A put is an entry read, the slot write and its flush: a crash at
        // each of them, whole or torn, leaves the committed version intact.
        let positions = Crash::sweep(|k, torn| {
            crash.arm(k, torn);
            let result = store.put(2, &value_for(2, 9, 64));
            crash.revive();
            assert_eq!(store.get(2).unwrap(), v1, "torn at {k}/{torn}");
            match result {
                Err(e) => {
                    assert!(e.is_injected_crash(), "{e}");
                    true
                }
                Ok(()) => false,
            }
        });
        println!("object put sweep: {positions} crash positions");
        assert_eq!(positions, 8);
    }

    #[test]
    fn injected_commit_crash_rolls_back_or_commits_atomically() {
        let positions = Crash::sweep(|k, torn| {
            let (pool, backend, crash) = crashable_pair(8, 64);
            let mut store = ObjectStore::format(&pool, 8, 64).unwrap();
            pool.set_root(store.oid(), ObjectStore::region_size(8, 64))
                .unwrap();
            let v1 = value_for(4, 1, 64);
            store.put_commit(4, &v1).unwrap();
            let v2 = value_for(4, 2, 64);
            store.put(4, &v2).unwrap();
            crash.arm(k, torn);
            let outcome = store.commit(4);
            drop(store);
            drop(pool);
            let pool = PmemPool::open_with_backend(Arc::new(backend.clone()), "objects").unwrap();
            let store = ObjectStore::open_root(&pool).unwrap();
            let bytes = store.get(4).unwrap();
            let crashed = match outcome {
                // The commit ran to its end.
                Ok(epoch) => {
                    assert_eq!(epoch, 2);
                    assert_eq!(bytes, v2);
                    false
                }
                Err(e) => {
                    assert!(e.is_injected_crash());
                    // Atomic: either rolled back to v1 or fully committed v2.
                    if store.committed_version(4).unwrap() == 2 {
                        assert_eq!(bytes, v2);
                    } else {
                        assert_eq!(bytes, v1);
                    }
                    true
                }
            };
            store.verify().unwrap();
            crashed
        });
        println!("object commit sweep: {positions} crash positions");
        // A commit makes thirteen backend calls.
        assert_eq!(positions, 28);
    }

    #[test]
    fn region_sizing_is_consistent() {
        assert_eq!(
            ObjectStore::region_size(10, 100),
            DESC_SIZE + 10 * ENTRY_SIZE + 2 * 10 * 100
        );
        assert!(ObjectStore::required_pool_size(10, 100) > ObjectStore::region_size(10, 100));
        // Overflowing shapes saturate, and format refuses them.
        assert_eq!(ObjectStore::region_size(u64::MAX / 8, 64), u64::MAX);
        assert_eq!(ObjectStore::required_pool_size(1, u64::MAX / 2), u64::MAX);
        let (pool, _backend) = pool_pair(8, 64);
        assert!(matches!(
            ObjectStore::format(&pool, 8, u64::MAX / 2),
            Err(PmemError::SizeOverflow)
        ));
    }

    #[test]
    fn descriptor_shape_beyond_the_pool_is_a_typed_error() {
        let (pool, backend) = pool_pair(16, 64);
        let mut store = ObjectStore::format(&pool, 16, 64).unwrap();
        store.put_commit(3, &value_for(3, 1, 48)).unwrap();
        pool.set_root(store.oid(), ObjectStore::region_size(16, 64))
            .unwrap();
        // Rewrite value_len behind the store's back: slot offsets computed
        // from it would overflow `u64`.
        let base = store.oid().offset;
        drop(store);
        pool.write(base + 24, &(u64::MAX / 2).to_le_bytes())
            .unwrap();
        pool.persist(base + 24, 8).unwrap();
        drop(pool);

        let pool = PmemPool::open_with_backend(Arc::new(backend), "objects").unwrap();
        assert!(matches!(
            ObjectStore::open_root(&pool),
            Err(PmemError::ObjectStore(_))
        ));
    }
}
