//! Pins the exact backend calls of each object-store operation and of a
//! one-range transaction, and that opening a checkpoint region only reads.
//!
//! On a CXL card every read and every persist waits a device round trip, so
//! an operation's latency there is set by how many calls it makes, not by
//! its bytes. Each test runs one operation over a counting [`PoolBackend`]
//! and compares its reads, writes and persists with the counts recorded
//! here. The counts do not depend on the backend: a two-host `put_commit`
//! over a shared region makes the same calls. A change that adds a call to
//! one of these operations fails here; one that removes a call updates the
//! count in the same change.

use pmem::{
    CheckpointRegion, ObjectStore, PmemPool, PoolBackend, Result as PmemResult, SerialExecutor,
    VolatileBackend,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Backend calls of one operation, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Calls {
    reads: u64,
    writes: u64,
    persists: u64,
}

impl Calls {
    fn total(self) -> u64 {
        self.reads + self.writes + self.persists
    }
}

/// Counts every data and persist call it forwards to a volatile backend.
struct Counting {
    inner: VolatileBackend,
    reads: AtomicU64,
    writes: AtomicU64,
    persists: AtomicU64,
}

impl Counting {
    fn new(capacity: u64) -> Arc<Self> {
        Arc::new(Counting {
            inner: VolatileBackend::new_persistent(capacity),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            persists: AtomicU64::new(0),
        })
    }

    fn calls(&self) -> Calls {
        Calls {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            persists: self.persists.load(Ordering::Relaxed),
        }
    }

    /// The calls `op` makes.
    fn count<T>(&self, op: impl FnOnce() -> T) -> Calls {
        let before = self.calls();
        op();
        let after = self.calls();
        Calls {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            persists: after.persists - before.persists,
        }
    }
}

impl PoolBackend for Counting {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> PmemResult<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> PmemResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_at(offset, data)
    }
    fn persist(&self, offset: u64, len: u64) -> PmemResult<()> {
        self.persists.fetch_add(1, Ordering::Relaxed);
        self.inner.persist(offset, len)
    }
    fn is_persistent(&self) -> bool {
        true
    }
    fn describe(&self) -> String {
        "counting".into()
    }
}

/// The object shape `perfbench`'s `kv_bsp` workload commits.
const VALUE_LEN: u64 = 256;
const CAPACITY: u64 = 64;

fn store_pool() -> (Arc<Counting>, PmemPool) {
    let backend = Counting::new(ObjectStore::required_pool_size(CAPACITY, VALUE_LEN));
    let pool = PmemPool::create_with_backend(backend.clone(), "backend-calls").unwrap();
    (backend, pool)
}

#[test]
fn put_commit_makes_sixteen_calls() {
    let (backend, pool) = store_pool();
    let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
    store.put_commit(7, &[1; VALUE_LEN as usize]).unwrap();

    let value = [2; VALUE_LEN as usize];
    // The entry read, the slot write and its flush.
    let put = backend.count(|| store.put(7, &value).unwrap());
    assert_eq!(
        put,
        Calls {
            reads: 1,
            writes: 1,
            persists: 1
        }
    );
    // The log header read, the entry and counter reads through the
    // transaction, then one two-range undo batch logged from those bytes:
    // one entries write and persist, one header write and persist, the two
    // data writes; then a flush per range and the header clear.
    let commit = backend.count(|| store.commit(7).unwrap());
    assert_eq!(
        commit,
        Calls {
            reads: 3,
            writes: 5,
            persists: 5
        }
    );
    assert_eq!(put.total() + commit.total(), 16);

    // A first commit of an object costs the same as an update.
    let first = backend.count(|| store.put_commit(8, &value).unwrap());
    assert_eq!(first.total(), 16);
}

#[test]
fn get_makes_two_calls() {
    let (backend, pool) = store_pool();
    let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
    store.put_commit(3, &[9; VALUE_LEN as usize]).unwrap();
    // The entry, then the committed slot.
    let get = backend.count(|| store.get(3).unwrap());
    assert_eq!(
        get,
        Calls {
            reads: 2,
            writes: 0,
            persists: 0
        }
    );
}

#[test]
fn delete_makes_thirteen_calls() {
    let (backend, pool) = store_pool();
    let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
    store.put_commit(5, &[4; VALUE_LEN as usize]).unwrap();
    // The same two-range commit record as a commit.
    let delete = backend.count(|| store.delete(5).unwrap());
    assert_eq!(
        delete,
        Calls {
            reads: 3,
            writes: 5,
            persists: 5
        }
    );
}

#[test]
fn one_range_transaction_makes_ten_calls() {
    // The shape of the checkpoint region's commit record, a residency flip
    // and a transactional array update: one 8-byte range.
    let backend = Counting::new(1 << 20);
    let pool = PmemPool::create_with_backend(backend.clone(), "backend-calls").unwrap();
    let target = pool.alloc_bytes(8).unwrap().offset;
    // The log header read; the old bytes, one entry write and persist, one
    // header write and persist, the data write; the flush and the clear.
    let tx = backend.count(|| pool.run_tx(|tx| tx.write(target, b"epoch-02")).unwrap());
    assert_eq!(
        tx,
        Calls {
            reads: 2,
            writes: 4,
            persists: 4
        }
    );
}

#[test]
fn a_fallback_open_only_reads_and_the_next_checkpoint_repairs_the_slot() {
    const DATA: u64 = 4 * 1024;
    const CHUNK: u64 = 1024;
    // Epoch 2 lives in slot 0, whose data follows the 64-byte descriptor
    // and the two 64-byte slot headers.
    const SLOT0_DATA_AT: u64 = 3 * 64;
    let image = |tag: u8| -> Vec<u8> {
        (0..DATA as usize)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(tag))
            .collect()
    };
    let backend = Counting::new(CheckpointRegion::required_pool_size(DATA, CHUNK));
    {
        let pool = PmemPool::create_with_backend(backend.clone(), "backend-calls").unwrap();
        let mut region = CheckpointRegion::format(&pool, DATA, CHUNK).unwrap();
        pool.set_root(region.oid(), DATA).unwrap();
        region.checkpoint(&image(1)).unwrap();
        region.checkpoint(&image(2)).unwrap();
        // The committed slot rots: its first byte flips.
        let at = region.oid().offset + SLOT0_DATA_AT;
        pool.write(at, &[!image(2)[0]]).unwrap();
    }

    // Opening the pool and the region falls back to epoch 1 with reads only.
    let mut opened = None;
    let open = backend.count(|| {
        let pool = PmemPool::open_with_backend(backend.clone(), "backend-calls").unwrap();
        opened = Some(CheckpointRegion::open_root_shared(Arc::new(pool), &SerialExecutor).unwrap());
    });
    assert_eq!((open.writes, open.persists), (0, 0), "{open:?}");
    assert!(open.reads > 0);
    let mut region = opened.unwrap();
    assert_eq!(region.committed_epoch(), 1);
    let mut out = vec![0u8; DATA as usize];
    assert_eq!(region.restore(&mut out).unwrap(), 1);
    assert_eq!(out, image(1));

    // The next checkpoint targets the bad slot, rewrites every chunk of it
    // and commits epoch 2, the epoch the descriptor already names.
    let stats = region.checkpoint(&image(3)).unwrap();
    assert_eq!((stats.epoch, stats.chunks_written), (2, 4));
    drop(region);
    let pool = PmemPool::open_with_backend(backend.clone(), "backend-calls").unwrap();
    let region = CheckpointRegion::open_root(&pool).unwrap();
    assert_eq!(region.restore(&mut out).unwrap(), 2);
    assert_eq!(out, image(3));
}
