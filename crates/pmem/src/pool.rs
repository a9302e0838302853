//! Persistent memory pools — the `pmemobj_create` / `pmemobj_open` equivalent.
//!
//! A pool is a fixed-size region (a battery-backed buffer, a CXL expander
//! region, or a window of shared far memory) with:
//!
//! * a checksummed **header** carrying a magic number, a UUID and the layout
//!   name (Listing 2 of the paper opens the pool with `LAYOUT_NAME` and falls
//!   back from `pmemobj_create` to `pmemobj_open`),
//! * a **root object** slot (`pmemobj_root`),
//! * an **undo-log area** used by transactions,
//! * a **persistent heap** serving `POBJ_ALLOC`-style allocations.

use crate::alloc::{AllocStats, PersistentHeap};
use crate::backend::{SharedBackend, VolatileBackend};
use crate::error::PmemError;
use crate::oid::PmemOid;
use crate::persist::{PersistStats, PersistTracker};
use crate::tx::{Transaction, TxLog};
use crate::Result;
use cxl::sparse::ApplyFn;
use parking_lot::Mutex;
use std::sync::Arc;

/// Pool format magic number ("CXLPMEM1").
pub const POOL_MAGIC: u64 = 0x4358_4C50_4D45_4D31;
/// Pool format version.
pub const POOL_VERSION: u32 = 1;
/// Size reserved for the pool header.
pub const HEADER_SIZE: u64 = 4096;
/// Size reserved for the transaction undo log.
pub const LOG_SIZE: u64 = 256 * 1024;
/// Minimum pool size.
pub const MIN_POOL_SIZE: u64 = HEADER_SIZE + LOG_SIZE + 64 * 1024;
/// Maximum length of a layout name.
pub const MAX_LAYOUT: usize = 64;
/// Checksummed bytes at the start of the header: magic, version, padding,
/// uuid, size, layout name and six u64 fields.
const HEADER_BODY_LEN: usize = 8 + 4 + 4 + 8 + 8 + MAX_LAYOUT + 8 * 6;

#[derive(Debug, Clone, PartialEq)]
struct Header {
    magic: u64,
    version: u32,
    uuid: u64,
    pool_size: u64,
    layout: String,
    root_offset: u64,
    root_len: u64,
    heap_start: u64,
    heap_end: u64,
    log_start: u64,
    log_end: u64,
}

impl Header {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE as usize);
        out.extend_from_slice(&self.magic.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // padding
        out.extend_from_slice(&self.uuid.to_le_bytes());
        out.extend_from_slice(&self.pool_size.to_le_bytes());
        let mut layout_bytes = [0u8; MAX_LAYOUT];
        let src = self.layout.as_bytes();
        let n = src.len().min(MAX_LAYOUT);
        // in-bounds: n ≤ src.len() and n ≤ MAX_LAYOUT = layout_bytes.len().
        layout_bytes[..n].copy_from_slice(&src[..n]);
        out.extend_from_slice(&layout_bytes);
        out.extend_from_slice(&self.root_offset.to_le_bytes());
        out.extend_from_slice(&self.root_len.to_le_bytes());
        out.extend_from_slice(&self.heap_start.to_le_bytes());
        out.extend_from_slice(&self.heap_end.to_le_bytes());
        out.extend_from_slice(&self.log_start.to_le_bytes());
        out.extend_from_slice(&self.log_end.to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    fn from_bytes(bytes: &[u8; HEADER_SIZE as usize]) -> Result<Self> {
        // Fixed offsets matching `to_bytes`.
        let read_u64 = |at: usize| -> u64 {
            let mut buf = [0u8; 8];
            // in-bounds: at ≤ HEADER_BODY_LEN and HEADER_BODY_LEN + 8 ≤ HEADER_SIZE.
            buf.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(buf)
        };
        let read_u32 = |at: usize| -> u32 {
            let mut buf = [0u8; 4];
            // in-bounds: at = 8 and the header is HEADER_SIZE bytes.
            buf.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(buf)
        };
        let magic = read_u64(0);
        if magic != POOL_MAGIC {
            return Err(PmemError::BadMagic);
        }
        let stored_checksum = read_u64(HEADER_BODY_LEN);
        if fnv1a(&bytes[..HEADER_BODY_LEN]) != stored_checksum {
            return Err(PmemError::BadChecksum);
        }
        let layout_raw = &bytes[32..32 + MAX_LAYOUT];
        let layout_end = layout_raw
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(MAX_LAYOUT);
        // in-bounds: layout_end ≤ MAX_LAYOUT = layout_raw.len().
        let layout = String::from_utf8_lossy(&layout_raw[..layout_end]).to_string();
        let tail = 32 + MAX_LAYOUT;
        Ok(Header {
            magic,
            version: read_u32(8),
            uuid: read_u64(16),
            pool_size: read_u64(24),
            layout,
            root_offset: read_u64(tail),
            root_len: read_u64(tail + 8),
            heap_start: read_u64(tail + 16),
            heap_end: read_u64(tail + 24),
            log_start: read_u64(tail + 32),
            log_end: read_u64(tail + 40),
        })
    }
}

/// FNV-1a hash used for the header checksum, the checkpoint module's
/// slot-header checksums and chunk content hashes, and the tiering engine's
/// chunk-conservation hashes — one definition for every on-pool content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// A persistent memory pool.
pub struct PmemPool {
    backend: SharedBackend,
    tracker: Arc<PersistTracker>,
    header: Mutex<Header>,
    heap: PersistentHeap,
    log: TxLog,
    tx_lock: Mutex<()>,
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("layout", &self.layout())
            .field("uuid", &self.uuid())
            .field("capacity", &self.capacity())
            .field("backend", &self.backend.describe())
            .finish()
    }
}

impl PmemPool {
    // ------------------------------------------------------------------ create

    /// Creates a pool on a caller-provided backend (CXL endpoint region,
    /// battery-backed buffer, ...).
    pub fn create_with_backend(backend: SharedBackend, layout: &str) -> Result<Self> {
        let size = backend.capacity();
        if size < MIN_POOL_SIZE {
            return Err(PmemError::PoolTooSmall {
                bytes: size,
                minimum: MIN_POOL_SIZE,
            });
        }
        let tracker = Arc::new(PersistTracker::new());
        let header = Header {
            magic: POOL_MAGIC,
            version: POOL_VERSION,
            uuid: derive_uuid(layout, size),
            pool_size: size,
            layout: layout.chars().take(MAX_LAYOUT).collect(),
            root_offset: 0,
            root_len: 0,
            heap_start: HEADER_SIZE + LOG_SIZE,
            heap_end: size,
            log_start: HEADER_SIZE,
            log_end: HEADER_SIZE + LOG_SIZE,
        };
        let heap = PersistentHeap::new(
            Arc::clone(&backend),
            Arc::clone(&tracker),
            header.heap_start,
            header.heap_end,
        );
        heap.format()?;
        let log = TxLog::new(
            Arc::clone(&backend),
            Arc::clone(&tracker),
            header.log_start,
            header.log_end,
            header.heap_start..header.heap_end,
        );
        log.format()?;
        let pool = PmemPool {
            backend,
            tracker,
            header: Mutex::new(header),
            heap,
            log,
            tx_lock: Mutex::new(()),
        };
        pool.write_header()?;
        Ok(pool)
    }

    /// Opens an existing pool from a backend, validating the header and
    /// running transaction recovery.
    pub fn open_with_backend(backend: SharedBackend, layout: &str) -> Result<Self> {
        let mut header_bytes = [0u8; HEADER_SIZE as usize];
        backend.read_at(0, &mut header_bytes)?;
        let header = Header::from_bytes(&header_bytes)?;
        if header.layout != layout {
            return Err(PmemError::LayoutMismatch {
                found: header.layout,
                expected: layout.to_string(),
            });
        }
        let tracker = Arc::new(PersistTracker::new());
        let heap = PersistentHeap::new(
            Arc::clone(&backend),
            Arc::clone(&tracker),
            header.heap_start,
            header.heap_end,
        );
        let log = TxLog::new(
            Arc::clone(&backend),
            Arc::clone(&tracker),
            header.log_start,
            header.log_end,
            header.heap_start..header.heap_end,
        );
        // Recovery: roll back any transaction that did not commit.
        log.recover()?;
        heap.validate()?;
        Ok(PmemPool {
            backend,
            tracker,
            header: Mutex::new(header),
            heap,
            log,
            tx_lock: Mutex::new(()),
        })
    }

    /// Creates an in-memory pool (useful for tests and volatile Memory-Mode
    /// style usage).
    pub fn create_volatile(layout: &str, size: u64) -> Result<Self> {
        let backend: SharedBackend = Arc::new(VolatileBackend::new_persistent(size));
        Self::create_with_backend(backend, layout)
    }

    fn write_header(&self) -> Result<()> {
        let header = self.header.lock();
        let bytes = header.to_bytes();
        self.backend.write_at(0, &bytes)?;
        self.tracker.persist(&self.backend, 0, bytes.len() as u64)?;
        Ok(())
    }

    // ------------------------------------------------------------------ info

    /// The pool's UUID.
    pub fn uuid(&self) -> u64 {
        self.header.lock().uuid
    }

    /// The layout name the pool was created with.
    pub fn layout(&self) -> String {
        self.header.lock().layout.clone()
    }

    /// Total pool size in bytes.
    pub fn capacity(&self) -> u64 {
        self.header.lock().pool_size
    }

    /// Whether the backing store is persistent.
    pub fn is_persistent(&self) -> bool {
        self.backend.is_persistent()
    }

    /// A description of where the pool lives.
    pub fn describe(&self) -> String {
        self.backend.describe()
    }

    /// Heap statistics.
    pub fn alloc_stats(&self) -> Result<AllocStats> {
        self.heap.stats()
    }

    /// Persist (flush/drain) statistics.
    pub fn persist_stats(&self) -> PersistStats {
        self.tracker.stats()
    }

    /// The shared backend (used by the runtime for traffic accounting).
    pub fn backend(&self) -> SharedBackend {
        Arc::clone(&self.backend)
    }

    // ------------------------------------------------------------------ objects

    /// Allocates `bytes` from the persistent heap (`POBJ_ALLOC` equivalent).
    pub fn alloc_bytes(&self, bytes: u64) -> Result<PmemOid> {
        let offset = self.heap.alloc(bytes)?;
        Ok(PmemOid::new(self.uuid(), offset))
    }

    /// Frees an object (`POBJ_FREE` equivalent).
    pub fn free(&self, oid: PmemOid) -> Result<()> {
        self.check_oid(oid)?;
        self.heap.free(oid.offset)
    }

    /// Usable payload size of an allocated object.
    pub fn usable_size(&self, oid: PmemOid) -> Result<u64> {
        self.check_oid(oid)?;
        self.heap.usable_size(oid.offset)
    }

    fn check_oid(&self, oid: PmemOid) -> Result<()> {
        if oid.is_null() || oid.pool_uuid != self.uuid() {
            return Err(PmemError::InvalidOid);
        }
        Ok(())
    }

    /// Reads raw bytes at a pool offset.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.backend.read_at(offset, buf)
    }

    /// Writes raw bytes at a pool offset (non-transactional).
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.backend.write_at(offset, data)
    }

    /// Runs `f` on the pool's stored bytes in place: reads `len` bytes at
    /// each offset of `inputs` and writes `len` bytes at `output`
    /// (non-transactional, like [`write`](Self::write)). See
    /// [`PoolBackend::apply_at`](crate::PoolBackend::apply_at) for the pieces
    /// `f` sees and the ranges refused.
    pub fn apply(
        &self,
        inputs: &[u64],
        output: u64,
        len: usize,
        f: &mut ApplyFn<'_>,
    ) -> Result<()> {
        self.backend.apply_at(inputs, output, len, f)
    }

    /// Makes a byte range durable (`pmem_persist` equivalent).
    pub fn persist(&self, offset: u64, len: u64) -> Result<()> {
        self.tracker.persist(&self.backend, offset, len)
    }

    /// Flushes a byte range without the trailing fence (`pmem_flush`
    /// equivalent). Callers batching several ranges issue one flush per range
    /// and a single [`drain`](Self::drain) at the end — the chunk-granularity
    /// persist pattern the STREAM-PMem hot path uses.
    pub fn flush(&self, offset: u64, len: u64) -> Result<()> {
        self.tracker.flush(&self.backend, offset, len)
    }

    /// Store fence draining all previously flushed ranges (`pmem_drain`
    /// equivalent).
    pub fn drain(&self) {
        self.tracker.drain();
    }

    // ------------------------------------------------------------------ root

    /// Sets the root object (`pmemobj_root` equivalent): records which
    /// allocation the application treats as its entry point.
    pub fn set_root(&self, oid: PmemOid, len: u64) -> Result<()> {
        self.check_oid(oid)?;
        {
            let mut header = self.header.lock();
            header.root_offset = oid.offset;
            header.root_len = len;
        }
        self.write_header()
    }

    /// The root object, if one has been set.
    pub fn root(&self) -> Option<(PmemOid, u64)> {
        let header = self.header.lock();
        if header.root_offset == 0 {
            None
        } else {
            Some((
                PmemOid::new(header.uuid, header.root_offset),
                header.root_len,
            ))
        }
    }

    // ------------------------------------------------------------------ tx

    /// Runs `body` inside a transaction. All ranges registered with
    /// [`Transaction::add_range`] (and all writes made through
    /// [`Transaction::write`] or [`Transaction::write_all`]) are rolled back
    /// if `body` returns an error, if it panics, or if the process crashes
    /// before commit.
    pub fn run_tx<T>(&self, body: impl FnOnce(&mut Transaction<'_>) -> Result<T>) -> Result<T> {
        let _guard = self.tx_lock.lock();
        let mut tx = Transaction::begin(&self.backend, &self.tracker, &self.log)?;
        match body(&mut tx) {
            Ok(value) => {
                tx.commit()?;
                Ok(value)
            }
            Err(e) => {
                // A host that died mid-transaction rolls nothing back: the
                // log stays for the recovery that follows.
                if !e.is_injected_crash() {
                    tx.abort()?;
                }
                Err(e)
            }
        }
    }

    /// Runs transaction recovery explicitly (normally done by
    /// [`open_with_backend`](Self::open_with_backend)). Returns `true` if an
    /// interrupted transaction was rolled back.
    pub fn recover(&self) -> Result<bool> {
        self.log.recover()
    }

    /// Whether an interrupted transaction's undo log is still active (i.e.
    /// recovery has work to do). After a successful recovery this is `false`.
    pub fn tx_log_active(&self) -> Result<bool> {
        self.log.is_active()
    }
}

fn derive_uuid(layout: &str, size: u64) -> u64 {
    // Deterministic UUID: good enough for tests and reproducible runs, while
    // still distinguishing pools of different layouts/sizes.
    let mut bytes = layout.as_bytes().to_vec();
    bytes.extend_from_slice(&size.to_le_bytes());
    bytes.extend_from_slice(&std::process::id().to_le_bytes());
    fnv1a(&bytes) | 1 // never zero
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::BLOCK_HEADER;
    use crate::backend::PoolBackend;

    const POOL_SIZE: u64 = 2 * 1024 * 1024;

    fn volatile_pool() -> (VolatileBackend, PmemPool) {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool = PmemPool::create_with_backend(shared, "stream").unwrap();
        (backend, pool)
    }

    #[test]
    fn create_sets_header_and_heap() {
        let (_, pool) = volatile_pool();
        assert_eq!(pool.layout(), "stream");
        assert_eq!(pool.capacity(), POOL_SIZE);
        assert!(pool.uuid() != 0);
        assert!(pool.is_persistent());
        let stats = pool.alloc_stats().unwrap();
        assert_eq!(stats.allocated_blocks, 0);
        assert!(stats.free > POOL_SIZE / 2);
    }

    #[test]
    fn too_small_backend_is_rejected() {
        let backend: SharedBackend = Arc::new(VolatileBackend::new(1024));
        assert!(matches!(
            PmemPool::create_with_backend(backend, "x").unwrap_err(),
            PmemError::PoolTooSmall { .. }
        ));
    }

    #[test]
    fn alloc_write_read_free() {
        let (_, pool) = volatile_pool();
        let oid = pool.alloc_bytes(1000).unwrap();
        assert!(pool.usable_size(oid).unwrap() >= 1000);
        pool.write(oid.offset, b"persistent payload").unwrap();
        pool.persist(oid.offset, 18).unwrap();
        let mut buf = [0u8; 18];
        pool.read(oid.offset, &mut buf).unwrap();
        assert_eq!(&buf, b"persistent payload");
        pool.free(oid).unwrap();
        assert!(pool.free(oid).is_err());
    }

    #[test]
    fn foreign_and_null_oids_are_rejected() {
        let (_, pool) = volatile_pool();
        assert!(pool.free(PmemOid::NULL).is_err());
        assert!(pool.free(PmemOid::new(12345, 8192)).is_err());
        assert!(pool.usable_size(PmemOid::new(12345, 8192)).is_err());
    }

    #[test]
    fn reopen_preserves_objects_and_root() {
        let (backend, pool) = volatile_pool();
        let oid = pool.alloc_bytes(256).unwrap();
        pool.write(oid.offset, b"root object state").unwrap();
        pool.persist(oid.offset, 17).unwrap();
        pool.set_root(oid, 256).unwrap();
        let uuid = pool.uuid();
        drop(pool);

        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "stream").unwrap();
        assert_eq!(reopened.uuid(), uuid);
        let (root, len) = reopened.root().unwrap();
        assert_eq!(len, 256);
        let mut buf = [0u8; 17];
        reopened.read(root.offset, &mut buf).unwrap();
        assert_eq!(&buf, b"root object state");
        // Heap still knows about the allocation.
        assert_eq!(reopened.alloc_stats().unwrap().allocated_blocks, 1);
    }

    #[test]
    fn open_with_wrong_layout_fails() {
        let (backend, pool) = volatile_pool();
        drop(pool);
        let shared: SharedBackend = Arc::new(backend);
        assert!(matches!(
            PmemPool::open_with_backend(shared, "different").unwrap_err(),
            PmemError::LayoutMismatch { .. }
        ));
    }

    #[test]
    fn open_of_garbage_fails_cleanly() {
        let backend = VolatileBackend::new(POOL_SIZE);
        backend.write_at(0, &[0xAB; 128]).unwrap();
        let shared: SharedBackend = Arc::new(backend);
        assert!(matches!(
            PmemPool::open_with_backend(shared, "stream").unwrap_err(),
            PmemError::BadMagic
        ));
        // A heap block whose size word is shorter than its header, or whose
        // end wraps the address space, is refused on open, not summed.
        for size in [8, u64::MAX - 15, u64::MAX - 4095] {
            let pool = PmemPool::create_volatile("garbage", 1 << 20).unwrap();
            let oid = pool.alloc_bytes(4096).unwrap();
            let backend = pool.backend();
            backend
                .write_at(oid.offset - BLOCK_HEADER, &size.to_le_bytes())
                .unwrap();
            drop(pool);
            assert!(
                matches!(
                    PmemPool::open_with_backend(backend, "garbage"),
                    Err(PmemError::NotAllocated(_))
                ),
                "size {size:#x}"
            );
        }
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let (backend, pool) = volatile_pool();
        drop(pool);
        // Flip a byte in the layout field (offset 40) without fixing the checksum.
        backend.write_at(40, &[0xFF]).unwrap();
        let shared: SharedBackend = Arc::new(backend);
        assert!(matches!(
            PmemPool::open_with_backend(shared, "stream").unwrap_err(),
            PmemError::BadChecksum
        ));
    }

    #[test]
    fn volatile_pool_constructor_works() {
        let pool = PmemPool::create_volatile("scratch", POOL_SIZE).unwrap();
        let oid = pool.alloc_bytes(64).unwrap();
        assert!(!oid.is_null());
    }

    #[test]
    fn persist_stats_accumulate() {
        let (_, pool) = volatile_pool();
        let before = pool.persist_stats();
        let oid = pool.alloc_bytes(64).unwrap();
        pool.write(oid.offset, &[1u8; 64]).unwrap();
        pool.persist(oid.offset, 64).unwrap();
        let after = pool.persist_stats();
        assert!(after.flushes > before.flushes);
        assert!(after.bytes_persisted > before.bytes_persisted);
    }
}
