//! The disaggregated cluster: switch-pooled far memory with federated
//! checkpoint/restart across simulated hosts.
//!
//! This is the paper's headline scenario made executable. §1.3's CXL 2.0
//! pooling puts a rack of Type-3 expanders behind a switch; §2.2's
//! multi-headed sharing exposes one carved segment to several compute nodes
//! with software-managed coherence. A [`DisaggregatedCluster`] owns the
//! [`CxlSwitch`], binds ports, carves [`PoolAllocation`]s per host, wraps each
//! in a [`SharedRegion`], and lays a `pmem` pool with a
//! [`CheckpointRegion`] inside the shared window — so
//! a checkpoint written by host A is a first-class object host B can restore
//! after A fails.
//!
//! ```text
//!   host A (compute node)          host B (spare node)
//!      │ checkpoint(data)             │ attach · acquire · restore
//!      ▼                              ▼
//!   [HostSegment · host 0]        [HostSegment · host 1]
//!      │ SharedRegionBackend         │ SharedRegionBackend
//!      ▼                              ▼
//!   ┌──────────── SharedRegion ("jacobi", software-managed) ───────────┐
//!   │  PmemPool ▸ CheckpointRegion (two-slot epochs, undo-log commit)  │
//!   └──────────────────────────┬───────────────────────────────────────┘
//!                              │ PoolAllocation (dpa window)
//!                     ┌────────┴────────┐
//!                     │    CxlSwitch    │  ports ↔ Type-3 expanders
//!                     └─────────────────┘
//! ```
//!
//! # Coherence discipline (enforced, not advisory)
//!
//! Under [`CoherenceMode::SoftwareManaged`] the device media is a single
//! store, but nothing guarantees another host's caches observe it. The
//! cluster therefore enforces the publish/acquire protocol the paper expects
//! applications to follow, once, in [`HostHandle`] — the one handle type
//! behind both [`HostSegment`] and [`HostStore`]:
//!
//! * a **commit ends in `publish`** — [`HostSegment::checkpoint`] and the
//!   object store's `commit`/`delete` publish exactly once, after the commit
//!   record is durable; a mutation that fails (a crashed host or a real
//!   error) publishes nothing and drops the handle's cached layout with its
//!   pool, so the next use opens the pool afresh and recovers;
//! * a **read or write on another host requires `acquire`** — using a handle
//!   whose host's acquired version is stale is [`ClusterError::NotAcquired`],
//!   a typed error instead of silently stale data;
//! * reading a segment whose writer **never published** is
//!   [`ClusterError::NeverPublished`] — even when bytes already landed on the
//!   media, the reader has no right to them until the writer signals. Writing
//!   one is allowed: the creator is the one establishing publication;
//! * a handle uses its **cached layout only while it reflects the region's
//!   current version** — the view is per host, the layout per handle, so a
//!   layout opened before another host's publication (or before a write
//!   under hardware coherence, which publishes implicitly) is refreshed,
//!   whichever handle of the host acquired. A refresh keeps the pool the
//!   handle opened: it runs that pool's undo-log recovery, as the first
//!   open does, and reads the layout again, but not the pool header or the
//!   heap, which only the segment's creation writes.
//!
//! Media durability is separate: the pool backend's `persist` maps to the
//! region's Global-Persistent-Flush path, so a torn commit is still
//! recoverable (the undo log rolls it back on the next open or refresh)
//! even though it was never published. A test crashes a host by running
//! its attempt on a pool of its own over
//! `Crash::wrap(SharedRegionBackend::new(..))`.
//!
//! # Object segments
//!
//! Checkpoint segments move one bulk snapshot at a time; **object segments**
//! put a [`pmem::ObjectStore`] inside the shared window instead — millions of
//! small epoch-versioned objects with per-object commit records over the same
//! undo log. [`ClusterHost::create_store`] / [`ClusterHost::open_store`]
//! return a [`HostStore`] whose `get`/`put`/`commit`/`delete` obey exactly
//! the discipline above, and whose `*_classed` variants route each op
//! through the fleet's QoS admission front door.

// Re-exported so harnesses driving the cluster (the streamer scenarios, the
// examples) need only a `cxl-pmem` dependency, crashing hosts included.
pub use cxl::CoherenceMode;
pub use pmem::{
    CheckpointRegion, CheckpointStats, Crash, ObjectStore, PmemPool, SerialExecutor,
    SharedRegionBackend, StoreCheck,
};

use crate::admission::{AdmissionController, QosClass};
use crate::PooledChunkExecutor;
use cxl::{
    Attachment, CxlError, CxlSwitch, HostId, PoolAllocation, PortId, SharedRegion, Type3Device,
};
use numa::PinnedPool;
use pmem::{ChunkExecutor, PmemError, PmemOid};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Errors surfaced by the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// No segment with this name exists in the cluster.
    UnknownSegment(String),
    /// A segment with this name already exists.
    SegmentExists(String),
    /// Software-managed coherence: the host tried to use the segment without
    /// having acquired the latest publication (stale view — refused, not
    /// returned).
    NotAcquired {
        /// The offending host.
        host: HostId,
        /// The segment it used.
        segment: String,
    },
    /// Software-managed coherence: the segment's writer never published, so
    /// no reader is entitled to its bytes yet.
    NeverPublished {
        /// The segment that was read.
        segment: String,
    },
    /// The request was refused by fleet admission control (overload, closed
    /// class, or an over-burst request) — the typed "back off" signal.
    Admission(crate::admission::AdmissionError),
    /// The CXL layer (switch pooling, shared-region access) failed.
    Cxl(CxlError),
    /// The persistent store (pool, checkpoint region) failed.
    Pmem(PmemError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownSegment(name) => write!(f, "unknown shared segment '{name}'"),
            ClusterError::SegmentExists(name) => {
                write!(f, "shared segment '{name}' already exists")
            }
            ClusterError::NotAcquired { host, segment } => write!(
                f,
                "host {host} must acquire segment '{segment}' before using it \
                 (software-managed coherence)"
            ),
            ClusterError::NeverPublished { segment } => write!(
                f,
                "segment '{segment}' was never published by its writer; refusing the read"
            ),
            ClusterError::Admission(e) => write!(f, "{e}"),
            ClusterError::Cxl(e) => write!(f, "cxl error: {e}"),
            ClusterError::Pmem(e) => write!(f, "pmem error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CxlError> for ClusterError {
    fn from(e: CxlError) -> Self {
        ClusterError::Cxl(e)
    }
}
impl From<PmemError> for ClusterError {
    fn from(e: PmemError) -> Self {
        ClusterError::Pmem(e)
    }
}
impl From<crate::admission::AdmissionError> for ClusterError {
    fn from(e: crate::admission::AdmissionError) -> Self {
        ClusterError::Admission(e)
    }
}

/// Result alias for cluster operations.
pub type ClusterResult<T> = std::result::Result<T, ClusterError>;

/// One named shared segment: the allocation it was carved from, the shared
/// window over it, the length its pool root records (a checkpoint's
/// snapshot size, an object store's layout size), and the cluster's workers
/// its opens and restores run on.
struct Segment {
    name: String,
    allocation: PoolAllocation,
    region: Arc<SharedRegion>,
    data_len: u64,
    workers: Workers,
}

/// Where a segment's chunk jobs run: the resident workers of a runtime-built
/// cluster, or the calling thread.
#[derive(Clone)]
struct Workers(Option<Arc<PinnedPool>>);

impl ChunkExecutor for Workers {
    fn run_chunks(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> pmem::Result<()> + Sync),
    ) -> pmem::Result<()> {
        match &self.0 {
            Some(pool) => PooledChunkExecutor(pool).run_chunks(jobs, job),
            None => SerialExecutor.run_chunks(jobs, job),
        }
    }

    fn lanes(&self) -> usize {
        self.0
            .as_deref()
            .map_or(1, |pool| PooledChunkExecutor(pool).lanes())
    }
}

/// State shared by the cluster facade and every host handle. The switch
/// locks itself (all methods take `&self`), so only the segment name table
/// needs a cluster-level lock.
struct ClusterShared {
    mode: CoherenceMode,
    switch: CxlSwitch,
    segments: Mutex<HashMap<String, Arc<Segment>>>,
    workers: Workers,
}

impl ClusterShared {
    fn segments(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Segment>>> {
        self.segments.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A rack-level disaggregated-memory cluster: a CXL 2.0 switch pooling Type-3
/// expanders, per-host capacity carving, and named shared segments hosts
/// checkpoint into and restore from (see the [module docs](self)).
pub struct DisaggregatedCluster {
    shared: Arc<ClusterShared>,
}

impl fmt::Debug for DisaggregatedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DisaggregatedCluster")
            .field("mode", &self.shared.mode)
            .field("ports", &self.shared.switch.ports())
            .field("segments", &self.shared.segments().len())
            .finish()
    }
}
impl DisaggregatedCluster {
    /// Creates an empty cluster (no pooled devices yet) whose shared segments
    /// use `mode` for cross-host coherence. Its segments open and restore on
    /// the calling thread, so every backend call comes in the same order on
    /// every run.
    pub fn new(name: impl Into<String>, mode: CoherenceMode) -> Self {
        Self::with_workers(name, mode, None)
    }

    /// [`new`](Self::new), with checkpoint segments opening and restoring on
    /// `workers` when given.
    pub(crate) fn with_workers(
        name: impl Into<String>,
        mode: CoherenceMode,
        workers: Option<Arc<PinnedPool>>,
    ) -> Self {
        DisaggregatedCluster {
            shared: Arc::new(ClusterShared {
                mode,
                switch: CxlSwitch::new(name),
                segments: Mutex::new(HashMap::new()),
                workers: Workers(workers),
            }),
        }
    }

    /// Attaches a Type-3 expander to the next downstream port.
    pub fn attach_device(&self, device: Arc<Type3Device>) -> PortId {
        self.shared.switch.attach_device(device)
    }

    /// Binds a downstream port exclusively to `host`; subsequent segment
    /// carving for other hosts skips this port.
    pub fn bind_port(&self, port: PortId, host: HostId) -> ClusterResult<()> {
        self.shared.switch.bind_port(port, host).map_err(Into::into)
    }

    /// Unbinds a port, returning it to the anyone-may-allocate pool.
    pub fn unbind_port(&self, port: PortId) -> ClusterResult<()> {
        self.shared.switch.unbind_port(port).map_err(Into::into)
    }

    /// The coherence mode every segment of this cluster uses.
    pub fn mode(&self) -> CoherenceMode {
        self.shared.mode
    }

    /// Number of pooled downstream ports.
    pub fn ports(&self) -> usize {
        self.shared.switch.ports()
    }

    /// Total pooled capacity (bytes).
    pub fn total_capacity(&self) -> u64 {
        self.shared.switch.total_capacity()
    }

    /// Pooled capacity not assigned to any host (bytes).
    pub fn unassigned_capacity(&self) -> u64 {
        self.shared.switch.unassigned_capacity()
    }

    /// Pooled capacity currently assigned to `host` (bytes).
    pub fn assigned_to(&self, host: HostId) -> u64 {
        self.shared.switch.assigned_to(host)
    }

    /// A consistent pool-capacity snapshot (total / unassigned / per-host
    /// assigned), safe to take while other hosts allocate and release.
    pub fn accounting(&self) -> cxl::PoolAccounting {
        self.shared.switch.accounting()
    }

    /// Names of the live shared segments, sorted.
    pub fn segment_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.segments().keys().cloned().collect();
        names.sort();
        names
    }

    /// Tears a segment down and releases its pool allocation back to the
    /// switch (dynamic capacity release). Host handles still holding the
    /// segment keep a working window — the model cannot revoke mappings —
    /// but the capacity is reusable and the name can be recreated.
    pub fn release_segment(&self, name: &str) -> ClusterResult<()> {
        let segment = self
            .shared
            .segments()
            .remove(name)
            .ok_or_else(|| ClusterError::UnknownSegment(name.to_string()))?;
        self.shared
            .switch
            .release(segment.allocation.id)
            .map_err(Into::into)
    }

    /// A handle acting as `host` — the per-host view every compute node gets.
    pub fn host(&self, host: HostId) -> ClusterHost {
        ClusterHost {
            host,
            shared: Arc::clone(&self.shared),
        }
    }
}

/// A cluster handle scoped to one simulated host.
pub struct ClusterHost {
    host: HostId,
    shared: Arc<ClusterShared>,
}

impl fmt::Debug for ClusterHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterHost")
            .field("host", &self.host)
            .finish()
    }
}

impl ClusterHost {
    /// The host id this handle acts as.
    pub fn id(&self) -> HostId {
        self.host
    }

    /// Carves a new shared segment sized for checkpoints of `data_len` bytes
    /// persisted at `chunk_len` granularity, formats the pool + checkpoint
    /// region inside it, and returns this host's handle. The switch skips
    /// ports bound to other hosts, so an exclusive binding really reserves
    /// its device.
    pub fn create_segment(
        &self,
        name: impl Into<String>,
        data_len: u64,
        chunk_len: u64,
    ) -> ClusterResult<HostSegment> {
        let size = CheckpointRegion::required_pool_size(data_len, chunk_len);
        self.create(name.into(), size, data_len, |pool| {
            Ok(CheckpointRegion::format(pool, data_len, chunk_len)?.oid())
        })
    }

    /// Attaches this host to an existing segment (maps the shared window).
    /// The pool inside is opened lazily — on the first `checkpoint`/`restore`
    /// — so undo-log recovery runs on the host that actually takes over.
    pub fn attach_segment(&self, name: &str) -> ClusterResult<HostSegment> {
        self.attach(name)
    }

    /// Carves a new shared segment holding a versioned [`pmem::ObjectStore`]
    /// for up to `capacity` objects of at most `value_len` bytes each,
    /// formats the pool + store inside it, and returns this host's handle.
    pub fn create_store(
        &self,
        name: impl Into<String>,
        capacity: u64,
        value_len: u64,
    ) -> ClusterResult<HostStore> {
        let size = ObjectStore::required_pool_size(capacity, value_len);
        let region_len = ObjectStore::region_size(capacity, value_len);
        self.create(name.into(), size, region_len, |pool| {
            Ok(ObjectStore::format(pool, capacity, value_len)?.oid())
        })
    }

    /// Attaches this host to an existing object segment. The pool inside is
    /// opened lazily — on the first object op — so undo-log recovery runs on
    /// the host that actually takes over.
    pub fn open_store(&self, name: &str) -> ClusterResult<HostStore> {
        self.attach(name)
    }

    /// Carves `pool_size` bytes, formats a pool inside the shared window,
    /// lays out the payload with `format`, registers it as the pool root
    /// (`data_len` bytes), and only then registers the segment name: a
    /// concurrent attach can never see (and keep using) a window whose
    /// capacity a failure rollback is about to release.
    fn create<P: SegmentPayload>(
        &self,
        name: String,
        pool_size: u64,
        data_len: u64,
        format: impl FnOnce(&PmemPool) -> pmem::Result<PmemOid>,
    ) -> ClusterResult<HostHandle<P>> {
        let switch = &self.shared.switch;
        let allocation = {
            let segments = self.shared.segments();
            if segments.contains_key(&name) {
                return Err(ClusterError::SegmentExists(name));
            }
            switch.allocate(self.host, pool_size)?
        };
        let allocation_id = allocation.id;
        let created = (|| {
            let region = Arc::new(switch.shared_region(&allocation, self.shared.mode)?);
            let attachment = region.attach(self.host);
            let backend = SharedRegionBackend::new(Arc::clone(&region), self.host);
            let pool = Arc::new(PmemPool::create_with_backend(Arc::new(backend), &name)?);
            pool.set_root(format(&pool)?, data_len)?;
            let workers = self.shared.workers.clone();
            let payload = P::open_payload(pool, &workers)?;
            let segment = Arc::new(Segment {
                name: name.clone(),
                allocation,
                region,
                data_len,
                workers,
            });
            match self.shared.segments().entry(name) {
                // Another creator raced us to the name while we were
                // formatting off-lock; theirs won.
                Entry::Occupied(taken) => Err(ClusterError::SegmentExists(taken.key().clone())),
                Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(&segment));
                    Ok(HostHandle::new(attachment, segment, Some(payload)))
                }
            }
        })();
        if created.is_err() {
            // A failed (or name-raced) create must not leak the carved capacity.
            let _ = switch.release(allocation_id);
        }
        created
    }

    /// Maps an existing segment's window for this host; the payload opens
    /// on first use.
    fn attach<P: SegmentPayload>(&self, name: &str) -> ClusterResult<HostHandle<P>> {
        let segment = self
            .shared
            .segments()
            .get(name)
            .cloned()
            .ok_or_else(|| ClusterError::UnknownSegment(name.to_string()))?;
        let attachment = segment.region.attach(self.host);
        Ok(HostHandle::new(attachment, segment, None))
    }
}

/// The layout a [`HostHandle`] keeps open inside its shared segment: the
/// checkpoint region of a [`HostSegment`] or the object store of a
/// [`HostStore`].
pub trait SegmentPayload: Sized {
    /// Opens the layout registered as the pool's root object, sharing
    /// ownership of the pool so the layout can live in the handle. Chunked
    /// validation, where the layout has any, runs through `exec`.
    fn open_payload(pool: Arc<PmemPool>, exec: &impl ChunkExecutor) -> pmem::Result<Self>;

    /// The pool the layout holds.
    fn pool(&self) -> &PmemPool;

    /// Opens the layout again on the pool it holds, as
    /// [`open_payload`](Self::open_payload) would on a reopened pool.
    fn reopen(&self, exec: &impl ChunkExecutor) -> pmem::Result<Self>;
}

impl SegmentPayload for CheckpointRegion<'static> {
    fn open_payload(pool: Arc<PmemPool>, exec: &impl ChunkExecutor) -> pmem::Result<Self> {
        CheckpointRegion::open_root_shared(pool, exec)
    }

    fn pool(&self) -> &PmemPool {
        CheckpointRegion::pool(self)
    }

    fn reopen(&self, exec: &impl ChunkExecutor) -> pmem::Result<Self> {
        CheckpointRegion::reopen(self, exec)
    }
}

impl SegmentPayload for ObjectStore<'static> {
    /// The store validates one entry per op, not a slot: `exec` is unused.
    fn open_payload(pool: Arc<PmemPool>, _exec: &impl ChunkExecutor) -> pmem::Result<Self> {
        ObjectStore::open_root_shared(pool)
    }

    fn pool(&self) -> &PmemPool {
        ObjectStore::pool(self)
    }

    /// As [`open_payload`](SegmentPayload::open_payload), `exec` is unused.
    fn reopen(&self, _exec: &impl ChunkExecutor) -> pmem::Result<Self> {
        ObjectStore::reopen(self)
    }
}

/// One host's attachment to one shared segment, with the coherence
/// discipline of the [module docs](self) enforced once for every payload
/// kind: [`HostSegment`] checkpoints in and restores out, [`HostStore`]
/// serves KV-style get/put/commit/delete with optional QoS admission classing
/// per op.
///
/// Dropping the handle models the host being torn down — the segment's bytes
/// stay on the pooled (battery-backed) devices, and any other host can
/// attach and take over (undo-log recovery rolls back a commit the dead host
/// tore).
pub struct HostHandle<P> {
    /// The host's attachment to the segment's region: every protocol call
    /// and view check goes through it, with no host-table lookup.
    attachment: Attachment,
    segment: Arc<Segment>,
    /// The opened layout (shared ownership of its pool). Kept across calls
    /// so its caches survive — an unchanged checkpoint stays a
    /// zero-chunk-flush no-op on the cluster path too. `None` until first
    /// use. Once the region's version moves past `layout_version` it is
    /// refreshed on the pool it holds, after that pool's recovery. A failed
    /// mutation or refresh drops it with its pool, so the next use opens
    /// the pool afresh and recovers.
    payload: Option<P>,
    /// The region version `payload` reflects, recorded when it opens and
    /// after this handle's own mutations.
    layout_version: u64,
    /// Optional QoS front door the `*_classed` ops submit through.
    front_door: Option<Arc<AdmissionController>>,
}

/// A host's handle on a checkpoint segment.
pub type HostSegment = HostHandle<CheckpointRegion<'static>>;

/// A host's handle on an object segment.
pub type HostStore = HostHandle<ObjectStore<'static>>;

impl<P> fmt::Debug for HostHandle<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostHandle")
            .field("host", &self.attachment.host())
            .field("segment", &self.segment.name)
            .field("pool_open", &self.payload.is_some())
            .field("front_door", &self.front_door.is_some())
            .finish()
    }
}

impl<P: SegmentPayload> HostHandle<P> {
    fn new(attachment: Attachment, segment: Arc<Segment>, payload: Option<P>) -> Self {
        HostHandle {
            layout_version: attachment.region_version(),
            attachment,
            segment,
            payload,
            front_door: None,
        }
    }

    /// The segment's name.
    pub fn name(&self) -> &str {
        &self.segment.name
    }

    /// The host this handle acts as.
    pub fn host(&self) -> HostId {
        self.attachment.host()
    }

    /// The shared window the segment lives in (stats, protocol state).
    pub fn region(&self) -> Arc<SharedRegion> {
        Arc::clone(&self.segment.region)
    }

    /// Acquires the latest publication of the segment — the reader half of
    /// the software-coherence protocol, required before a host that did not
    /// write the data may read or extend it.
    ///
    /// The acquire is the host's: every handle of the host sees the new
    /// publication. A handle whose cached layout described an older version
    /// — the checkpoint region's epoch and chunk-hash cache, the store's
    /// staged puts — refreshes it on its next op, on the pool it holds,
    /// after that pool's undo-log recovery. A staged put discarded this way
    /// surfaces as a typed `commit without a staged put` error; stage it
    /// again against the refreshed view.
    pub fn acquire(&mut self) -> ClusterResult<u64> {
        Ok(self.attachment.acquire())
    }

    /// The coherence check. Under software-managed coherence a read needs a
    /// published segment and a current view; a write needs a current view
    /// only once the segment was published, because the creator is the one
    /// establishing publication. Hardware coherence refuses nothing.
    ///
    /// The region version is loaded once: a view is current when the host's
    /// acquired version equals it.
    fn check_view(&self, write: bool) -> ClusterResult<()> {
        let attachment = &self.attachment;
        if attachment.mode() != CoherenceMode::SoftwareManaged {
            return Ok(());
        }
        let version = attachment.region_version();
        if version == 0 {
            if write {
                return Ok(());
            }
            return Err(ClusterError::NeverPublished {
                segment: self.segment.name.clone(),
            });
        }
        if attachment.acquired_version() != version {
            return Err(ClusterError::NotAcquired {
                host: attachment.host(),
                segment: self.segment.name.clone(),
            });
        }
        Ok(())
    }

    /// The cached layout, opened on first use. Opening the pool runs its
    /// recovery: a commit record torn by the previous owner's crash is
    /// rolled back before any op sees the layout.
    ///
    /// A layout whose region version moved is superseded and refreshed
    /// here: another host published (and this host acquired, through this
    /// handle or another) or, under hardware coherence, wrote. The refresh
    /// keeps the layout's pool. It runs that pool's recovery, as the first
    /// open does, then opens the layout again on it. The pool's header and
    /// heap are not read again: only the segment's creation writes them. A
    /// refresh that fails drops the layout and its pool, so the next use
    /// opens the pool afresh.
    fn payload(&mut self) -> pmem::Result<&mut P> {
        let version = self.attachment.region_version();
        if self.layout_version != version {
            self.layout_version = version;
            if let Some(stale) = self.payload.take() {
                stale.pool().recover()?;
                self.payload = Some(stale.reopen(&self.segment.workers)?);
            }
        }
        match &mut self.payload {
            Some(payload) => Ok(payload),
            slot @ None => {
                self.layout_version = version;
                let region = Arc::clone(&self.segment.region);
                let backend = SharedRegionBackend::new(region, self.attachment.host());
                let pool = PmemPool::open_with_backend(Arc::new(backend), &self.segment.name)?;
                let payload = P::open_payload(Arc::new(pool), &self.segment.workers)?;
                Ok(slot.insert(payload))
            }
        }
    }

    /// The layout for a read. Discipline first: a stale or never-published
    /// view is refused before the pool opens or the layout refreshes, so
    /// such a host never runs recovery on shared state.
    fn reader(&mut self) -> ClusterResult<&mut P> {
        self.check_view(false)?;
        Ok(self.payload()?)
    }

    /// Runs `op` as a mutation of the layout. Success publishes when
    /// `publish` is set — a commit ends in a publish, so other hosts become
    /// entitled to acquire it. Any failure publishes nothing and drops the
    /// cached layout with its pool, so this handle's next use opens the
    /// pool afresh and recovers.
    fn mutate<T>(
        &mut self,
        publish: bool,
        op: impl FnOnce(&mut P) -> pmem::Result<T>,
    ) -> ClusterResult<T> {
        self.check_view(true)?;
        match self.payload().and_then(op) {
            Ok(value) => {
                // The layout now reflects this handle's own writes, which
                // hardware coherence publishes one by one.
                let attachment = &self.attachment;
                if publish {
                    self.layout_version = attachment.publish();
                } else if attachment.mode() == CoherenceMode::HardwareBackInvalidate {
                    self.layout_version = attachment.region_version();
                }
                Ok(value)
            }
            Err(e) => {
                self.payload = None;
                Err(e.into())
            }
        }
    }
}

impl HostSegment {
    /// Snapshot payload size the segment was created for (bytes).
    pub fn data_len(&self) -> u64 {
        self.segment.data_len
    }

    /// Commits `data` as the next epoch and **publishes** it — the
    /// software-coherence contract that a checkpoint commit ends in a
    /// publish. Serial persist path; see
    /// [`checkpoint_with`](Self::checkpoint_with) for the fan-out variant.
    pub fn checkpoint(&mut self, data: &[u8]) -> ClusterResult<CheckpointStats> {
        self.checkpoint_with(data, &SerialExecutor)
    }

    /// Like [`checkpoint`](Self::checkpoint), with chunk flushes fanned out
    /// through `exec` (e.g. the runtime's resident worker pool via
    /// [`PooledChunkExecutor`]).
    pub fn checkpoint_with(
        &mut self,
        data: &[u8],
        exec: &impl ChunkExecutor,
    ) -> ClusterResult<CheckpointStats> {
        self.mutate(true, |ckpt| ckpt.checkpoint_with(data, exec))
    }

    /// Restores the last committed epoch into `out` and returns its number.
    ///
    /// Discipline first: under software-managed coherence this fails with
    /// [`ClusterError::NeverPublished`] if the writer never published and
    /// [`ClusterError::NotAcquired`] if this host has not acquired the latest
    /// publication. Only then is the pool opened, or the layout refreshed
    /// on it (either runs crash recovery if the writer died mid-commit), and
    /// the committed slot read back, one chunk per job on the cluster's
    /// workers when it has them.
    pub fn restore(&mut self, out: &mut [u8]) -> ClusterResult<u64> {
        let segment = Arc::clone(&self.segment);
        Ok(self.reader()?.restore_with(out, &segment.workers)?)
    }

    /// The last committed epoch recorded in the segment (0 = none), subject
    /// to the same coherence discipline as [`restore`](Self::restore). The
    /// first use opens the region, validating its committed slot one chunk
    /// per job on the cluster's workers when it has them.
    pub fn committed_epoch(&mut self) -> ClusterResult<u64> {
        Ok(self.reader()?.committed_epoch())
    }
}

impl HostStore {
    /// Routes this handle's `*_classed` ops through a QoS admission front
    /// door (typically the fleet's shared [`AdmissionController`]).
    pub fn set_front_door(&mut self, controller: Arc<AdmissionController>) {
        self.front_door = Some(controller);
    }

    /// The attached front door, if any.
    pub fn front_door(&self) -> Option<&Arc<AdmissionController>> {
        self.front_door.as_ref()
    }

    /// Submits `bytes` of `class` traffic to the front door `door` (when one
    /// is attached) at virtual time `now`. Refusals surface as
    /// [`ClusterError::Admission`]; queued work proceeds (its latency is the
    /// scenario harness's accounting), and due grants are drained by the
    /// poll the submit runs under the same lock.
    fn admit(
        door: Option<&AdmissionController>,
        class: QosClass,
        bytes: u64,
        now: f64,
    ) -> ClusterResult<()> {
        if let Some(door) = door {
            // Permits are admission-side bookkeeping; the op itself
            // executes below either way.
            door.submit_and_poll(class, bytes.max(1), now)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------ write side

    /// Stages a new version of object `id` (invisible until
    /// [`commit`](Self::commit)). Writers are bound by the coherence
    /// discipline: a stale view is a typed refusal.
    pub fn put(&mut self, id: u64, value: &[u8]) -> ClusterResult<()> {
        self.mutate(false, |store| store.put(id, value))
    }

    /// Commits the staged version of object `id`, **publishes** the segment
    /// (the coherence contract: a directory mutation ends in a publish), and
    /// returns the object's new epoch.
    pub fn commit(&mut self, id: u64) -> ClusterResult<u64> {
        self.mutate(true, |store| store.commit(id))
    }

    /// Stages and commits `value` as the next version of object `id`.
    pub fn put_commit(&mut self, id: u64, value: &[u8]) -> ClusterResult<u64> {
        self.put(id, value)?;
        self.commit(id)
    }

    /// Deletes object `id` (undo-logged) and publishes the segment.
    pub fn delete(&mut self, id: u64) -> ClusterResult<()> {
        self.mutate(true, |store| store.delete(id))
    }

    // ------------------------------------------------------------- read side

    /// Reads the committed version of object `id`. Discipline first: a
    /// never-published store or a stale view is a typed refusal, and the
    /// store itself validates the entry checksum + payload hash — the caller
    /// gets the exact committed bytes or an error, never a torn mix.
    pub fn get(&mut self, id: u64) -> ClusterResult<Vec<u8>> {
        Ok(self.reader()?.get(id)?)
    }

    /// The committed epoch of object `id` (discipline enforced).
    pub fn committed_version(&mut self, id: u64) -> ClusterResult<u64> {
        Ok(self.reader()?.committed_version(id)?)
    }

    /// Number of objects currently holding a committed version, read from
    /// the segment's media (discipline enforced).
    pub fn live(&mut self) -> ClusterResult<u64> {
        Ok(self.reader()?.live()?)
    }

    /// Full-directory audit (see [`pmem::ObjectStore::verify`]).
    pub fn verify(&mut self) -> ClusterResult<StoreCheck> {
        Ok(self.reader()?.verify()?)
    }

    // --------------------------------------------------------- classed traffic

    /// [`put`](Self::put) through the QoS front door: `value.len()` bytes of
    /// [`QosClass::Checkpoint`] (write-class) traffic at virtual time `now`.
    pub fn put_classed(&mut self, id: u64, value: &[u8], now: f64) -> ClusterResult<()> {
        Self::admit(
            self.front_door.as_deref(),
            QosClass::Checkpoint,
            value.len() as u64,
            now,
        )?;
        self.put(id, value)
    }

    /// [`commit`](Self::commit) through the QoS front door: the commit
    /// record itself is directory-entry sized.
    pub fn commit_classed(&mut self, id: u64, now: f64) -> ClusterResult<u64> {
        Self::admit(self.front_door.as_deref(), QosClass::Checkpoint, 64, now)?;
        self.commit(id)
    }

    /// [`get`](Self::get) through the QoS front door: one slot's worth of
    /// [`QosClass::Restore`] (read-class) traffic at virtual time `now`. One
    /// view check and one layout serve both the charge and the read.
    pub fn get_classed(&mut self, id: u64, now: f64) -> ClusterResult<Vec<u8>> {
        // The layout borrows the whole handle, so the door steps out of it
        // for the op (a clone of the shared door would bounce its count
        // between the hosts' threads on every get).
        let door = self.front_door.take();
        let got = self.reader().and_then(|store| {
            Self::admit(door.as_deref(), QosClass::Restore, store.value_len(), now)?;
            Ok(store.get(id)?)
        });
        self.front_door = door;
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl::{FpgaPrototype, LinkConfig};

    const MIB: u64 = 1024 * 1024;
    const DATA: u64 = 64 * 1024;
    const CHUNK: u64 = 4096;

    fn image(tag: u8) -> Vec<u8> {
        (0..DATA as usize)
            .map(|i| (i as u8).wrapping_mul(17).wrapping_add(tag))
            .collect()
    }

    /// A pool of the handle's host's own over its segment, every call of
    /// which `crash` counts: where a crashing attempt runs.
    fn crashable_pool<P: SegmentPayload>(handle: &HostHandle<P>, crash: &Crash) -> PmemPool {
        let backend = SharedRegionBackend::new(handle.region(), handle.host());
        PmemPool::open_with_backend(crash.wrap(Arc::new(backend)), handle.name()).unwrap()
    }

    /// The call a checkpoint attempt on a freshly opened pool dies at to
    /// strand its commit record: validating the target slot (its header and
    /// `validated` chunks), a write and a flush per dirty chunk, the slot
    /// header's write and persist, then the record's first eight calls, up
    /// to the clear of its undo log.
    fn log_clear_call(validated: u64, dirty: u64) -> u64 {
        1 + validated + 2 * dirty + 2 + 8
    }

    fn two_card_cluster(mode: CoherenceMode) -> DisaggregatedCluster {
        let cluster = DisaggregatedCluster::new("test-rack", mode);
        for i in 0..2 {
            cluster.attach_device(Arc::new(Type3Device::new(
                format!("card{i}"),
                64 * MIB,
                LinkConfig::gen5_x16(),
            )));
        }
        cluster
    }

    #[test]
    fn segments_respect_exclusive_port_bindings() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        cluster.bind_port(0, 7).unwrap();
        // Host 3's segment must come from port 1 — port 0 belongs to host 7.
        let seg = cluster.host(3).create_segment("h3", DATA, CHUNK).unwrap();
        drop(seg);
        let segs = cluster.shared.segments();
        assert_eq!(segs.get("h3").unwrap().allocation.port, 1);
        drop(segs);
        let seg7 = cluster.host(7).create_segment("h7", DATA, CHUNK).unwrap();
        drop(seg7);
        assert_eq!(
            cluster.shared.segments().get("h7").unwrap().allocation.port,
            0
        );
        assert!(cluster.assigned_to(3) > 0);
        assert_eq!(
            cluster.total_capacity(),
            cluster.unassigned_capacity() + cluster.assigned_to(3) + cluster.assigned_to(7)
        );
    }

    #[test]
    fn cross_host_restart_after_mid_commit_crash() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let golden = image(2);

        // Host A commits two epochs, then dies mid-commit of the third.
        {
            let mut a = cluster
                .host(0)
                .create_segment("jacobi", DATA, CHUNK)
                .unwrap();
            a.checkpoint(&image(1)).unwrap();
            a.checkpoint(&golden).unwrap();
            let crash = Crash::new();
            let pool = crashable_pool(&a, &crash);
            let mut region = CheckpointRegion::open_root(&pool).unwrap();
            let chunks = DATA / CHUNK;
            crash.arm(log_clear_call(chunks, chunks), false);
            let err = region.checkpoint(&image(3)).unwrap_err();
            assert!(err.is_injected_crash());
            crash.revive();
            assert!(pool.tx_log_active().unwrap(), "a stranded commit record");
        } // host A torn down

        // Host B attaches, acquires, restores epoch 2 bit-exact.
        let mut b = cluster.host(1).attach_segment("jacobi").unwrap();
        b.acquire().unwrap();
        let mut out = vec![0u8; DATA as usize];
        assert_eq!(b.restore(&mut out).unwrap(), 2);
        assert_eq!(out, golden);
        // And B can continue the epoch chain where A left off.
        let stats = b.checkpoint(&image(3)).unwrap();
        assert_eq!(stats.epoch, 3);
    }

    #[test]
    fn restore_without_acquire_is_a_typed_error() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_segment("seg", DATA, CHUNK).unwrap();
        a.checkpoint(&image(1)).unwrap();
        let mut b = cluster.host(1).attach_segment("seg").unwrap();
        let mut out = vec![0u8; DATA as usize];
        assert!(matches!(
            b.restore(&mut out).unwrap_err(),
            ClusterError::NotAcquired { host: 1, .. }
        ));
        b.acquire().unwrap();
        assert_eq!(b.restore(&mut out).unwrap(), 1);
        // A new publication staling B's view re-raises the error.
        a.checkpoint(&image(2)).unwrap();
        assert!(matches!(
            b.restore(&mut out).unwrap_err(),
            ClusterError::NotAcquired { host: 1, .. }
        ));
    }

    #[test]
    fn unpublished_segment_is_a_typed_error() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        // Host A dies during its *first* commit, tearing the slot header:
        // nothing was ever published.
        {
            let a = cluster
                .host(0)
                .create_segment("fresh", DATA, CHUNK)
                .unwrap();
            let crash = Crash::new();
            let pool = crashable_pool(&a, &crash);
            let mut region = CheckpointRegion::open_root(&pool).unwrap();
            crash.arm(log_clear_call(0, DATA / CHUNK) - 10, true);
            assert!(region
                .checkpoint(&image(1))
                .unwrap_err()
                .is_injected_crash());
        }
        let mut b = cluster.host(1).attach_segment("fresh").unwrap();
        b.acquire().unwrap();
        let mut out = vec![0u8; DATA as usize];
        assert!(matches!(
            b.restore(&mut out).unwrap_err(),
            ClusterError::NeverPublished { .. }
        ));
        assert!(matches!(
            b.committed_epoch().unwrap_err(),
            ClusterError::NeverPublished { .. }
        ));
    }

    #[test]
    fn hardware_coherence_needs_no_handshake() {
        let cluster = two_card_cluster(CoherenceMode::HardwareBackInvalidate);
        let mut a = cluster.host(0).create_segment("hw", DATA, CHUNK).unwrap();
        a.checkpoint(&image(5)).unwrap();
        let mut b = cluster.host(1).attach_segment("hw").unwrap();
        // No acquire: back-invalidation makes the publication visible.
        let mut out = vec![0u8; DATA as usize];
        assert_eq!(b.restore(&mut out).unwrap(), 1);
        assert_eq!(out, image(5));
    }

    #[test]
    fn hardware_coherent_handle_drops_a_superseded_layout() {
        let cluster = two_card_cluster(CoherenceMode::HardwareBackInvalidate);
        let mut a = cluster.host(0).create_segment("hw", DATA, CHUNK).unwrap();
        let mut b = cluster.host(1).attach_segment("hw").unwrap();
        let mut out = vec![0u8; DATA as usize];
        a.checkpoint(&image(1)).unwrap();
        assert_eq!(b.restore(&mut out).unwrap(), 1);
        a.checkpoint(&image(2)).unwrap();
        // No acquire: host 1's layout from epoch 1 is superseded, so it
        // restores host 0's epoch 2 ...
        assert_eq!(b.restore(&mut out).unwrap(), 2);
        assert_eq!(out, image(2));
        // ... and extends the chain instead of overwriting epoch 2's slot.
        assert_eq!(b.checkpoint(&image(3)).unwrap().epoch, 3);
        assert_eq!(a.restore(&mut out).unwrap(), 3);
        assert_eq!(out, image(3));
        let mut fresh = cluster.host(0).attach_segment("hw").unwrap();
        assert_eq!(fresh.restore(&mut out).unwrap(), 3);
        assert_eq!(out, image(3));
    }

    #[test]
    fn every_handle_of_a_host_drops_a_layout_another_handle_superseded() {
        let cluster = DisaggregatedCluster::new("one-card", CoherenceMode::SoftwareManaged);
        cluster.attach_device(Arc::new(Type3Device::new(
            "card",
            64 * MIB,
            LinkConfig::gen5_x16(),
        )));
        // Checkpoint segment: host 1's handle b1 restores epoch 1; host 0
        // commits epoch 2 and b2, host 1's other handle, acquires it.
        let mut a = cluster.host(0).create_segment("seg", DATA, CHUNK).unwrap();
        a.checkpoint(&image(1)).unwrap();
        let mut b1 = cluster.host(1).attach_segment("seg").unwrap();
        let mut b2 = cluster.host(1).attach_segment("seg").unwrap();
        b1.acquire().unwrap();
        let mut out = vec![0u8; DATA as usize];
        assert_eq!(b1.restore(&mut out).unwrap(), 1);
        a.checkpoint(&image(2)).unwrap();
        b2.acquire().unwrap();
        // Host 1's view is current, so b1 passes the check — and must not
        // serve the layout it opened at epoch 1.
        assert_eq!(b1.acquire().unwrap(), 2);
        assert_eq!(b1.restore(&mut out).unwrap(), 2);
        assert_eq!(out, image(2));

        // Object store: r1 counts one object; host 0 commits a second and
        // r2 acquires it.
        let mut w = cluster.host(0).create_store("kv", 16, 64).unwrap();
        w.put_commit(0, b"v1").unwrap();
        let mut r1 = cluster.host(1).open_store("kv").unwrap();
        let mut r2 = cluster.host(1).open_store("kv").unwrap();
        r1.acquire().unwrap();
        assert_eq!(r1.live().unwrap(), 1);
        w.put_commit(1, b"v2").unwrap();
        r2.acquire().unwrap();
        assert_eq!(r1.live().unwrap(), 2);
        assert_eq!(r1.get(1).unwrap(), b"v2");
        assert_eq!(r2.live().unwrap(), 2);
    }

    #[test]
    fn stale_hardware_coherent_store_reads_the_new_count() {
        let cluster = two_card_cluster(CoherenceMode::HardwareBackInvalidate);
        let mut a = cluster.host(0).create_store("kv", 16, 64).unwrap();
        a.put_commit(1, b"v1").unwrap();
        let mut b = cluster.host(1).open_store("kv").unwrap();
        assert_eq!(b.live().unwrap(), 1);
        a.put_commit(2, b"v2").unwrap();
        assert_eq!(b.live().unwrap(), 2);
        // Reads write nothing, and neither does the refresh's recovery of an
        // idle log, so the refreshed layout stays cached until another write
        // moves the version.
        let version = b.region().version();
        assert_eq!(b.get(2).unwrap(), b"v2");
        assert_eq!(b.region().version(), version);
    }

    #[test]
    fn a_refresh_reads_the_log_header_and_the_layout_not_the_pool() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        // Store: host 1 reads one of 64 objects of 256 B, then host 0
        // publishes one more commit.
        let mut w = cluster.host(0).create_store("kv", 64, 256).unwrap();
        for id in 0..64 {
            w.put_commit(id, &[id as u8; 256]).unwrap();
        }
        let mut r = cluster.host(1).open_store("kv").unwrap();
        let region = r.region();
        let bytes_read = || region.stats(1).unwrap().bytes_read;
        r.acquire().unwrap();
        assert_eq!(r.get(7).unwrap(), [7; 256]);
        // An unchanged view: the entry (40 B) and the value (256 B).
        let before = bytes_read();
        r.acquire().unwrap();
        assert_eq!(r.get(7).unwrap(), [7; 256]);
        assert_eq!(bytes_read() - before, 296);
        // A moved view adds the log header (16 B) and the descriptor (64 B),
        // not the 4 KiB pool header and the heap walk.
        w.put_commit(8, &[0xEE; 256]).unwrap();
        let before = bytes_read();
        r.acquire().unwrap();
        assert_eq!(r.get(7).unwrap(), [7; 256]);
        assert_eq!(bytes_read() - before, 376);

        // Checkpoint: a first open reads the pool header (4 KiB) and the
        // heap walk (32 B) once; a refresh after a publish reads the log
        // header, the descriptor, the slot header and the slot twice.
        let mut a = cluster.host(0).create_segment("seg", DATA, CHUNK).unwrap();
        a.checkpoint(&image(1)).unwrap();
        let mut b = cluster.host(1).attach_segment("seg").unwrap();
        let region = b.region();
        let bytes_read = || region.stats(1).unwrap().bytes_read;
        let mut out = vec![0u8; DATA as usize];
        b.acquire().unwrap();
        let before = bytes_read();
        assert_eq!(b.restore(&mut out).unwrap(), 1);
        let first_open = bytes_read() - before;
        a.checkpoint(&image(2)).unwrap();
        b.acquire().unwrap();
        let before = bytes_read();
        assert_eq!(b.restore(&mut out).unwrap(), 2);
        assert_eq!(out, image(2));
        let refresh = bytes_read() - before;
        assert_eq!((first_open, refresh), (135_312, 131_184));
        assert_eq!(first_open - refresh, 4096 + 32);
    }

    #[test]
    fn checkpoint_by_a_stale_host_is_a_typed_error() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_segment("seg", DATA, CHUNK).unwrap();
        a.checkpoint(&image(1)).unwrap();
        // Host 1 never acquired: it may not extend the epoch chain either.
        let mut b = cluster.host(1).attach_segment("seg").unwrap();
        assert!(matches!(
            b.checkpoint(&image(2)).unwrap_err(),
            ClusterError::NotAcquired { host: 1, .. }
        ));
        b.acquire().unwrap();
        assert_eq!(b.checkpoint(&image(2)).unwrap().epoch, 2);
    }

    #[test]
    fn repeated_checkpoints_stay_incremental() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_segment("inc", DATA, CHUNK).unwrap();
        let data = image(1);
        a.checkpoint(&data).unwrap();
        a.checkpoint(&data).unwrap();
        // The cached region preserves the incremental hash state across
        // calls: an unchanged epoch flushes zero chunks on the cluster path.
        let stats = a.checkpoint(&data).unwrap();
        assert_eq!(stats.chunks_written, 0);
        assert_eq!(stats.epoch, 3);
    }

    #[test]
    fn failover_reads_the_committed_slot_twice_and_the_older_slot_once() {
        // A serial cluster, and one whose spare validates and restores on
        // the runtime's resident workers: the same bytes either way.
        let serial = failover_read_overheads(|| two_card_cluster(CoherenceMode::SoftwareManaged));
        let pooled = failover_read_overheads(|| {
            crate::RuntimeBuilder::setup1()
                .build()
                .disaggregated_cluster(2, CoherenceMode::SoftwareManaged)
        });
        assert_eq!(serial, pooled);
        assert_eq!(serial, (4240, 56));
    }

    /// Per image size: the bytes a spare's committed_epoch + restore reads
    /// beyond 2 × len, and its first checkpoint's reads beyond len.
    fn failover_read_overheads(cluster: impl Fn() -> DisaggregatedCluster) -> (u64, u64) {
        let mut overheads = Vec::new();
        for chunks in [16usize, 128] {
            let len = chunks as u64 * CHUNK;
            let cluster = cluster();
            let older: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut committed = older.clone();
            for chunk in committed.chunks_mut(CHUNK as usize).step_by(4) {
                chunk[0] ^= 0xFF;
            }
            {
                let mut a = cluster.host(0).create_segment("reads", len, CHUNK).unwrap();
                a.checkpoint(&older).unwrap();
                a.checkpoint(&committed).unwrap();
            }

            let mut b = cluster.host(1).attach_segment("reads").unwrap();
            b.acquire().unwrap();
            let region = b.region();
            let bytes_read = || region.stats(1).unwrap().bytes_read;
            let before = bytes_read();
            assert_eq!(b.committed_epoch().unwrap(), 2);
            let mut out = vec![0u8; len as usize];
            assert_eq!(b.restore(&mut out).unwrap(), 2);
            assert_eq!(out, committed);
            let failover = bytes_read() - before;

            // Epoch 3 targets the older slot, which holds `older`: the first
            // checkpoint validates it, then writes only the chunks that differ.
            let mut next = older.clone();
            for chunk in next.chunks_mut(CHUNK as usize).step_by(3) {
                chunk[1] ^= 0xFF;
            }
            let before = bytes_read();
            let stats = b.checkpoint(&next).unwrap();
            let first_commit = bytes_read() - before;
            assert_eq!(stats.chunks_written, chunks.div_ceil(3));

            assert!(failover >= 2 * len && first_commit >= len);
            overheads.push((failover - 2 * len, first_commit - len));
        }
        // The overheads are the pool's and the region's headers and logs:
        // the same at both sizes, and less than the smaller image.
        assert_eq!(overheads[0], overheads[1]);
        assert!(overheads[0].0 < 16 * CHUNK, "{overheads:?}");
        overheads[0]
    }

    #[test]
    fn failed_create_releases_the_name_and_the_capacity() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let host = cluster.host(0);
        // chunk_len = 0 is rejected by the checkpoint layer *after* the
        // allocation was carved; the reservation must be rolled back.
        assert!(host.create_segment("seg", DATA, 0).is_err());
        assert_eq!(cluster.assigned_to(0), 0, "carved capacity leaked");
        assert!(cluster.segment_names().is_empty(), "name leaked");
        // The retry with valid parameters succeeds.
        host.create_segment("seg", DATA, CHUNK).unwrap();
    }

    #[test]
    fn segment_lifecycle_names_and_release() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let host = cluster.host(0);
        host.create_segment("a", DATA, CHUNK).unwrap();
        host.create_segment("b", DATA, CHUNK).unwrap();
        assert!(matches!(
            host.create_segment("a", DATA, CHUNK).unwrap_err(),
            ClusterError::SegmentExists(_)
        ));
        assert!(matches!(
            host.attach_segment("missing").unwrap_err(),
            ClusterError::UnknownSegment(_)
        ));
        assert_eq!(cluster.segment_names(), vec!["a", "b"]);
        let before = cluster.unassigned_capacity();
        cluster.release_segment("a").unwrap();
        assert!(cluster.unassigned_capacity() > before);
        assert_eq!(cluster.segment_names(), vec!["b"]);
        assert!(cluster.release_segment("a").is_err());
        // The freed name can be recreated.
        host.create_segment("a", DATA, CHUNK).unwrap();
    }

    #[test]
    fn object_store_cross_host_readers_and_writers() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_store("kv", 256, 128).unwrap();

        // Writer host A: commit a first wave of objects.
        for id in 0..16u64 {
            let value = vec![id as u8 ^ 0x5A; 64];
            assert_eq!(a.put_commit(id, &value).unwrap(), 1);
        }

        // Reader host B must acquire before it may read.
        let mut b = cluster.host(1).open_store("kv").unwrap();
        assert!(matches!(
            b.get(0),
            Err(ClusterError::NotAcquired { host: 1, .. })
        ));
        b.acquire().unwrap();
        assert_eq!(b.get(3).unwrap(), vec![3u8 ^ 0x5A; 64]);
        assert_eq!(b.committed_version(3).unwrap(), 1);
        assert_eq!(b.live().unwrap(), 16);

        // Host B takes the writer role (its view is current) and commits a
        // second version; A is now stale and must re-acquire.
        assert_eq!(b.put_commit(3, b"hello from host 1").unwrap(), 2);
        assert!(matches!(
            a.get(3),
            Err(ClusterError::NotAcquired { host: 0, .. })
        ));
        assert!(matches!(
            a.put(3, b"stale writer"),
            Err(ClusterError::NotAcquired { host: 0, .. })
        ));
        a.acquire().unwrap();
        assert_eq!(a.get(3).unwrap(), b"hello from host 1");
        assert_eq!(a.verify().unwrap().live, 16);
    }

    #[test]
    fn reacquire_refreshes_cached_store_state_across_hosts() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_store("sync", 64, 64).unwrap();
        a.put_commit(0, b"a-0").unwrap();

        // Host B commits a NEW object (live 1 → 2) and publishes; host A's
        // cached descriptor snapshot is now superseded. Re-acquiring must
        // refresh it so A's next commit extends the counters instead of
        // permanently desyncing the descriptor.
        let mut b = cluster.host(1).open_store("sync").unwrap();
        b.acquire().unwrap();
        b.put_commit(1, b"b-1").unwrap();
        a.acquire().unwrap();
        a.put_commit(2, b"a-2").unwrap();
        assert_eq!(a.live().unwrap(), 3);
        assert_eq!(a.verify().unwrap().live, 3);
        b.acquire().unwrap();
        assert_eq!(b.verify().unwrap().live, 3);

        // Delete ping-pong across hosts stays exact down to zero — no
        // live-counter underflow on the last delete.
        b.delete(0).unwrap();
        b.delete(1).unwrap();
        a.acquire().unwrap();
        a.delete(2).unwrap();
        assert_eq!(a.live().unwrap(), 0);
        a.verify().unwrap();
    }

    #[test]
    fn staged_put_does_not_survive_a_cross_host_handoff() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_store("handoff", 32, 64).unwrap();
        a.put_commit(5, b"epoch-1").unwrap();

        // Host A stages epoch 2; host B (current view) commits epoch 2
        // first, claiming the slot A's stage was written into.
        a.put(5, b"staged by a").unwrap();
        let mut b = cluster.host(1).open_store("handoff").unwrap();
        b.acquire().unwrap();
        assert_eq!(b.put_commit(5, b"committed by b").unwrap(), 2);

        // A re-acquires: the superseded stage is discarded with the stale
        // handle, the commit is a typed refusal (never a torn committed
        // object), and the committed bytes stay exact everywhere.
        a.acquire().unwrap();
        assert!(matches!(
            a.commit(5),
            Err(ClusterError::Pmem(PmemError::ObjectStore(
                "commit without a staged put"
            )))
        ));
        assert_eq!(a.get(5).unwrap(), b"committed by b");
        a.verify().unwrap();

        // Re-staging against the refreshed view works.
        a.put(5, b"epoch-3").unwrap();
        assert_eq!(a.commit(5).unwrap(), 3);
        b.acquire().unwrap();
        assert_eq!(b.get(5).unwrap(), b"epoch-3");
    }

    #[test]
    fn classed_get_enforces_coherence_before_opening_the_pool() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_store("gate", 16, 64).unwrap();
        a.put_commit(0, b"v1").unwrap();

        // A never-acquired host is refused before the pool opens: sizing the
        // admission request must not run undo-log recovery on shared state.
        let mut b = cluster.host(1).open_store("gate").unwrap();
        assert!(matches!(
            b.get_classed(0, 0.0),
            Err(ClusterError::NotAcquired { host: 1, .. })
        ));
        assert!(format!("{b:?}").contains("pool_open: false"));
        b.acquire().unwrap();
        assert_eq!(b.get_classed(0, 0.0).unwrap(), b"v1");
    }

    #[test]
    fn object_store_never_published_and_delete_discipline() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let creator = cluster.host(0).create_store("fresh", 32, 64).unwrap();
        drop(creator);
        // Nothing was ever committed (= published); a reader has no rights.
        let mut b = cluster.host(1).open_store("fresh").unwrap();
        assert!(matches!(b.get(0), Err(ClusterError::NeverPublished { .. })));
        // The creator (fresh view) may establish publication.
        let mut a = cluster.host(0).open_store("fresh").unwrap();
        a.put_commit(7, b"v1").unwrap();
        a.delete(7).unwrap();
        b.acquire().unwrap();
        assert!(matches!(
            b.get(7),
            Err(ClusterError::Pmem(PmemError::NoSuchObject(7)))
        ));
        assert_eq!(b.live().unwrap(), 0);
    }

    #[test]
    fn object_commit_crash_recovers_bit_exact_on_the_other_host() {
        let positions = Crash::sweep(|k, torn| {
            let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
            let mut a = cluster.host(0).create_store("torn", 64, 96).unwrap();
            let committed = vec![0xC3u8; 80];
            a.put_commit(9, &committed).unwrap();
            // Host A's attempt runs on a pool of its own, dying at call k.
            let crash = Crash::new();
            let pool = crashable_pool(&a, &crash);
            let mut store = ObjectStore::open_root(&pool).unwrap();
            store.put(9, &[0x11u8; 80]).unwrap();
            crash.arm(k, torn);
            let outcome = store.commit(9);
            drop(store);
            drop(pool);
            drop(a); // host A torn down

            let mut b = cluster.host(1).open_store("torn").unwrap();
            b.acquire().unwrap();
            let bytes = b.get(9).unwrap();
            let crashed = match outcome {
                // The commit ran to its end.
                Ok(epoch) => {
                    assert_eq!(epoch, 2);
                    false
                }
                Err(e) => {
                    assert!(e.is_injected_crash());
                    true
                }
            };
            // Either the old or the new version, never a torn mix — and the
            // full-directory audit must hold after recovery.
            assert!(
                bytes == committed || bytes == vec![0x11u8; 80],
                "{k}/{torn}"
            );
            b.verify().unwrap();
            crashed
        });
        println!("cross-host object commit sweep: {positions} crash positions");
        // A commit makes thirteen backend calls.
        assert_eq!(positions, 28);
    }

    #[test]
    fn object_commit_crash_recovers_on_the_other_hosts_refresh() {
        // As above, but host B opened and read the store before host A's
        // crash, so B's get after it refreshes the layout on the pool B
        // holds, and that refresh must recover like a first open.
        let positions = Crash::sweep(|k, torn| {
            let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
            let mut a = cluster.host(0).create_store("torn", 64, 96).unwrap();
            let committed = vec![0xC3u8; 80];
            a.put_commit(9, &committed).unwrap();
            let mut b = cluster.host(1).open_store("torn").unwrap();
            b.acquire().unwrap();
            assert_eq!(b.get(9).unwrap(), committed);
            // Another publication moves B's view.
            a.put_commit(3, &[0x33u8; 80]).unwrap();
            // Host A's attempt runs on a pool of its own, dying at call k.
            let crash = Crash::new();
            let pool = crashable_pool(&a, &crash);
            let mut store = ObjectStore::open_root(&pool).unwrap();
            store.put(9, &[0x11u8; 80]).unwrap();
            crash.arm(k, torn);
            let outcome = store.commit(9);
            drop(store);
            drop(a); // host A torn down
            crash.revive();

            b.acquire().unwrap();
            let bytes = b.get(9).unwrap();
            let log_active = pool.tx_log_active().unwrap();
            let crashed = match outcome {
                // The commit ran to its end.
                Ok(epoch) => {
                    assert_eq!(epoch, 2);
                    false
                }
                Err(e) => {
                    assert!(e.is_injected_crash());
                    true
                }
            };
            // What the refresh returned is what a fresh open reads, and
            // the full-directory audit holds on both handles.
            let mut fresh = cluster.host(1).open_store("torn").unwrap();
            assert_eq!(fresh.get(9).unwrap(), bytes, "{k}/{torn}");
            assert!(
                bytes == committed || bytes == vec![0x11u8; 80],
                "{k}/{torn}"
            );
            assert!(!log_active, "{k}/{torn}: the refresh left the log active");
            b.verify().unwrap();
            fresh.verify().unwrap();
            crashed
        });
        println!("cross-host object commit sweep, refreshed reader: {positions} crash positions");
        // A commit makes thirteen backend calls.
        assert_eq!(positions, 28);
    }

    #[test]
    fn classed_ops_route_through_the_front_door() {
        use crate::admission::{AdmissionError, ClassConfig};
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_store("qos", 64, 128).unwrap();
        // A tiny write budget with no queue: the second put must be refused
        // with the typed admission error, and the refusal precedes the op.
        let door = Arc::new(AdmissionController::new([
            ClassConfig {
                rate_bytes_per_sec: 64.0,
                burst_bytes: 128,
                queue_depth: 0,
            },
            ClassConfig {
                rate_bytes_per_sec: 1e9,
                burst_bytes: 1 << 20,
                queue_depth: 4,
            },
            ClassConfig::closed(),
        ]));
        a.set_front_door(Arc::clone(&door));
        a.put_classed(0, &[7u8; 128], 0.0).unwrap();
        // One virtual second refills 64 bytes — enough for the entry-sized
        // commit record, not for another full put.
        a.commit_classed(0, 1.0).unwrap();
        let err = a.put_classed(1, &[8u8; 128], 1.0).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::Admission(AdmissionError::QueueFull { .. })
        ));
        assert!(matches!(
            a.get_classed(50, 1.1),
            Err(ClusterError::Pmem(PmemError::NoSuchObject(50)))
        ));
        assert_eq!(a.get_classed(0, 1.2).unwrap(), vec![7u8; 128]);
    }

    #[test]
    fn prototype_cards_pool_like_the_paper() {
        let cluster = DisaggregatedCluster::new("rack", CoherenceMode::SoftwareManaged);
        cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
        cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
        assert_eq!(cluster.ports(), 2);
        assert_eq!(cluster.total_capacity(), 32 * 1024 * MIB);
        let mut seg = cluster
            .host(0)
            .create_segment("proto", DATA, CHUNK)
            .unwrap();
        seg.checkpoint(&image(9)).unwrap();
        let mut out = vec![0u8; DATA as usize];
        seg.acquire().unwrap();
        assert_eq!(seg.restore(&mut out).unwrap(), 1);
        assert_eq!(out, image(9));
    }

    /// The one coherence script both handle kinds run: commit `image(tag)`
    /// (which publishes) and read the committed image back.
    trait Scripted {
        fn write(&mut self, tag: u8) -> ClusterResult<()>;
        fn read(&mut self) -> ClusterResult<Vec<u8>>;
    }

    impl Scripted for HostSegment {
        fn write(&mut self, tag: u8) -> ClusterResult<()> {
            self.checkpoint(&image(tag)).map(drop)
        }
        fn read(&mut self) -> ClusterResult<Vec<u8>> {
            let mut out = vec![0u8; DATA as usize];
            self.restore(&mut out)?;
            Ok(out)
        }
    }

    impl Scripted for HostStore {
        fn write(&mut self, tag: u8) -> ClusterResult<()> {
            self.put_commit(0, &image(tag)).map(drop)
        }
        fn read(&mut self) -> ClusterResult<Vec<u8>> {
            self.get(0)
        }
    }

    /// Creator host 0 and reader host 1 walk the discipline: a read before
    /// the first publish, the creator's first write, a stale reader and
    /// writer, then an acquire on each side of a role swap.
    fn coherence_script<P: SegmentPayload>(
        mode: CoherenceMode,
        create: impl FnOnce(&ClusterHost) -> ClusterResult<HostHandle<P>>,
        attach: impl FnOnce(&ClusterHost) -> ClusterResult<HostHandle<P>>,
    ) where
        HostHandle<P>: Scripted,
    {
        let software = mode == CoherenceMode::SoftwareManaged;
        let cluster = two_card_cluster(mode);
        let mut creator = create(&cluster.host(0)).unwrap();
        let mut reader = attach(&cluster.host(1)).unwrap();
        let stale = |r: ClusterResult<()>, host: HostId| matches!(r, Err(ClusterError::NotAcquired { host: h, .. }) if h == host);

        // Never published: software coherence refuses the read before the
        // pool opens; hardware coherence lets the layout answer (nothing is
        // committed yet), which caches a layout the creator's write below
        // supersedes.
        match reader.read() {
            Err(ClusterError::NeverPublished { .. }) if software => {
                assert!(format!("{reader:?}").contains("pool_open: false"));
            }
            Err(ClusterError::Pmem(_)) if !software => {}
            other => panic!("{mode:?} {reader:?}: never-published read gave {other:?}"),
        }
        // The creator may write the never-published segment.
        creator.write(1).unwrap();
        if software {
            assert!(stale(reader.read().map(drop), 1), "{reader:?}");
            assert!(stale(reader.write(2), 1), "{reader:?}");
        }
        reader.acquire().unwrap();
        assert_eq!(reader.read().unwrap(), image(1), "{mode:?} {reader:?}");

        // Roles swap: the reader extends the chain, the creator goes stale.
        reader.write(2).unwrap();
        if software {
            assert!(stale(creator.read().map(drop), 0), "{creator:?}");
            assert!(stale(creator.write(3), 0), "{creator:?}");
        }
        creator.acquire().unwrap();
        assert_eq!(creator.read().unwrap(), image(2), "{mode:?} {creator:?}");
    }

    #[test]
    fn one_discipline_for_both_handle_kinds_and_both_modes() {
        for mode in [
            CoherenceMode::SoftwareManaged,
            CoherenceMode::HardwareBackInvalidate,
        ] {
            coherence_script(
                mode,
                |host| host.create_segment("seg", DATA, CHUNK),
                |host| host.attach_segment("seg"),
            );
            coherence_script(
                mode,
                |host| host.create_store("seg", 4, DATA),
                |host| host.open_store("seg"),
            );
        }
    }

    #[test]
    fn failed_mutations_publish_nothing_and_drop_the_cached_layout() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut store = cluster.host(0).create_store("kv", 16, 64).unwrap();
        store.put_commit(1, b"v1").unwrap();
        let version = store.region().version();
        assert!(matches!(
            store.delete(9),
            Err(ClusterError::Pmem(PmemError::NoSuchObject(9)))
        ));
        assert_eq!(store.region().version(), version, "nothing published");
        assert!(format!("{store:?}").contains("pool_open: false"));
        store.get(1).unwrap();
        assert!(matches!(
            store.put(2, &[0u8; 65]),
            Err(ClusterError::Pmem(PmemError::ObjectStore(
                "value exceeds the store's slot length"
            )))
        ));
        assert_eq!(store.region().version(), version, "nothing published");
        assert!(format!("{store:?}").contains("pool_open: false"));
        assert_eq!(store.put_commit(2, b"v2").unwrap(), 1);
        assert_eq!(store.verify().unwrap().live, 2);

        // The checkpoint kind follows the same path.
        let mut seg = cluster.host(0).create_segment("ckpt", DATA, CHUNK).unwrap();
        seg.checkpoint(&image(1)).unwrap();
        let version = seg.region().version();
        assert!(matches!(
            seg.checkpoint(&image(2)[1..]),
            Err(ClusterError::Pmem(PmemError::Checkpoint(_)))
        ));
        assert_eq!(seg.region().version(), version, "nothing published");
        assert!(format!("{seg:?}").contains("pool_open: false"));
        assert_eq!(seg.checkpoint(&image(2)).unwrap().epoch, 2);
    }

    #[test]
    fn failed_store_create_releases_the_name_and_the_capacity() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let host = cluster.host(0);
        // capacity = 0 is rejected by the object store after the carve.
        assert!(matches!(
            host.create_store("kv", 0, 64),
            Err(ClusterError::Pmem(PmemError::ObjectStore(_)))
        ));
        assert_eq!(cluster.assigned_to(0), 0, "carved capacity leaked");
        assert!(cluster.segment_names().is_empty(), "name leaked");
        host.create_store("kv", 16, 64).unwrap();
    }

    #[test]
    fn overflowing_segment_shape_is_a_typed_error_and_leaks_nothing() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let host = cluster.host(0);
        assert!(matches!(
            host.create_segment("x", u64::MAX - 10, 1 << 20),
            Err(ClusterError::Cxl(CxlError::InsufficientCapacity { .. }))
        ));
        assert_eq!(cluster.assigned_to(0), 0, "carved capacity leaked");
        assert!(cluster.segment_names().is_empty(), "name leaked");
        host.create_segment("x", DATA, CHUNK).unwrap();
    }

    #[test]
    fn overflowing_store_shape_is_a_typed_error_and_leaks_nothing() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let host = cluster.host(0);
        assert!(matches!(
            host.create_store("x", u64::MAX / 8, 64),
            Err(ClusterError::Cxl(CxlError::InsufficientCapacity { .. }))
        ));
        assert_eq!(cluster.assigned_to(0), 0, "carved capacity leaked");
        assert!(cluster.segment_names().is_empty(), "name leaked");
        host.create_store("x", 16, 64).unwrap();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_store_handle_is_as_large_as_with_a_host_id() {
        // The attachment is one pointer, the size of the host id it
        // replaced, and the store keeps no copy of its descriptor counters.
        assert_eq!(std::mem::size_of::<Attachment>(), 8);
        assert_eq!(std::mem::size_of::<HostStore>(), 120);
    }

    #[test]
    fn opening_a_segment_as_the_wrong_kind_is_a_typed_error() {
        let cluster = two_card_cluster(CoherenceMode::SoftwareManaged);
        let mut a = cluster.host(0).create_segment("ckpt", DATA, CHUNK).unwrap();
        a.checkpoint(&image(1)).unwrap();
        let mut b = cluster.host(1).open_store("ckpt").unwrap();
        b.acquire().unwrap();
        assert!(matches!(
            b.get(0),
            Err(ClusterError::Pmem(PmemError::ObjectStore(_)))
        ));
        assert!(format!("{b:?}").contains("pool_open: false"));
    }
}
