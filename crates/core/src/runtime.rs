//! The CXL-as-PMem runtime: machines, pools and performance accounting.

use crate::backend::CxlDeviceBackend;
use crate::modes::AccessMode;
use crate::placement::TierPolicy;
use cxl::{FpgaPrototype, LinkConfig};
use memsim::access::{ThreadTraffic, TrafficPhase};
use memsim::{Engine, Machine, PhaseReport, SimError};
use numa::{AffinityPolicy, NodeId, NumaError, PinnedPool, ThreadPlacement, Topology};
use pmem::{CheckpointRegion, ChunkExecutor, PmemError, PmemPool, VolatileBackend};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// The machine model rejected the request.
    Sim(SimError),
    /// The persistent object store rejected the request.
    Pmem(PmemError),
    /// Topology/affinity error.
    Numa(NumaError),
    /// The machine has no CXL expander but one was required.
    NoCxlDevice,
    /// The requested pool does not fit on the chosen tier.
    PoolTooLarge {
        /// Target node.
        node: NodeId,
        /// Requested bytes.
        requested: u64,
        /// Node capacity.
        capacity: u64,
    },
    /// The tier has no persistent backing that survives a pool drop, so there
    /// is nothing to restore from (DRAM tiers get a *fresh* battery-backed
    /// buffer per provision; only the CXL expander's device memory is shared
    /// across reattachments).
    VolatileTier {
        /// The node the tier resolved to.
        node: NodeId,
    },
    /// A tiering operation failed (capacity shortfall, malformed assignment,
    /// stale plan, ...).
    Tiering(&'static str),
    /// A plain-text topology description failed to parse or compile.
    Topology(memsim::TopologyError),
    /// The expander's one pool window is still in use: a backend handed out
    /// by an earlier provision or reattach is alive, and a second pool
    /// would format or reopen over its bytes. Drop every handle of the
    /// first pool before provisioning or reattaching another.
    ExpanderInUse,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Sim(e) => write!(f, "simulation error: {e}"),
            RuntimeError::Pmem(e) => write!(f, "persistent memory error: {e}"),
            RuntimeError::Numa(e) => write!(f, "topology error: {e}"),
            RuntimeError::NoCxlDevice => write!(f, "this machine has no CXL expander"),
            RuntimeError::PoolTooLarge {
                node,
                requested,
                capacity,
            } => write!(
                f,
                "pool of {requested} bytes does not fit on node {node} ({capacity} bytes)"
            ),
            RuntimeError::VolatileTier { node } => write!(
                f,
                "tier on node {node} has no persistent backing to restore from"
            ),
            RuntimeError::Tiering(msg) => write!(f, "tiering error: {msg}"),
            RuntimeError::Topology(e) => write!(f, "topology ingest error: {e}"),
            RuntimeError::ExpanderInUse => write!(
                f,
                "the expander's pool window is held by a live pool; drop it first"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<SimError> for RuntimeError {
    fn from(e: SimError) -> Self {
        RuntimeError::Sim(e)
    }
}
impl From<PmemError> for RuntimeError {
    fn from(e: PmemError) -> Self {
        RuntimeError::Pmem(e)
    }
}
impl From<NumaError> for RuntimeError {
    fn from(e: NumaError) -> Self {
        RuntimeError::Numa(e)
    }
}
impl From<memsim::TopologyError> for RuntimeError {
    fn from(e: memsim::TopologyError) -> Self {
        RuntimeError::Topology(e)
    }
}

/// Which of the paper's evaluation platforms a runtime models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupKind {
    /// Setup #1: Sapphire Rapids + DDR5 + CXL expander (Figure 2).
    SapphireRapidsCxl,
    /// Setup #2: Xeon Gold + DDR4, no CXL (Figure 3).
    XeonGoldDdr4,
    /// The DCPMM baseline machine used for the headline comparison.
    SapphireRapidsDcpmm,
    /// A caller-provided machine, or one compiled from a plain-text topology
    /// description (CEDT/SRAT-shaped ingest, see [`memsim::topology`]).
    Custom,
}

/// A pool managed by the runtime: the PMDK-style pool plus where it lives.
pub struct ManagedPool {
    pool: PmemPool,
    node: NodeId,
    mount: String,
}

impl fmt::Debug for ManagedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagedPool")
            .field("node", &self.node)
            .field("mount", &self.mount)
            .field("pool", &self.pool)
            .finish()
    }
}

impl ManagedPool {
    /// The persistent pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// The NUMA node the pool's bytes live on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The paper-style mount label (`/mnt/pmemN`).
    pub fn mount(&self) -> &str {
        &self.mount
    }
}

impl ManagedPool {
    /// Decomposes the managed pool into its parts — used by long-lived
    /// owners (the tiering subsystem) that need shared ownership of the
    /// [`PmemPool`] rather than a borrow.
    pub fn into_parts(self) -> (PmemPool, NodeId, String) {
        (self.pool, self.node, self.mount)
    }
}

impl std::ops::Deref for ManagedPool {
    type Target = PmemPool;
    fn deref(&self) -> &PmemPool {
        &self.pool
    }
}

/// Adapter fanning chunk jobs — a checkpoint's per-chunk hashing, then the
/// dirty chunks' writes + flushes; a slot validation's reads and hashes; a
/// restore's reads — across a resident [`PinnedPool`].
///
/// Workers claim job indices one at a time from a shared counter, so a
/// descheduled worker leaves its unclaimed jobs to the others instead of
/// holding up the whole commit, and a failed job stops further claims. A
/// write job flushes its chunk without a fence; the [`CheckpointRegion`]
/// then drains once for the whole invocation — so a checkpoint costs at most
/// `dirty_chunks` flushes + 1 drain, exactly the `PersistStats` discipline
/// of the STREAM-PMem hot path. Called on one of the pool's own workers,
/// where the pool's barrier would wait on the calling thread, it runs the
/// jobs there instead.
pub struct PooledChunkExecutor<'a>(pub &'a PinnedPool);

impl PooledChunkExecutor<'_> {
    /// Whether the jobs run on the calling thread: the pool has no workers,
    /// or the caller is one of them.
    fn inline(&self) -> bool {
        self.0.is_empty() || self.0.is_worker_thread()
    }
}

impl ChunkExecutor for PooledChunkExecutor<'_> {
    fn run_chunks(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> pmem::Result<()> + Sync),
    ) -> pmem::Result<()> {
        if jobs == 0 {
            return Ok(());
        }
        if self.inline() {
            return (0..jobs).try_for_each(job);
        }
        // The next unclaimed job. Relaxed: the read-modify-write alone
        // makes each claim unique, and the counter publishes no job data
        // (the pool's run joins every worker before returning).
        let next = AtomicUsize::new(0);
        self.0
            .run(|_| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs {
                    return Ok(());
                }
                if let Err(e) = job(j) {
                    next.store(jobs, Ordering::Relaxed);
                    return Err(e);
                }
            })
            .into_iter()
            .collect()
    }

    fn lanes(&self) -> usize {
        if self.inline() {
            1
        } else {
            self.0.len()
        }
    }
}

/// What topology a [`RuntimeBuilder`] realises at build time.
enum BuilderTopology {
    Setup1,
    Setup2,
    DcpmmBaseline,
    Machine(Box<Machine>),
}

/// The one front door for constructing a [`CxlPmemRuntime`]. The topology is
/// picked by the constructor:
///
/// * **paper setups** — [`setup1`](Self::setup1), [`setup2`](Self::setup2)
///   and [`dcpmm_baseline`](Self::dcpmm_baseline) compile the committed
///   reference descriptions of [`memsim::machines`]; Setup #1's CXL node is
///   backed by the paper's functional FPGA prototype;
/// * **any other machine** — [`machine`](Self::machine) takes a machine
///   model, and [`from_description`](Self::from_description) parses and
///   compiles a CEDT/SRAT-shaped plain-text description into one (validated
///   *in the constructor*, so [`build`](Self::build) stays infallible). The
///   first CPU-less memory node gets a functional card derived from its
///   device spec, so pools on that tier really store bytes.
///
/// ```
/// use cxl_pmem::RuntimeBuilder;
///
/// let runtime = RuntimeBuilder::setup1().build();
/// assert_eq!(runtime.topology().nodes().len(), 3);
/// ```
pub struct RuntimeBuilder {
    topology: BuilderTopology,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeBuilder {
    /// A builder for the paper's Setup #1 (same as [`setup1`](Self::setup1)).
    pub fn new() -> Self {
        Self::setup1()
    }

    /// Shorthand: a builder preconfigured for the paper's Setup #1 (dual
    /// Sapphire Rapids with a CXL-attached DDR4-1333 expander on node 2).
    pub fn setup1() -> Self {
        RuntimeBuilder {
            topology: BuilderTopology::Setup1,
        }
    }

    /// Shorthand: a builder preconfigured for the paper's Setup #2 (dual
    /// Xeon Gold 5215 with DDR4-2666 only).
    pub fn setup2() -> Self {
        RuntimeBuilder {
            topology: BuilderTopology::Setup2,
        }
    }

    /// Shorthand: a builder preconfigured for the DCPMM baseline machine
    /// (published Optane numbers on node 2).
    pub fn dcpmm_baseline() -> Self {
        RuntimeBuilder {
            topology: BuilderTopology::DcpmmBaseline,
        }
    }

    /// Topology knob: a machine model (ablations, upgraded prototypes,
    /// compiled descriptions, ...). If the machine has a CPU-less memory
    /// node, a functional Type-3 expander named and sized after the first
    /// one's device backs it (so pools on the CXL tier really store bytes).
    pub fn machine(mut self, machine: Machine) -> Self {
        self.topology = BuilderTopology::Machine(Box::new(machine));
        self
    }

    /// Topology knob: parses and compiles a plain-text topology description
    /// — the CEDT/SRAT-shaped ingest format of [`memsim::topology`] — into
    /// the [`machine`](Self::machine). A node a `[window.*]` interleaves is
    /// one card with the window's whole capacity; the window's ways exist
    /// only in the machine model, as the aggregate device whose bandwidth
    /// `memsim` computes. Malformed descriptions, bad interleave geometry
    /// included, surface as [`RuntimeError::Topology`] *here*, keeping
    /// [`build`](Self::build) infallible.
    pub fn from_description(text: &str) -> crate::Result<Self> {
        let description = memsim::TopologyDescription::parse(text)?;
        Ok(Self::new().machine(description.compile()?))
    }

    /// Realises the runtime. Infallible: every fallible input was validated
    /// by its constructor.
    pub fn build(self) -> CxlPmemRuntime {
        match self.topology {
            BuilderTopology::Setup1 => {
                // The card stores node 2's bytes; the Setup #1 text alone
                // says how fast it is.
                CxlPmemRuntime::from_parts(
                    SetupKind::SapphireRapidsCxl,
                    Engine::new(memsim::machines::sapphire_rapids_cxl_machine()),
                    Some(FpgaPrototype::paper_prototype()),
                )
            }
            BuilderTopology::Setup2 => CxlPmemRuntime::from_parts(
                SetupKind::XeonGoldDdr4,
                Engine::new(memsim::machines::xeon_gold_ddr4_machine()),
                None,
            ),
            BuilderTopology::DcpmmBaseline => CxlPmemRuntime::from_parts(
                SetupKind::SapphireRapidsDcpmm,
                Engine::new(memsim::machines::sapphire_rapids_dcpmm_machine()),
                None,
            ),
            BuilderTopology::Machine(machine) => {
                // A machine backs every node with a device.
                let fpga = machine
                    .topology()
                    .memory_only_nodes()
                    .next()
                    .and_then(|node| machine.device(node.id).ok())
                    .map(|device| {
                        FpgaPrototype::custom(
                            device.name.clone(),
                            LinkConfig::gen5_x16(),
                            device.capacity_bytes,
                        )
                    });
                CxlPmemRuntime::from_parts(SetupKind::Custom, Engine::new(*machine), fpga)
            }
        }
    }
}

/// The top-level runtime object.
pub struct CxlPmemRuntime {
    kind: SetupKind,
    engine: Engine,
    fpga: Option<FpgaPrototype>,
    /// The last backend handed out over the expander's pool window: while it
    /// lives, the window holds a pool.
    expander: Mutex<Weak<CxlDeviceBackend>>,
    /// Resident worker pools keyed by placement (CPU list). Every STREAM
    /// invocation with the same placement reuses the same parked OS threads —
    /// the runtime, not each stream, owns the worker lifecycle.
    worker_pools: Mutex<HashMap<Vec<usize>, Arc<PinnedPool>>>,
}

impl CxlPmemRuntime {
    fn from_parts(kind: SetupKind, engine: Engine, fpga: Option<FpgaPrototype>) -> Self {
        CxlPmemRuntime {
            kind,
            engine,
            fpga,
            expander: Mutex::new(Weak::new()),
            worker_pools: Mutex::new(HashMap::new()),
        }
    }

    /// Which setup this runtime models.
    pub fn setup(&self) -> SetupKind {
        self.kind
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        self.engine.machine()
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        self.machine().topology()
    }

    /// The analytical engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The CXL prototype, if the machine has one.
    pub fn fpga(&self) -> Option<&FpgaPrototype> {
        self.fpga.as_ref()
    }

    // -------------------------------------------------------------- placement

    /// Places `threads` software threads according to `policy`.
    pub fn place(&self, policy: &AffinityPolicy, threads: usize) -> crate::Result<ThreadPlacement> {
        policy.place(self.topology(), threads).map_err(Into::into)
    }

    /// The resident [`PinnedPool`] for `placement`, created (and its workers
    /// spawned and logically pinned) on first use and cached for the runtime's
    /// lifetime. Every functional STREAM run with the same placement reuses
    /// the same parked worker threads instead of rebuilding a pool — the
    /// per-invocation cost is one epoch-barrier round-trip.
    pub fn worker_pool(&self, placement: &ThreadPlacement) -> Arc<PinnedPool> {
        let mut pools = self
            .worker_pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            pools
                .entry(placement.cpus().to_vec())
                .or_insert_with(|| Arc::new(PinnedPool::new(self.topology(), placement))),
        )
    }

    /// Convenience wrapper: place `threads` with `policy` and return the
    /// resident worker pool for that placement.
    pub fn worker_pool_for(
        &self,
        policy: &AffinityPolicy,
        threads: usize,
    ) -> crate::Result<Arc<PinnedPool>> {
        let placement = self.place(policy, threads)?;
        Ok(self.worker_pool(&placement))
    }

    /// Number of resident worker pools currently provisioned (one per
    /// distinct placement that has run).
    pub fn worker_pool_count(&self) -> usize {
        self.worker_pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drops every cached worker pool, joining the workers of any pool no
    /// longer shared with a caller (`Arc`s handed out earlier keep theirs
    /// alive until released). The cache is otherwise unbounded — a harness
    /// that walks many distinct placements for *functional* runs should call
    /// this between phases so parked threads don't accumulate.
    pub fn release_worker_pools(&self) {
        self.worker_pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    // -------------------------------------------------------------- pools

    /// Provisions a PMDK-style pool of `size` bytes on the tier selected by
    /// `tier`. Pools on the CXL expander are backed by the modelled Type-3
    /// device; pools on DRAM tiers use a battery-backed volatile store (the
    /// paper's "emulated PMem on the alternate socket").
    pub fn provision_pool(
        &self,
        tier: &TierPolicy,
        layout: &str,
        size: u64,
    ) -> crate::Result<ManagedPool> {
        let node = tier.resolve(self.machine())?;
        let capacity = self.topology().node(node)?.mem_bytes;
        if size > capacity {
            return Err(RuntimeError::PoolTooLarge {
                node,
                requested: size,
                capacity,
            });
        }
        let pool = if self.is_expander_node(node) {
            PmemPool::create_with_backend(self.expander_backend(Some(size))?, layout)?
        } else {
            PmemPool::create_with_backend(Arc::new(VolatileBackend::new_persistent(size)), layout)?
        };
        Ok(Self::managed(pool, node))
    }

    /// Whether `node` is a CPU-less (memory-only) node, i.e. the expander.
    fn is_expander_node(&self, node: NodeId) -> bool {
        self.topology()
            .node(node)
            .map(|n| n.is_cpuless())
            .unwrap_or(false)
    }

    /// A backend over the expander's device memory — the one window (DPA 0)
    /// both pool provisioning and crash-restart reattachment must agree on.
    /// `len` defaults to the whole device. The window holds one pool: while
    /// a backend handed out earlier lives, this one would format or reopen
    /// over its bytes, so it is refused with [`RuntimeError::ExpanderInUse`].
    fn expander_backend(&self, len: Option<u64>) -> crate::Result<Arc<CxlDeviceBackend>> {
        let fpga = self.fpga.as_ref().ok_or(RuntimeError::NoCxlDevice)?;
        let mut handed_out = self.expander.lock().unwrap_or_else(PoisonError::into_inner);
        if handed_out.strong_count() > 0 {
            return Err(RuntimeError::ExpanderInUse);
        }
        let device = fpga.endpoint();
        let len = len.unwrap_or_else(|| device.capacity_bytes());
        let backend = Arc::new(CxlDeviceBackend::new(device, 0, len)?);
        *handed_out = Arc::downgrade(&backend);
        Ok(backend)
    }

    /// Wraps a pool with its node and paper-style mount label.
    fn managed(pool: PmemPool, node: NodeId) -> ManagedPool {
        ManagedPool {
            pool,
            node,
            mount: format!("/mnt/pmem{node}"),
        }
    }

    // -------------------------------------------------------------- checkpoint

    /// Provisions a pool on `tier` sized for one [`CheckpointRegion`] of
    /// `data_len`-byte snapshots persisted at `chunk_len` granularity, formats
    /// the region and registers it as the pool root. Reopen the region with
    /// [`CheckpointRegion::open_root`]; after a crash, reattach with
    /// [`restore_region`](Self::restore_region).
    pub fn checkpoint_region(
        &self,
        tier: &TierPolicy,
        layout: &str,
        data_len: u64,
        chunk_len: u64,
    ) -> crate::Result<ManagedPool> {
        let size = CheckpointRegion::required_pool_size(data_len, chunk_len);
        let managed = self.provision_pool(tier, layout, size)?;
        let region = CheckpointRegion::format(managed.pool(), data_len, chunk_len)?;
        managed.pool().set_root(region.oid(), data_len)?;
        Ok(managed)
    }

    /// Reattaches to a checkpoint pool created earlier by
    /// [`checkpoint_region`](Self::checkpoint_region) on a tier whose bytes
    /// survive the pool handle (the CXL expander's device memory). Opening
    /// runs undo-log recovery, so a commit record torn by the crash is rolled
    /// back before [`CheckpointRegion::open_root`] picks the committed slot.
    ///
    /// DRAM tiers are backed by a fresh buffer per provision and return
    /// [`RuntimeError::VolatileTier`].
    pub fn restore_region(&self, tier: &TierPolicy, layout: &str) -> crate::Result<ManagedPool> {
        let node = tier.resolve(self.machine())?;
        if !self.is_expander_node(node) {
            return Err(RuntimeError::VolatileTier { node });
        }
        let pool = PmemPool::open_with_backend(self.expander_backend(None)?, layout)?;
        Ok(Self::managed(pool, node))
    }

    // -------------------------------------------------------------- cluster

    /// Builds a rack-level [`DisaggregatedCluster`](crate::DisaggregatedCluster)
    /// of `cards` paper-prototype expanders pooled behind one CXL 2.0 switch,
    /// with `mode` governing cross-host coherence of its shared segments.
    ///
    /// The cluster is the federation layer above this runtime: compute nodes
    /// checkpoint into switch-pooled far memory and a *different* node
    /// restores after failure. Chunk persists can be fanned across this
    /// runtime's resident workers by passing
    /// [`PooledChunkExecutor`] to
    /// [`HostSegment::checkpoint_with`](crate::HostSegment::checkpoint_with).
    ///
    /// The cluster holds this runtime's resident
    /// [`worker_pool`](Self::worker_pool) for [`AffinityPolicy::close`] over
    /// as many threads as the host has CPUs (at most the topology's), the
    /// pool a caller asking for that placement shares. A checkpoint segment
    /// opens — validating its committed slot — and restores on those
    /// workers, one chunk per job. The cluster keeps the pool alive past
    /// [`release_worker_pools`](Self::release_worker_pools); when the
    /// placement fails it runs serially, like
    /// [`DisaggregatedCluster::new`](crate::DisaggregatedCluster::new).
    pub fn disaggregated_cluster(
        &self,
        cards: usize,
        mode: cxl::CoherenceMode,
    ) -> crate::DisaggregatedCluster {
        let workers = self
            .worker_pool_for(&AffinityPolicy::close(), self.cluster_threads())
            .ok();
        let cluster = crate::DisaggregatedCluster::with_workers(
            format!("{:?}-rack", self.kind),
            mode,
            workers,
        );
        for _ in 0..cards {
            cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
        }
        cluster
    }

    /// Workers of the pool a runtime-built cluster holds: one per host CPU,
    /// at most the topology's.
    fn cluster_threads(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.topology().num_hw_threads())
    }

    // -------------------------------------------------------------- tiering

    /// Provisions an adaptive [`TieredRegion`](crate::tiering::TieredRegion):
    /// one pool per `(tier, capacity_budget_bytes)` entry (fastest tier
    /// first), `data_len` bytes of chunked payload at `chunk_len` granularity,
    /// an access tracker feeding the rebalance loop, and a durable chunk
    /// residency map (in the *last* tier's pool — the spill tier, the CXL
    /// expander in the canonical setup). Initial placement is static spill:
    /// chunks fill the tiers in order, exactly like
    /// [`StaticSpillPolicy`](crate::tiering::StaticSpillPolicy).
    pub fn tiered_region(
        &self,
        tiers: &[(TierPolicy, u64)],
        layout: &str,
        data_len: u64,
        chunk_len: u64,
    ) -> crate::Result<crate::tiering::TieredRegion> {
        crate::tiering::TieredRegion::provision(self, tiers, layout, data_len, chunk_len)
    }

    /// One turn of the tiering feedback loop: snapshot `region`'s access
    /// heat, ask `planner` for a new chunk placement (the planner sees this
    /// runtime's engine for bandwidth-aware decisions), migrate the chunks
    /// that moved — fanned across the resident `workers` with one flush batch
    /// per worker and one drain per destination tier — and decay the tracker
    /// so stale heat fades over subsequent epochs.
    pub fn rebalance(
        &self,
        region: &mut crate::tiering::TieredRegion,
        planner: &dyn crate::tiering::TierPlanner,
        workers: &PinnedPool,
    ) -> crate::Result<crate::tiering::MigrationStats> {
        let cpus: Vec<usize> = workers.workers().iter().map(|w| w.cpu).collect();
        region.rebalance_with(planner, self.engine(), &cpus, &PooledChunkExecutor(workers))
    }

    // -------------------------------------------------------------- accounting

    /// Simulates one kernel invocation: every placed thread streams
    /// `read_bytes` + `write_bytes` against `data_node` in `mode`.
    pub fn simulate_stream_phase(
        &self,
        label: &str,
        placement: &ThreadPlacement,
        data_node: NodeId,
        read_bytes_per_thread: u64,
        write_bytes_per_thread: u64,
        mode: AccessMode,
    ) -> crate::Result<PhaseReport> {
        let overhead = mode.software_overhead();
        let phase = TrafficPhase::from_threads(
            label,
            placement.cpus().iter().map(|&cpu| {
                ThreadTraffic::sequential(
                    cpu,
                    data_node,
                    read_bytes_per_thread,
                    write_bytes_per_thread,
                )
                .with_overhead(overhead)
            }),
        );
        self.engine.simulate(&phase).map_err(Into::into)
    }

    /// The saturated (many-thread) bandwidth a socket can extract from a node
    /// in a given mode — used by the headline/table comparisons.
    pub fn peak_bandwidth_gbs(
        &self,
        socket: usize,
        node: NodeId,
        mode: AccessMode,
    ) -> crate::Result<f64> {
        // STREAM-like 2:1 read:write byte mix.
        let ceiling = self.machine().path_ceiling_gbs(socket, node, 2, 1)?;
        Ok(ceiling / mode.software_overhead())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::units::{GB, GIB};
    use pmem::PersistentArray;

    #[test]
    fn setup1_exposes_the_expander_as_node2() {
        let rt = RuntimeBuilder::setup1().build();
        assert_eq!(rt.setup(), SetupKind::SapphireRapidsCxl);
        assert!(rt.fpga().is_some());
        assert_eq!(rt.topology().nodes().len(), 3);
        assert!(rt.topology().node(2).unwrap().is_cpuless());
    }

    #[test]
    fn setup2_and_dcpmm_variants_exist() {
        assert_eq!(
            RuntimeBuilder::setup2().build().setup(),
            SetupKind::XeonGoldDdr4
        );
        let dcpmm = RuntimeBuilder::dcpmm_baseline().build();
        assert_eq!(dcpmm.setup(), SetupKind::SapphireRapidsDcpmm);
        assert!(dcpmm.fpga().is_none());
    }

    #[test]
    fn ingested_runtime_provisions_pools_from_the_description() {
        use memsim::topology::reference;
        // The 2-way window's node is one derived card with the window's
        // whole capacity: two 16 GiB ways.
        for (text, card_bytes) in [
            (reference::SPR_FPGA_CXL, 16 * GIB),
            (reference::SPR_DUAL_CXL_INTERLEAVE, 32 * GIB),
        ] {
            let rt = RuntimeBuilder::from_description(text)
                .expect("reference description ingests")
                .build();
            assert_eq!(rt.setup(), SetupKind::Custom);
            let pool = rt
                .provision_pool(&TierPolicy::CxlExpander, "stream", 8 * 1024 * 1024)
                .unwrap();
            assert_eq!(pool.mount(), "/mnt/pmem2");
            let array = PersistentArray::<f64>::allocate(pool.pool(), 1000).unwrap();
            array.fill(1.5).unwrap();
            array.persist_all().unwrap();
            let fpga = rt.fpga().expect("the CPU-less node gets a card");
            assert!(fpga.endpoint().stats().bytes_written >= 8000);
            // The functional card is the ingested device: same name, same size.
            let device = rt.machine().device(2).unwrap();
            assert_eq!(fpga.capacity_bytes(), device.capacity_bytes);
            assert_eq!(fpga.capacity_bytes(), card_bytes);
            assert_eq!(fpga.name(), device.name);
        }
    }

    #[test]
    fn presets_simulate_their_reference_texts() {
        use memsim::topology::reference;
        for (builder, text) in [
            (RuntimeBuilder::setup1(), reference::SPR_FPGA_CXL),
            (RuntimeBuilder::setup2(), reference::XEON_GOLD_DDR4),
            (RuntimeBuilder::dcpmm_baseline(), reference::SPR_DCPMM),
        ] {
            let compiled = memsim::TopologyDescription::parse(text)
                .unwrap()
                .compile()
                .unwrap();
            // Every device, every socket->node path, the topology and the
            // core MLP.
            assert_eq!(
                builder.build().machine(),
                &compiled,
                "{}",
                compiled.topology().name
            );
        }
    }

    #[test]
    fn malformed_description_is_a_typed_runtime_error() {
        let err = match RuntimeBuilder::from_description("[machine]\nname = \"empty\"\n") {
            Err(e) => e,
            Ok(_) => panic!("empty machine must not ingest"),
        };
        assert!(matches!(err, RuntimeError::Topology(_)), "{err}");
        assert!(err.to_string().contains("topology ingest error"));
    }

    #[test]
    fn pool_on_the_expander_uses_the_cxl_device() {
        let rt = RuntimeBuilder::setup1().build();
        let pool = rt
            .provision_pool(&TierPolicy::CxlExpander, "stream", 8 * 1024 * 1024)
            .unwrap();
        assert_eq!(pool.node(), 2);
        assert_eq!(pool.mount(), "/mnt/pmem2");
        assert!(pool.describe().contains("cxl["));
        // Data written to the pool shows up in the device statistics.
        let array = PersistentArray::<f64>::allocate(pool.pool(), 1000).unwrap();
        array.fill(3.25).unwrap();
        array.persist_all().unwrap();
        assert!(rt.fpga().unwrap().endpoint().stats().bytes_written >= 8000);
    }

    #[test]
    fn a_second_expander_pool_waits_for_the_first_to_drop() {
        let rt = RuntimeBuilder::setup1().build();
        let card = rt.fpga().unwrap().endpoint();
        let a = rt
            .provision_pool(&TierPolicy::CxlExpander, "a", 8 * 1024 * 1024)
            .unwrap();
        let array = PersistentArray::<f64>::allocate(a.pool(), 1000).unwrap();
        array.fill(7.0).unwrap();
        array.persist_all().unwrap();

        // While `a` lives, every way onto the expander's one window is
        // refused before a byte moves.
        let before = card.stats();
        for refused in [
            rt.provision_pool(&TierPolicy::CxlExpander, "b", 8 * 1024 * 1024),
            rt.provision_pool(&TierPolicy::Node(2), "b", 8 * 1024 * 1024),
            rt.checkpoint_region(&TierPolicy::CxlExpander, "b", 64 * 1024, 4096),
            rt.restore_region(&TierPolicy::CxlExpander, "a"),
        ] {
            assert!(matches!(refused, Err(RuntimeError::ExpanderInUse)));
        }
        assert_eq!(card.stats(), before, "a refused pool touched the card");
        assert_eq!(array.to_vec().unwrap(), vec![7.0; 1000]);
        assert_eq!(a.alloc_stats().unwrap().allocated_blocks, 1);

        // Once every handle is gone, `a` reattaches with its bytes, and
        // after that a new pool is provisioned over it.
        drop(a);
        let reattached = rt.restore_region(&TierPolicy::CxlExpander, "a").unwrap();
        assert_eq!(reattached.alloc_stats().unwrap().allocated_blocks, 1);
        drop(reattached);
        let b = rt
            .provision_pool(&TierPolicy::CxlExpander, "b", 8 * 1024 * 1024)
            .unwrap();
        assert_eq!(b.mount(), "/mnt/pmem2");
    }

    #[test]
    fn pool_on_dram_tiers_reports_the_right_mount() {
        let rt = RuntimeBuilder::setup1().build();
        let local = rt
            .provision_pool(
                &TierPolicy::LocalDram { socket: 0 },
                "stream",
                4 * 1024 * 1024,
            )
            .unwrap();
        assert_eq!(local.mount(), "/mnt/pmem0");
        let remote = rt
            .provision_pool(
                &TierPolicy::RemoteDram { socket: 0 },
                "stream",
                4 * 1024 * 1024,
            )
            .unwrap();
        assert_eq!(remote.mount(), "/mnt/pmem1");
    }

    #[test]
    fn oversized_pools_and_missing_expander_are_rejected() {
        let rt = RuntimeBuilder::setup1().build();
        assert!(matches!(
            rt.provision_pool(&TierPolicy::CxlExpander, "x", 100 * GIB)
                .unwrap_err(),
            RuntimeError::PoolTooLarge { .. }
        ));
        let rt2 = RuntimeBuilder::setup2().build();
        assert!(rt2
            .provision_pool(&TierPolicy::CxlExpander, "x", 1024 * 1024)
            .is_err());
    }

    #[test]
    fn stream_phase_bandwidth_ordering_matches_paper() {
        let rt = RuntimeBuilder::setup1().build();
        let placement = rt.place(&AffinityPolicy::SingleSocket(0), 10).unwrap();
        let local = rt
            .simulate_stream_phase("local", &placement, 0, GB, GB / 2, AccessMode::AppDirect)
            .unwrap();
        let remote = rt
            .simulate_stream_phase("remote", &placement, 1, GB, GB / 2, AccessMode::AppDirect)
            .unwrap();
        let cxl = rt
            .simulate_stream_phase("cxl", &placement, 2, GB, GB / 2, AccessMode::AppDirect)
            .unwrap();
        assert!(local.bandwidth_gbs > remote.bandwidth_gbs);
        assert!(remote.bandwidth_gbs > cxl.bandwidth_gbs);
        // Paper: local App-Direct ≈ 20-22+ GB/s, CXL ≈ half of remote.
        assert!(local.bandwidth_gbs > 18.0);
        let ratio = cxl.bandwidth_gbs / remote.bandwidth_gbs;
        assert!(ratio > 0.4 && ratio < 0.8, "cxl/remote {ratio}");
    }

    #[test]
    fn memory_mode_is_faster_than_app_direct_on_the_same_tier() {
        let rt = RuntimeBuilder::setup1().build();
        let placement = rt.place(&AffinityPolicy::SingleSocket(0), 10).unwrap();
        let appdirect = rt
            .simulate_stream_phase("ad", &placement, 2, GB, GB / 2, AccessMode::AppDirect)
            .unwrap();
        let memmode = rt
            .simulate_stream_phase("mm", &placement, 2, GB, GB / 2, AccessMode::MemoryMode)
            .unwrap();
        assert!(memmode.bandwidth_gbs > appdirect.bandwidth_gbs);
        // The PMDK overhead the paper quantifies is 10-15%.
        let overhead = memmode.bandwidth_gbs / appdirect.bandwidth_gbs;
        assert!(overhead > 1.08 && overhead < 1.20, "overhead {overhead}");
    }

    #[test]
    fn expansion_phase_spreads_traffic() {
        let rt = RuntimeBuilder::setup1().build();
        let placement = rt.place(&AffinityPolicy::SingleSocket(0), 8).unwrap();
        // 80 GiB spilled over the 64 GiB DIMM and the 16 GiB expander.
        let parts = [(0, 64 * GIB), (2, 16 * GIB)];
        let report =
            crate::tiering::assignment_bandwidth(rt.engine(), placement.cpus(), &parts).unwrap();
        assert!(report.bandwidth_gbs > 0.0);
        // Two devices show up in the resource breakdown.
        assert!(report.resources.len() >= 2);
    }

    #[test]
    fn peak_bandwidth_headline_comparison() {
        let rt = RuntimeBuilder::setup1().build();
        let cxl_peak = rt.peak_bandwidth_gbs(0, 2, AccessMode::AppDirect).unwrap();
        let dcpmm_rt = RuntimeBuilder::dcpmm_baseline().build();
        let dcpmm_peak = dcpmm_rt
            .peak_bandwidth_gbs(0, 2, AccessMode::AppDirect)
            .unwrap();
        // Headline claim: the CXL-DDR4 module outperforms published DCPMM numbers.
        assert!(cxl_peak > dcpmm_peak);
    }

    #[test]
    fn worker_pools_are_provisioned_once_per_placement() {
        let rt = RuntimeBuilder::setup1().build();
        let p8 = rt.place(&AffinityPolicy::SingleSocket(0), 8).unwrap();
        let p4 = rt.place(&AffinityPolicy::SingleSocket(0), 4).unwrap();
        let first = rt.worker_pool(&p8);
        let second = rt.worker_pool(&p8);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same placement must reuse the resident pool"
        );
        let other = rt.worker_pool(&p4);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(rt.worker_pool_count(), 2);
        // The resident workers really execute and carry the placement's CPUs.
        let cpus = first.run(|ctx| ctx.cpu);
        assert_eq!(cpus, p8.cpus());
        // Releasing empties the cache; pools still held by callers keep
        // working, and the next request provisions a fresh pool.
        rt.release_worker_pools();
        assert_eq!(rt.worker_pool_count(), 0);
        assert_eq!(first.run(|ctx| ctx.cpu), p8.cpus());
        let fresh = rt.worker_pool(&p8);
        assert!(!Arc::ptr_eq(&first, &fresh));
    }

    #[test]
    fn worker_pool_for_places_and_provisions() {
        let rt = RuntimeBuilder::setup1().build();
        let pool = rt.worker_pool_for(&AffinityPolicy::close(), 6).unwrap();
        assert_eq!(pool.len(), 6);
        let again = rt.worker_pool_for(&AffinityPolicy::close(), 6).unwrap();
        assert!(Arc::ptr_eq(&pool, &again));
        assert!(rt.worker_pool_for(&AffinityPolicy::close(), 1000).is_err());
    }

    #[test]
    fn checkpoint_region_parallel_persist_and_runtime_restore() {
        use pmem::{CheckpointRegion, Crash};

        let rt = RuntimeBuilder::setup1().build();
        let data_len = 64 * 1024u64;
        let chunk_len = 4096u64;
        let managed = rt
            .checkpoint_region(&TierPolicy::CxlExpander, "ckpt-rt", data_len, chunk_len)
            .unwrap();
        assert_eq!(managed.node(), 2, "checkpoint pool lives on the expander");
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let exec = PooledChunkExecutor(&workers);

        // The host works through a second pool handle whose backend a crash
        // wraps.
        let crash = Crash::new();
        let host =
            PmemPool::open_with_backend(crash.wrap(managed.pool().backend()), "ckpt-rt").unwrap();
        let mut region = CheckpointRegion::open_root(&host).unwrap();
        let image: Vec<u8> = (0..data_len).map(|i| (i % 251) as u8).collect();
        let stats = region.checkpoint_with(&image, &exec).unwrap();
        assert_eq!(stats.chunks_written, 16, "cold slot: every chunk flushes");
        region.checkpoint_with(&image, &exec).unwrap();
        let stats = region.checkpoint_with(&image, &exec).unwrap();
        assert_eq!(stats.chunks_written, 0, "warm slot: incremental no-op");

        // Crash the commit record, drop every handle, and reattach through
        // the runtime: the torn commit rolls back to epoch 3. The host dies
        // on the clear of the undo log, after the one changed chunk's write
        // and flush, the slot header's write and persist, and eight calls of
        // the record.
        crash.arm(12, false);
        let mut changed = image.clone();
        changed[0] ^= 1;
        assert!(region
            .checkpoint_with(&changed, &exec)
            .unwrap_err()
            .is_injected_crash());
        drop(region);
        drop(host);
        drop(managed);

        let reattached = rt
            .restore_region(&TierPolicy::CxlExpander, "ckpt-rt")
            .unwrap();
        assert_eq!(reattached.mount(), "/mnt/pmem2");
        let region = CheckpointRegion::open_root(reattached.pool()).unwrap();
        assert_eq!(region.committed_epoch(), 3);
        let mut out = vec![0u8; data_len as usize];
        region.restore(&mut out).unwrap();
        assert_eq!(out, image);
    }

    #[test]
    fn cluster_checkpoints_fan_out_over_the_runtime_worker_pool() {
        use cxl::CoherenceMode;
        use pmem::{CheckpointRegion, Crash, SharedRegionBackend};

        let rt = RuntimeBuilder::setup1().build();
        let cluster = rt.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
        assert_eq!(cluster.ports(), 2);
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let exec = PooledChunkExecutor(&workers);

        let data_len = 64 * 1024u64;
        let image: Vec<u8> = (0..data_len).map(|i| (i % 249) as u8).collect();
        let mut a = cluster
            .host(0)
            .create_segment("fanout", data_len, 4096)
            .unwrap();
        let stats = a.checkpoint_with(&image, &exec).unwrap();
        assert_eq!(stats.chunks_written, 16, "cold slot flushes every chunk");
        a.checkpoint_with(&image, &exec).unwrap();

        // Die mid-commit on the resident-pool path too, then fail over. Host
        // 0's attempt runs on a pool of its own over a crash-wrapped backend:
        // it validates the target slot (its header and 16 chunks), writes
        // and flushes the one changed chunk, writes and persists the slot
        // header, and dies on the commit record's clear of the undo log.
        let crash = Crash::new();
        let backend = Arc::new(SharedRegionBackend::new(a.region(), 0));
        let pool = PmemPool::open_with_backend(crash.wrap(backend), "fanout").unwrap();
        let mut region = CheckpointRegion::open_root(&pool).unwrap();
        let mut next = image.clone();
        next[0] ^= 0xFF;
        crash.arm(17 + 2 + 2 + 8, false);
        assert!(region
            .checkpoint_with(&next, &exec)
            .unwrap_err()
            .is_injected_crash());
        drop(region);
        drop(pool);
        drop(a);
        let mut b = cluster.host(1).attach_segment("fanout").unwrap();
        b.acquire().unwrap();
        let mut out = vec![0u8; data_len as usize];
        assert_eq!(b.restore(&mut out).unwrap(), 2);
        assert_eq!(out, image);
    }

    fn ckpt_image(len: u64, tag: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(tag))
            .collect()
    }

    #[test]
    fn a_restore_issued_on_a_cluster_worker_runs_inline() {
        use crate::HostSegment;
        use cxl::CoherenceMode;
        use std::sync::mpsc;
        use std::time::Duration;

        let rt = RuntimeBuilder::setup1().build();
        let cluster = rt.disaggregated_cluster(1, CoherenceMode::SoftwareManaged);
        // The caller's pool for the cluster's placement is the cluster's own.
        let workers = rt
            .worker_pool_for(&AffinityPolicy::close(), rt.cluster_threads())
            .unwrap();
        assert_eq!(rt.worker_pool_count(), 1);
        // The cluster keeps its pool: the runtime's cache may let it go.
        rt.release_worker_pools();

        let len = 64 * 1024u64;
        let image = ckpt_image(len, 3);
        let mut writer = cluster.host(0).create_segment("inline", len, 4096).unwrap();
        writer.checkpoint(&image).unwrap();
        // One spare handle per worker: each opens and restores from inside
        // the pool's own run, where a fan-out onto the pool would wait on
        // its own thread.
        let spares: Vec<Mutex<HostSegment>> = (0..workers.len())
            .map(|_| {
                let mut spare = cluster.host(1).attach_segment("inline").unwrap();
                spare.acquire().unwrap();
                Mutex::new(spare)
            })
            .collect();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let restored = workers.run(|ctx| {
                let mut out = vec![0u8; len as usize];
                let mut spare = spares[ctx.thread]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                (spare.restore(&mut out).map_err(|e| e.to_string()), out)
            });
            let _ = done.send(restored);
        });
        let restored = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a restore issued on a cluster worker never returned");
        assert!(!restored.is_empty());
        for (epoch, out) in restored {
            assert_eq!(epoch, Ok(1));
            assert!(
                out == image,
                "restored bytes differ from the committed image"
            );
        }
    }

    #[test]
    fn pooled_takeover_dies_typed_at_every_call() {
        use crate::HostSegment;
        use cxl::CoherenceMode;
        use pmem::{Crash, SharedRegionBackend};

        let rt = RuntimeBuilder::setup1().build();
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 2).unwrap();
        let exec = PooledChunkExecutor(&workers);
        let (len, chunk) = (64 * 1024u64, 4096u64);
        let cluster = crate::DisaggregatedCluster::new("takeover", CoherenceMode::SoftwareManaged);
        cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
        let mut writer = cluster.host(0).create_segment("seg", len, chunk).unwrap();
        writer.checkpoint(&ckpt_image(len, 1)).unwrap();
        writer.checkpoint(&ckpt_image(len, 2)).unwrap();
        let mut spare: HostSegment = cluster.host(1).attach_segment("seg").unwrap();
        spare.acquire().unwrap();

        // The spare host's takeover on a pool of its own: the pool open,
        // the region open validating the committed slot on the workers, and
        // the restore, both one chunk per job.
        let take_over = |crash: &Crash| -> pmem::Result<(u64, Vec<u8>)> {
            let backend = Arc::new(SharedRegionBackend::new(spare.region(), 1));
            let pool = PmemPool::open_with_backend(crash.wrap(backend), "seg")?;
            let region = CheckpointRegion::open_root_shared(Arc::new(pool), &exec)?;
            let mut out = vec![0u8; len as usize];
            let epoch = region.restore_with(&mut out, &exec)?;
            Ok((epoch, out))
        };
        let clean = Crash::new();
        assert_eq!(take_over(&clean).unwrap(), (2, ckpt_image(len, 2)));
        let calls = clean.calls();

        let positions = Crash::sweep(|k, torn| {
            let crash = Crash::new();
            crash.arm(k, torn);
            let crashed = match take_over(&crash) {
                Ok(restored) => {
                    assert_eq!(restored, (2, ckpt_image(len, 2)), "{k}/{torn}");
                    false
                }
                Err(e) => {
                    assert!(e.is_injected_crash(), "{k}/{torn}: {e}");
                    true
                }
            };
            assert_eq!(crashed, k < calls, "{k}/{torn}");
            // A clean reopen restores the committed epoch bit-exact.
            assert_eq!(
                take_over(&Crash::new()).unwrap(),
                (2, ckpt_image(len, 2)),
                "{k}/{torn}"
            );
            crashed
        });
        println!("pooled takeover sweep: {positions} crash positions ({calls} calls per takeover)");
        // Seven calls open the pool and read the region's descriptor; then
        // the slot header and 16 chunks to validate, and 16 to restore.
        assert_eq!(calls, 7 + 1 + 2 * 16);
        assert_eq!(positions as u64, 2 * (calls + 1));
    }

    #[test]
    fn pooled_executor_runs_every_index_exactly_once() {
        let rt = RuntimeBuilder::setup1().build();
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let exec = PooledChunkExecutor(&workers);
        for jobs in [0, 1, 3, 4, 1000] {
            let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            exec.run_chunks(jobs, &|j| {
                runs[j].fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn pooled_executor_returns_a_failing_jobs_error() {
        let rt = RuntimeBuilder::setup1().build();
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let err = PooledChunkExecutor(&workers)
            .run_chunks(100, &|j| match j {
                37 => Err(PmemError::Checkpoint("job 37 failed")),
                _ => Ok(()),
            })
            .unwrap_err();
        assert!(
            matches!(err, PmemError::Checkpoint("job 37 failed")),
            "{err}"
        );
    }

    #[test]
    fn pooled_checkpoints_match_serial_ones() {
        let rt = RuntimeBuilder::setup1().build();
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let (data_len, chunk_len) = (64 * 1024u64, 4096u64);
        let tier = TierPolicy::LocalDram { socket: 0 };
        let serial_pool = rt
            .checkpoint_region(&tier, "serial", data_len, chunk_len)
            .unwrap();
        let pooled_pool = rt
            .checkpoint_region(&tier, "pooled", data_len, chunk_len)
            .unwrap();
        let mut serial = CheckpointRegion::open_root(serial_pool.pool()).unwrap();
        let mut pooled = CheckpointRegion::open_root(pooled_pool.pool()).unwrap();
        let first: Vec<u8> = (0..data_len).map(|i| (i % 241) as u8).collect();
        let mut second = first.clone();
        for chunk in second.chunks_mut(chunk_len as usize).step_by(4) {
            chunk[7] ^= 0x5A;
        }
        // Cold slot 1, cold slot 0, four changed chunks, unchanged.
        let mut written = Vec::new();
        for image in [&first, &second, &second, &second] {
            let s = serial.checkpoint(image).unwrap();
            let p = pooled
                .checkpoint_with(image, &PooledChunkExecutor(&workers))
                .unwrap();
            assert_eq!(s, p, "stats identical regardless of executor");
            written.push(p.chunks_written);
        }
        assert_eq!(written, [16, 16, 4, 0]);
        assert_eq!(
            serial_pool.persist_stats().flushes,
            pooled_pool.persist_stats().flushes
        );
        let mut a = vec![0u8; data_len as usize];
        let mut b = vec![0u8; data_len as usize];
        assert_eq!(serial.restore(&mut a).unwrap(), 4);
        assert_eq!(pooled.restore(&mut b).unwrap(), 4);
        assert_eq!(a, b);
        assert_eq!(b, second);
    }

    #[test]
    fn restore_region_rejects_volatile_tiers_and_missing_expanders() {
        let rt = RuntimeBuilder::setup1().build();
        assert!(matches!(
            rt.restore_region(&TierPolicy::LocalDram { socket: 0 }, "x")
                .unwrap_err(),
            RuntimeError::VolatileTier { node: 0 }
        ));
        // Setup #2 has no expander at all.
        let rt2 = RuntimeBuilder::setup2().build();
        assert!(rt2.restore_region(&TierPolicy::CxlExpander, "x").is_err());
    }

    #[test]
    fn custom_runtime_wraps_any_machine() {
        let machine = memsim::machines::sapphire_rapids_cxl_upgraded(2.4, 4);
        let rt = RuntimeBuilder::new().machine(machine).build();
        assert_eq!(rt.setup(), SetupKind::Custom);
        let base = RuntimeBuilder::setup1().build();
        let placement = rt.place(&AffinityPolicy::SingleSocket(0), 10).unwrap();
        let upgraded = rt
            .simulate_stream_phase("up", &placement, 2, GB, GB / 2, AccessMode::MemoryMode)
            .unwrap();
        let baseline = base
            .simulate_stream_phase("base", &placement, 2, GB, GB / 2, AccessMode::MemoryMode)
            .unwrap();
        assert!(upgraded.bandwidth_gbs > baseline.bandwidth_gbs);
    }
}
