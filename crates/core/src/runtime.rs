//! The CXL-as-PMem runtime: machines, pools and performance accounting.

use crate::backend::CxlDeviceBackend;
use crate::modes::AccessMode;
use crate::placement::TierPolicy;
use cxl::{FpgaPrototype, InterleaveSet, LinkConfig, Type3Device};
use memsim::access::{ThreadTraffic, TrafficPhase};
use memsim::{Engine, Machine, PhaseReport, SimError};
use numa::{AffinityPolicy, NodeId, NumaError, PinnedPool, ThreadPlacement, Topology};
use pmem::{CheckpointRegion, ChunkExecutor, PmemError, PmemPool, VolatileBackend};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

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
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// Whether this error wraps the crash-injection sentinel (the tiering
    /// migrator and checkpoint pipelines surface injected crashes through
    /// the persistent store).
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, RuntimeError::Pmem(e) if e.is_injected_crash())
    }
}

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
    /// A caller-provided machine.
    Custom,
    /// A machine compiled from a plain-text topology description
    /// (CEDT/SRAT-shaped ingest, see [`memsim::topology`]).
    Ingested,
}

/// A compiled CFMWS interleave window realised functionally: one Type-3
/// endpoint per interleave way, each programmed — via [`InterleaveSet`] —
/// with exactly the HDM slice it owns. Consecutive `granularity`-sized
/// granules of the window's HPA range rotate across the endpoints, so
/// bandwidth aggregates across ways the same way the `memsim` window device
/// does analytically.
#[derive(Debug)]
pub struct InterleavedWindow {
    name: String,
    set: InterleaveSet,
    endpoints: Vec<Arc<Type3Device>>,
}

impl InterleavedWindow {
    fn from_compiled(w: &memsim::topology::CompiledWindow) -> Self {
        // `compile()` enforces CXL-spec geometry (ways ∈ {1,2,4,8,16},
        // power-of-two granularity, uniform aligned way capacity, aligned
        // HPA base, an end inside the HPA space), so realising the window
        // cannot fail.
        let set = InterleaveSet::new(w.hpa_base, w.total_bytes(), w.granularity, w.ways() as u8)
            .expect("compiled windows carry CXL-spec interleave geometry");
        let endpoints = w
            .way_names
            .iter()
            .enumerate()
            .map(|(position, name)| {
                let device =
                    Type3Device::new(name.clone(), w.way_capacity_bytes, LinkConfig::gen5_x16());
                device
                    .program_hdm(
                        set.way_range(position as u8)
                            .expect("position is within the interleave set"),
                    )
                    .expect("way range fits the way capacity");
                Arc::new(device)
            })
            .collect();
        InterleavedWindow {
            name: w.name.clone(),
            set,
            endpoints,
        }
    }

    /// Window name (from the `[window.NAME]` section of the description).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interleave geometry (HPA base, length, granularity, ways).
    pub fn set(&self) -> &InterleaveSet {
        &self.set
    }

    /// Per-way endpoints in interleave-position order.
    pub fn endpoints(&self) -> &[Arc<Type3Device>] {
        &self.endpoints
    }

    /// Routes a host-physical address to the endpoint that owns it and the
    /// device-local address it decodes to. Returns `None` outside the window.
    pub fn route(&self, hpa: u64) -> Option<(&Arc<Type3Device>, u64)> {
        let (way, dpa) = self.set.translate(hpa).ok()?;
        Some((&self.endpoints[way as usize], dpa))
    }
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

/// Adapter fanning checkpoint chunk flushes across a resident [`PinnedPool`].
///
/// Each worker takes a contiguous share of the dirty-chunk jobs (the same
/// static schedule as the STREAM kernels) and issues its writes + flushes as
/// one batch; the [`CheckpointRegion`] then drains once for the whole
/// invocation — so a checkpoint costs at most `dirty_chunks` flushes + 1
/// drain, exactly the `PersistStats` discipline of the STREAM-PMem hot path.
///
/// Crash injection into the chunk-flush phase is only deterministic under
/// [`pmem::SerialExecutor`]; this adapter is the production path.
pub struct PooledChunkExecutor<'a>(pub &'a PinnedPool);

impl ChunkExecutor for PooledChunkExecutor<'_> {
    fn run_chunks(
        &self,
        jobs: usize,
        job: &(dyn Fn(usize) -> pmem::Result<()> + Sync),
    ) -> pmem::Result<()> {
        if jobs == 0 {
            return Ok(());
        }
        if self.0.is_empty() {
            return (0..jobs).try_for_each(job);
        }
        self.0
            .run(|ctx| {
                let (start, end) = ctx.chunk(jobs);
                (start..end).try_for_each(job)
            })
            .into_iter()
            .collect()
    }
}

/// What topology a [`RuntimeBuilder`] realises at build time.
enum BuilderTopology {
    Setup1,
    Setup2,
    DcpmmBaseline,
    Machine(Machine),
    Ingested(memsim::IngestedTopology),
}

/// The one front door for constructing a [`CxlPmemRuntime`]. The topology is
/// picked by the constructor:
///
/// * **paper setups** — [`setup1`](Self::setup1), [`setup2`](Self::setup2)
///   and [`dcpmm_baseline`](Self::dcpmm_baseline) compile the committed
///   reference descriptions of [`memsim::machines`]; Setup #1's CXL node is
///   backed by the paper's functional FPGA prototype;
/// * **caller machines** — [`machine`](Self::machine) wraps a caller-built
///   machine model (no functional card);
/// * **ingested descriptions** — [`from_description`](Self::from_description)
///   parses + compiles a CEDT/SRAT-shaped plain-text description (validated
///   *in the constructor*, so [`build`](Self::build) stays infallible), and
///   [`from_ingested`](Self::from_ingested) takes an already-compiled
///   [`memsim::IngestedTopology`]. A CPU-less memory node gets a functional
///   card derived from its device spec, so pools on that tier really store
///   bytes.
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
    /// HPA base the expander's HDM decodes at (arbitrary in the model;
    /// 128 GiB keeps it clear of the DRAM nodes). An ingested `[window.*]`
    /// keeps its own base.
    const DEFAULT_HPA_BASE: u64 = 0x20_0000_0000;

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

    /// Topology knob: wraps a caller-provided machine model (ablations,
    /// upgraded prototypes, ...).
    pub fn machine(mut self, machine: Machine) -> Self {
        self.topology = BuilderTopology::Machine(machine);
        self
    }

    /// Topology knob: parses + compiles a plain-text topology description —
    /// the CEDT/SRAT-shaped ingest format of [`memsim::topology`]. If the
    /// machine has a CPU-less memory node, a functional Type-3 expander sized
    /// from the ingested device specification backs it (so pools on the CXL
    /// tier really store bytes), and every declared `[window.*]` becomes an
    /// [`InterleavedWindow`] with one endpoint per interleave way. Malformed
    /// descriptions surface as [`RuntimeError::Topology`] *here*, keeping
    /// [`build`](Self::build) infallible.
    pub fn from_description(text: &str) -> crate::Result<Self> {
        let description = memsim::TopologyDescription::parse(text)?;
        Ok(Self::from_ingested(description.compile()?))
    }

    /// Topology knob: an already-compiled [`memsim::IngestedTopology`].
    pub fn from_ingested(ingested: memsim::IngestedTopology) -> Self {
        RuntimeBuilder {
            topology: BuilderTopology::Ingested(ingested),
        }
    }

    /// Realises the runtime. Infallible: every fallible input was validated
    /// by its constructor.
    pub fn build(self) -> CxlPmemRuntime {
        match self.topology {
            BuilderTopology::Setup1 => {
                // The card stores node 2's bytes; the Setup #1 text alone
                // says how fast it is. Enumerate it to map its HDM into the
                // host; the HPA base is arbitrary in the model.
                let fpga = FpgaPrototype::paper_prototype();
                let _ = fpga.enumerate(Self::DEFAULT_HPA_BASE);
                CxlPmemRuntime::from_parts(
                    SetupKind::SapphireRapidsCxl,
                    Engine::new(memsim::machines::sapphire_rapids_cxl_machine()),
                    Some(fpga),
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
                CxlPmemRuntime::from_parts(SetupKind::Custom, Engine::new(machine), None)
            }
            BuilderTopology::Ingested(ingested) => {
                let memsim::IngestedTopology { machine, windows } = ingested;
                let node = machine.topology().memory_only_nodes().next().map(|n| n.id);
                let fpga = node.map(|node| {
                    let hpa_base = windows
                        .iter()
                        .find(|w| w.node == node)
                        .map(|w| w.hpa_base)
                        .unwrap_or(Self::DEFAULT_HPA_BASE);
                    let device = machine
                        .device(node)
                        .expect("compiled topologies back every memory node with a device");
                    let fpga = FpgaPrototype::custom(
                        device.name.clone(),
                        LinkConfig::gen5_x16(),
                        device.capacity_bytes,
                    );
                    let _ = fpga.enumerate(hpa_base);
                    fpga
                });
                let mut runtime =
                    CxlPmemRuntime::from_parts(SetupKind::Ingested, Engine::new(machine), fpga);
                runtime.interleaves = windows
                    .iter()
                    .map(InterleavedWindow::from_compiled)
                    .collect();
                runtime
            }
        }
    }
}

/// The top-level runtime object.
pub struct CxlPmemRuntime {
    kind: SetupKind,
    engine: Engine,
    fpga: Option<FpgaPrototype>,
    /// Interleave windows realised from an ingested description (empty for
    /// the hand-built presets).
    interleaves: Vec<InterleavedWindow>,
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
            interleaves: Vec::new(),
            worker_pools: Mutex::new(HashMap::new()),
        }
    }

    /// Interleave windows realised from an ingested topology description
    /// (empty for the hand-built presets and a caller-provided
    /// [`machine`](RuntimeBuilder::machine)).
    pub fn interleaved_windows(&self) -> &[InterleavedWindow] {
        &self.interleaves
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
        let capacity = self
            .topology()
            .node(node)
            .map_err(NumaError::from_self)?
            .mem_bytes;
        if size > capacity {
            return Err(RuntimeError::PoolTooLarge {
                node,
                requested: size,
                capacity,
            });
        }
        let pool = if self.is_expander_node(node) {
            let backend = self.expander_backend(Some(size))?;
            PmemPool::create_with_backend(Arc::new(backend), layout)?
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
    /// `len` defaults to the whole device.
    fn expander_backend(&self, len: Option<u64>) -> crate::Result<CxlDeviceBackend> {
        let fpga = self.fpga.as_ref().ok_or(RuntimeError::NoCxlDevice)?;
        let device = fpga.endpoint();
        let len = len.unwrap_or_else(|| device.capacity_bytes());
        CxlDeviceBackend::new(device, 0, len).map_err(Into::into)
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
        let backend = self.expander_backend(None)?;
        let pool = PmemPool::open_with_backend(Arc::new(backend), layout)?;
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
    pub fn disaggregated_cluster(
        &self,
        cards: usize,
        mode: cxl::CoherenceMode,
    ) -> crate::DisaggregatedCluster {
        let cluster = crate::DisaggregatedCluster::new(format!("{:?}-rack", self.kind), mode);
        for _ in 0..cards {
            cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
        }
        cluster
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

    fn stream_phase(
        &self,
        label: &str,
        placement: &ThreadPlacement,
        data_node: NodeId,
        read_bytes_per_thread: u64,
        write_bytes_per_thread: u64,
        mode: AccessMode,
    ) -> TrafficPhase {
        let overhead = mode.software_overhead();
        TrafficPhase::from_threads(
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
        )
    }

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
        let phase = self.stream_phase(
            label,
            placement,
            data_node,
            read_bytes_per_thread,
            write_bytes_per_thread,
            mode,
        );
        self.engine.simulate(&phase).map_err(Into::into)
    }

    /// Memoised variant of [`simulate_stream_phase`](Self::simulate_stream_phase):
    /// phases with identical traffic signatures reuse the engine's cached
    /// verdict (shared via `Arc`, so hits cost a key hash plus a refcount
    /// bump). Sweeps over figure grids hit this hard — kernels with equal
    /// byte counts (Copy/Scale, Add/Triad) collapse to one evaluation.
    pub fn simulate_stream_phase_cached(
        &self,
        label: &str,
        placement: &ThreadPlacement,
        data_node: NodeId,
        read_bytes_per_thread: u64,
        write_bytes_per_thread: u64,
        mode: AccessMode,
    ) -> crate::Result<Arc<PhaseReport>> {
        let phase = self.stream_phase(
            label,
            placement,
            data_node,
            read_bytes_per_thread,
            write_bytes_per_thread,
            mode,
        );
        self.engine.simulate_cached(&phase).map_err(Into::into)
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
        let ceiling = self.machine().path_ceiling_gbs(
            socket,
            node,
            2,
            1,
            memsim::AccessPattern::Sequential,
        )?;
        Ok(ceiling / mode.software_overhead())
    }
}

/// Helper: `numa::NumaError` already converts into `SimError`; this gives us a
/// direct conversion point for readability above.
trait FromSelf {
    fn from_self(e: numa::NumaError) -> RuntimeError;
}
impl FromSelf for NumaError {
    fn from_self(e: numa::NumaError) -> RuntimeError {
        RuntimeError::Numa(e)
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
        let rt = RuntimeBuilder::from_description(memsim::topology::reference::SPR_FPGA_CXL)
            .expect("reference description ingests")
            .build();
        assert_eq!(rt.setup(), SetupKind::Ingested);
        assert!(rt.fpga().is_some());
        assert!(rt.interleaved_windows().is_empty());
        let pool = rt
            .provision_pool(&TierPolicy::CxlExpander, "stream", 8 * 1024 * 1024)
            .unwrap();
        assert_eq!(pool.mount(), "/mnt/pmem2");
        let array = PersistentArray::<f64>::allocate(pool.pool(), 1000).unwrap();
        array.fill(1.5).unwrap();
        array.persist_all().unwrap();
        assert!(rt.fpga().unwrap().endpoint().stats().bytes_written >= 8000);
        // The functional card is the ingested device: same name, same size.
        let device = rt.machine().device(2).unwrap();
        let fpga = rt.fpga().unwrap();
        assert_eq!(fpga.capacity_bytes(), device.capacity_bytes);
        assert_eq!(fpga.name(), device.name);
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
                .unwrap()
                .machine;
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
    fn ingested_interleave_window_partitions_the_hpa_space() {
        let rt =
            RuntimeBuilder::from_description(memsim::topology::reference::SPR_DUAL_CXL_INTERLEAVE)
                .expect("reference description ingests")
                .build();
        let windows = rt.interleaved_windows();
        assert_eq!(windows.len(), 1);
        let window = &windows[0];
        assert_eq!(window.endpoints().len(), 2);
        // Each way's decoder owns exactly its share of the window.
        for endpoint in window.endpoints() {
            assert_eq!(endpoint.mapped_bytes(), window.set().local_bytes());
        }
        // Consecutive granules rotate across the two endpoints.
        let base = window.set().hpa_base();
        let gran = window.set().granularity();
        let (first, dpa0) = window.route(base).unwrap();
        let (second, dpa1) = window.route(base + gran).unwrap();
        assert_eq!(first.name(), window.endpoints()[0].name());
        assert_eq!(second.name(), window.endpoints()[1].name());
        assert_eq!(dpa0, 0);
        assert_eq!(dpa1, 0); // device-local blocks are densely packed
        let (wrap, dpa2) = window.route(base + 2 * gran).unwrap();
        assert_eq!(wrap.name(), window.endpoints()[0].name());
        assert_eq!(dpa2, gran);
        assert!(window.route(base + window.set().len_bytes()).is_none());
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
        use pmem::{CheckpointCrash, CheckpointPhase, CheckpointRegion, CrashPoint};

        let rt = RuntimeBuilder::setup1().build();
        let data_len = 64 * 1024u64;
        let chunk_len = 4096u64;
        let managed = rt
            .checkpoint_region(&TierPolicy::CxlExpander, "ckpt-rt", data_len, chunk_len)
            .unwrap();
        assert_eq!(managed.node(), 2, "checkpoint pool lives on the expander");
        let workers = rt.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        let exec = PooledChunkExecutor(&workers);

        let mut region = CheckpointRegion::open_root(managed.pool()).unwrap();
        let image: Vec<u8> = (0..data_len).map(|i| (i % 251) as u8).collect();
        let stats = region.checkpoint_with(&image, &exec).unwrap();
        assert_eq!(stats.chunks_written, 16, "cold slot: every chunk flushes");
        region.checkpoint_with(&image, &exec).unwrap();
        let stats = region.checkpoint_with(&image, &exec).unwrap();
        assert_eq!(stats.chunks_written, 0, "warm slot: incremental no-op");

        // Crash the commit record, drop every handle, and reattach through
        // the runtime: the torn commit rolls back to epoch 3.
        region.set_crash(Some(CheckpointCrash {
            phase: CheckpointPhase::Commit,
            point: CrashPoint::BeforeCommit,
        }));
        let mut changed = image.clone();
        changed[0] ^= 1;
        assert!(region
            .checkpoint_with(&changed, &exec)
            .unwrap_err()
            .is_injected_crash());
        drop(region);
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
        use pmem::{CheckpointCrash, CheckpointPhase, CrashPoint};

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

        // Die mid-commit on the resident-pool path too, then fail over.
        let mut next = image.clone();
        next[0] ^= 0xFF;
        assert!(a
            .checkpoint_crashing(
                &next,
                CheckpointCrash {
                    phase: CheckpointPhase::Commit,
                    point: CrashPoint::BeforeCommit,
                },
                &exec,
            )
            .unwrap_err()
            .is_injected_crash());
        drop(a);
        let mut b = cluster.host(1).attach_segment("fanout").unwrap();
        b.acquire().unwrap();
        let mut out = vec![0u8; data_len as usize];
        assert_eq!(b.restore(&mut out).unwrap(), 2);
        assert_eq!(out, image);
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
