//! Adaptive tiering: access-tracked hot/cold chunk migration across tiers.
//!
//! Static spill answers the placement question **once** — a data set larger
//! than local DRAM spills its tail onto the CXL expander and never moves
//! again. This module turns that one-shot decision into a **feedback loop**:
//!
//! ```text
//!   STREAM / PmemStream hot path ──► AccessTracker (per-chunk read/write
//!            ▲                        byte counters, epoch decay)
//!            │                               │ heat snapshot
//!            │                               ▼
//!   TieredRegion (per-tier pools,      TierPlanner policy
//!   durable residency map)             (static-spill │ hot-greedy │
//!            ▲                          bandwidth-aware interleaving)
//!            │ flush-batched copies            │ TierAssignment
//!            └────────── Migrator ◄────────────┘
//!                 (resident PinnedPool, ChunkExecutor batching,
//!                  residency commit via the pool undo log)
//! ```
//!
//! * [`AccessTracker`] — lock-free per-chunk read/write byte counters fed by
//!   the stream engine's worker windows (relaxed atomics; a handful of adds
//!   per kernel invocation, which is what keeps the hot-path overhead under
//!   the 5 % budget `BENCH_tiering.json` enforces in CI).
//! * [`TierPlanner`] — the policy trait. [`StaticSpillPolicy`] reproduces the
//!   capacity-order spill exactly (parity baseline), [`HotGreedyPolicy`]
//!   promotes the hottest chunks onto the fastest tier under each tier's
//!   capacity budget, and [`BandwidthAwarePolicy`] consults the
//!   [`memsim::Engine`] to *interleave* traffic across tiers in proportion to
//!   what each device and link can actually sustain — the policy that
//!   recovers the bandwidth the ~11 GB/s expander ceiling takes away.
//! * [`TieredRegion`] — the functional store: one pool per tier, each holding
//!   a chunk slab, plus a durable [`ResidencyMap`] (in the spill tier's pool)
//!   naming the one tier every chunk lives on.
//! * The **migrator** ([`TieredRegion::migrate_to`]) — copies moved chunks
//!   into their destination slab through a [`ChunkExecutor`] (the runtime
//!   fans this over the resident `PinnedPool`), flushes each copy and drains
//!   once per destination tier, then commits each chunk's residency flip
//!   inside a pool transaction. A crash at *any* point leaves every chunk
//!   readable from exactly one tier: before the flip the source bytes are
//!   authoritative (the shadow copy is invisible), after it the destination
//!   bytes are, and a flip torn mid-transaction is rolled back by undo-log
//!   recovery. The crash suites check this at every backend call of a
//!   migration: [`TieredRegion::from_pools`] lays the region over pools
//!   opened on backends one `pmem::Crash` wraps.
//!
//! Entry points on the runtime:
//! [`CxlPmemRuntime::tiered_region`](crate::CxlPmemRuntime::tiered_region)
//! and [`CxlPmemRuntime::rebalance`](crate::CxlPmemRuntime::rebalance).

use crate::placement::TierPolicy;
use crate::runtime::{CxlPmemRuntime, RuntimeError};
use memsim::access::{ThreadTraffic, TrafficPhase};
use memsim::{Engine, PhaseReport, SimError};
use numa::NodeId;
use pmem::pool::MIN_POOL_SIZE;
use pmem::{ChunkExecutor, PmemError, PmemPool, ResidencyMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------- tracking

/// Decayed access heat of one chunk (byte counts, not event counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkHeat {
    /// Bytes read from the chunk since the last decay horizon.
    pub read_bytes: u64,
    /// Bytes written to the chunk since the last decay horizon.
    pub write_bytes: u64,
}

impl ChunkHeat {
    /// Total traffic against the chunk.
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Lock-free per-chunk access counters with epoch decay.
///
/// The tracker divides a `total_bytes` span into `chunk_bytes` chunks and
/// counts read/written bytes per chunk with relaxed atomics — cheap enough to
/// sit on the STREAM hot path (each worker records its whole window with a
/// couple of `fetch_add`s per kernel invocation). [`decay`](Self::decay)
/// halves every counter, so heat is an exponential moving average over
/// rebalance epochs rather than an all-time sum: a chunk that *was* hot last
/// week eventually looks cold.
#[derive(Debug)]
pub struct AccessTracker {
    total_bytes: u64,
    chunk_bytes: u64,
    reads: Vec<AtomicU64>,
    writes: Vec<AtomicU64>,
    decays: AtomicU64,
}

impl AccessTracker {
    /// A tracker over `total_bytes` at `chunk_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(total_bytes: u64, chunk_bytes: u64) -> Self {
        assert!(total_bytes > 0, "tracker span must be non-empty");
        assert!(chunk_bytes > 0, "tracker chunk must be non-empty");
        let chunks = total_bytes.div_ceil(chunk_bytes) as usize;
        AccessTracker {
            total_bytes,
            chunk_bytes,
            reads: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
            writes: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
            decays: AtomicU64::new(0),
        }
    }

    /// Number of tracked chunks.
    pub fn chunk_count(&self) -> usize {
        self.reads.len()
    }

    /// The tracked span in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Tracking granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// How many decay epochs have elapsed.
    pub fn decay_epochs(&self) -> u64 {
        self.decays.load(Ordering::Relaxed)
    }

    fn record(counters: &[AtomicU64], chunk_bytes: u64, total: u64, lo: u64, hi: u64) {
        let hi = hi.min(total);
        if lo >= hi {
            return;
        }
        let first = (lo / chunk_bytes) as usize;
        let last = ((hi - 1) / chunk_bytes) as usize;
        for (chunk, counter) in counters.iter().enumerate().take(last + 1).skip(first) {
            let chunk_lo = chunk as u64 * chunk_bytes;
            let chunk_hi = chunk_lo + chunk_bytes;
            let overlap = hi.min(chunk_hi) - lo.max(chunk_lo);
            counter.fetch_add(overlap, Ordering::Relaxed);
        }
    }

    /// Records a read of the byte span `[lo, hi)` (clamped to the tracked
    /// range; spans crossing chunk boundaries are split proportionally).
    pub fn record_read(&self, lo: u64, hi: u64) {
        Self::record(&self.reads, self.chunk_bytes, self.total_bytes, lo, hi);
    }

    /// Records a write of the byte span `[lo, hi)`.
    pub fn record_write(&self, lo: u64, hi: u64) {
        Self::record(&self.writes, self.chunk_bytes, self.total_bytes, lo, hi);
    }

    /// Snapshot of every chunk's current heat.
    pub fn heat(&self) -> Vec<ChunkHeat> {
        self.reads
            .iter()
            .zip(self.writes.iter())
            .map(|(r, w)| ChunkHeat {
                read_bytes: r.load(Ordering::Relaxed),
                write_bytes: w.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Halves every counter (exponential decay across rebalance epochs).
    /// Concurrent hot-path increments may land before or after the halving;
    /// either order is a valid interleaving of an approximate signal.
    pub fn decay(&self) {
        for counter in self.reads.iter().chain(self.writes.iter()) {
            // fetch_update loops its CAS, so a racing fetch_add is never lost
            // wholesale — it is merely halved or not, like any other sample.
            let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v / 2));
        }
        self.decays.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------- planning

/// The shape of one tier as the planners see it: where it is and how many
/// payload bytes of the region it may hold (the *policy budget*, which can be
/// tighter than the node's physical capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierShape {
    /// NUMA node backing the tier.
    pub node: NodeId,
    /// Payload-byte budget the planners must respect.
    pub capacity_bytes: u64,
}

/// Everything a [`TierPlanner`] may consult when placing chunks.
pub struct PlanContext<'a> {
    /// Payload bytes of the whole region.
    pub data_len: u64,
    /// Chunk granularity in bytes (the last chunk may be shorter).
    pub chunk_bytes: u64,
    /// Per-chunk access heat, indexed by chunk.
    pub heat: &'a [ChunkHeat],
    /// Tiers in preference order (fastest first); budgets are enforced.
    pub tiers: &'a [TierShape],
    /// The analytical engine, for bandwidth-aware decisions.
    pub engine: &'a Engine,
    /// Logical CPUs of the worker placement that will drive the traffic.
    pub cpus: &'a [usize],
    /// Current residency (tier index per chunk), when the region has one —
    /// lets a policy prefer the plan that moves less on a bandwidth tie.
    pub current: Option<&'a [usize]>,
}

impl PlanContext<'_> {
    /// Number of chunks being planned.
    pub fn chunk_count(&self) -> usize {
        self.heat.len()
    }

    /// Payload length of chunk `i` (the tail chunk may be short).
    pub fn chunk_payload(&self, chunk: usize) -> u64 {
        chunk_payload(self.data_len, self.chunk_bytes, chunk)
    }

    /// Per-chunk planning weight: the decayed heat, or — before any traffic
    /// has been observed — the chunk's payload size, so a cold start plans
    /// exactly like uniform access.
    pub fn effective_heat(&self) -> Vec<u64> {
        let total: u64 = self.heat.iter().map(ChunkHeat::total).sum();
        if total == 0 {
            (0..self.chunk_count())
                .map(|c| self.chunk_payload(c))
                .collect()
        } else {
            self.heat.iter().map(ChunkHeat::total).collect()
        }
    }
}

fn chunk_payload(data_len: u64, chunk_bytes: u64, chunk: usize) -> u64 {
    let start = chunk as u64 * chunk_bytes;
    chunk_bytes.min(data_len.saturating_sub(start))
}

/// A plan: which tier (index into the region's tier list) each chunk should
/// live on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierAssignment {
    /// Tier index per chunk.
    pub tier_of: Vec<usize>,
}

impl TierAssignment {
    /// Fraction of chunks placed on tier `tier`.
    pub fn fraction_on(&self, tier: usize) -> f64 {
        if self.tier_of.is_empty() {
            return 0.0;
        }
        self.tier_of.iter().filter(|&&t| t == tier).count() as f64 / self.tier_of.len() as f64
    }

    /// Chunks that differ from `current` (the migration set size).
    pub fn moves_from(&self, current: &[usize]) -> usize {
        self.tier_of
            .iter()
            .zip(current.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Heat-weighted traffic per tier node: how the region's traffic would
    /// spread across NUMA nodes under this assignment. This is what the
    /// engine simulates — bandwidth follows *traffic*, not byte placement,
    /// which is exactly why promoting hot chunks moves the needle.
    pub fn traffic_parts(&self, tiers: &[TierShape], weights: &[u64]) -> Vec<(NodeId, u64)> {
        let mut per_tier = vec![0u64; tiers.len()];
        for (chunk, &tier) in self.tier_of.iter().enumerate() {
            per_tier[tier] += weights.get(chunk).copied().unwrap_or(0);
        }
        tiers
            .iter()
            .zip(per_tier)
            .map(|(shape, w)| (shape.node, w))
            .collect()
    }

    /// Checks shape and capacity budgets for a region of `data_len` bytes at
    /// `chunk_bytes` granularity over `tiers`.
    pub fn validate(
        &self,
        data_len: u64,
        chunk_bytes: u64,
        tiers: &[TierShape],
    ) -> crate::Result<()> {
        let chunk_count = data_len.div_ceil(chunk_bytes.max(1)) as usize;
        if self.tier_of.len() != chunk_count {
            return Err(RuntimeError::Tiering("assignment length mismatch"));
        }
        let mut used = vec![0u64; tiers.len()];
        for (chunk, &tier) in self.tier_of.iter().enumerate() {
            if tier >= tiers.len() {
                return Err(RuntimeError::Tiering("assignment names an unknown tier"));
            }
            used[tier] += chunk_payload(data_len, chunk_bytes, chunk);
        }
        if used
            .iter()
            .zip(tiers.iter())
            .any(|(&u, shape)| u > shape.capacity_bytes)
        {
            return Err(RuntimeError::Tiering("assignment exceeds a tier budget"));
        }
        Ok(())
    }
}

/// Simulates the bandwidth a traffic split over `parts` achieves with the
/// given worker CPUs: every CPU streams a nominal STREAM-shaped byte budget
/// (2:1 read:write) split across the parts in proportion to their weights.
/// The model is linear in bytes, so the nominal scale cancels out of the
/// reported GB/s.
pub fn assignment_bandwidth(
    engine: &Engine,
    cpus: &[usize],
    parts: &[(NodeId, u64)],
) -> std::result::Result<PhaseReport, SimError> {
    const NOMINAL: u64 = 1 << 30;
    let total: u64 = parts.iter().map(|&(_, w)| w).sum();
    let mut traffic = Vec::with_capacity(cpus.len() * parts.len());
    if total > 0 {
        for &cpu in cpus {
            for &(node, w) in parts {
                if w == 0 {
                    continue;
                }
                let frac = w as f64 / total as f64;
                traffic.push(ThreadTraffic::sequential(
                    cpu,
                    node,
                    (NOMINAL as f64 * 2.0 / 3.0 * frac) as u64,
                    (NOMINAL as f64 / 3.0 * frac) as u64,
                ));
            }
        }
    }
    engine.simulate(&TrafficPhase::from_threads("tier-assignment", traffic))
}

/// A chunk-placement policy: the pluggable half of the feedback loop.
pub trait TierPlanner {
    /// Short policy name for tables and logs.
    fn name(&self) -> &'static str;
    /// Computes a capacity-respecting tier assignment for `ctx`.
    fn plan(&self, ctx: &PlanContext<'_>) -> crate::Result<TierAssignment>;
}

fn capacity_error() -> RuntimeError {
    RuntimeError::Tiering("tier budgets cannot hold the region")
}

/// Baseline policy: chunks fill the tiers in index order until each budget
/// runs out — the one-shot memory-expansion spill, ignoring access heat
/// entirely. The data set never moves once placed, so this is the policy the
/// adaptive ones must match or beat.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticSpillPolicy;

impl TierPlanner for StaticSpillPolicy {
    fn name(&self) -> &'static str {
        "static-spill"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> crate::Result<TierAssignment> {
        let order: Vec<usize> = (0..ctx.chunk_count()).collect();
        assign_in_order(ctx, &order)
    }
}

/// Greedy promotion: the hottest chunks take the fastest tier until its
/// budget is spent, then the next tier, and so on. Latency-blind — it
/// minimises slow-tier *traffic*, which is optimal when the slow tier is
/// dramatically slower, but can leave the slow tier idle when interleaving
/// would have added its bandwidth to the aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotGreedyPolicy;

impl TierPlanner for HotGreedyPolicy {
    fn name(&self) -> &'static str {
        "hot-greedy"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> crate::Result<TierAssignment> {
        let heat = ctx.effective_heat();
        let mut order: Vec<usize> = (0..ctx.chunk_count()).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(heat[c]), c));
        assign_in_order(ctx, &order)
    }
}

/// The one definition of budgeted spill, shared by the planners and the
/// initial provisioning placement: walks chunks in `order`, placing each on
/// the first tier whose byte budget still has room.
fn fill_by_budget(
    data_len: u64,
    chunk_bytes: u64,
    capacities: &[u64],
    order: &[usize],
) -> crate::Result<Vec<usize>> {
    let mut remaining = capacities.to_vec();
    let mut tier_of = vec![usize::MAX; order.len()];
    for &chunk in order {
        let payload = chunk_payload(data_len, chunk_bytes, chunk);
        let tier = remaining
            .iter()
            .position(|&room| room >= payload)
            .ok_or_else(capacity_error)?;
        remaining[tier] -= payload;
        tier_of[chunk] = tier;
    }
    Ok(tier_of)
}

/// Walks chunks in `order`, filling tiers in preference order under their
/// byte budgets.
fn assign_in_order(ctx: &PlanContext<'_>, order: &[usize]) -> crate::Result<TierAssignment> {
    let capacities: Vec<u64> = ctx.tiers.iter().map(|t| t.capacity_bytes).collect();
    Ok(TierAssignment {
        tier_of: fill_by_budget(ctx.data_len, ctx.chunk_bytes, &capacities, order)?,
    })
}

/// Bandwidth-aware interleaving: consults the [`memsim::Engine`] and places
/// *traffic*, not just bytes.
///
/// The policy generates candidate assignments — the static spill, the
/// hot-greedy promotion, and a heat-proportional interleaving whose per-tier
/// traffic targets follow each path's streaming ceiling
/// ([`Machine::path_ceiling_gbs`](memsim::Machine::path_ceiling_gbs)) — then
/// scores every candidate with the engine's full bottleneck model (devices,
/// links *and* per-thread concurrency) and keeps the fastest. Including the
/// static assignment in the candidate set makes "matches or beats static
/// spill" true by construction; ties break toward the plan that migrates the
/// fewest chunks from the current residency.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandwidthAwarePolicy;

impl BandwidthAwarePolicy {
    /// The ceiling-proportional candidate: hottest chunks first, each placed
    /// on the tier whose (assigned traffic / ceiling) ratio stays lowest —
    /// weighted round-robin toward per-tier traffic shares matching the
    /// per-tier bandwidth ceilings, under the capacity budgets.
    fn proportional(ctx: &PlanContext<'_>, heat: &[u64]) -> crate::Result<TierAssignment> {
        let machine = ctx.engine.machine();
        let socket = ctx
            .cpus
            .first()
            .and_then(|&cpu| machine.topology().socket_of_cpu(cpu))
            .unwrap_or(0);
        let ceilings: Vec<f64> = ctx
            .tiers
            .iter()
            .map(|t| {
                machine
                    .path_ceiling_gbs(socket, t.node, 2, 1)
                    .unwrap_or(0.0)
                    .max(f64::MIN_POSITIVE)
            })
            .collect();
        let mut order: Vec<usize> = (0..ctx.chunk_count()).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(heat[c]), c));
        let mut remaining: Vec<u64> = ctx.tiers.iter().map(|t| t.capacity_bytes).collect();
        let mut assigned_heat = vec![0.0f64; ctx.tiers.len()];
        let mut tier_of = vec![usize::MAX; ctx.chunk_count()];
        for &chunk in &order {
            let payload = ctx.chunk_payload(chunk);
            let h = heat[chunk] as f64;
            let tier = (0..ctx.tiers.len())
                .filter(|&t| remaining[t] >= payload)
                .min_by(|&a, &b| {
                    let load_a = (assigned_heat[a] + h) / ceilings[a];
                    let load_b = (assigned_heat[b] + h) / ceilings[b];
                    load_a.total_cmp(&load_b)
                })
                .ok_or_else(capacity_error)?;
            remaining[tier] -= payload;
            assigned_heat[tier] += h;
            tier_of[chunk] = tier;
        }
        Ok(TierAssignment { tier_of })
    }
}

impl TierPlanner for BandwidthAwarePolicy {
    fn name(&self) -> &'static str {
        "bandwidth-aware"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> crate::Result<TierAssignment> {
        let heat = ctx.effective_heat();
        let candidates = [
            StaticSpillPolicy.plan(ctx)?,
            HotGreedyPolicy.plan(ctx)?,
            Self::proportional(ctx, &heat)?,
        ];
        let mut best: Option<(f64, usize, TierAssignment)> = None;
        for candidate in candidates {
            let parts = candidate.traffic_parts(ctx.tiers, &heat);
            let report = assignment_bandwidth(ctx.engine, ctx.cpus, &parts)?;
            let moves = ctx
                .current
                .map(|cur| candidate.moves_from(cur))
                .unwrap_or(0);
            let better = match &best {
                None => true,
                Some((bw, mv, _)) => {
                    report.bandwidth_gbs > bw + 1e-9
                        || ((report.bandwidth_gbs - bw).abs() <= 1e-9 && moves < *mv)
                }
            };
            if better {
                best = Some((report.bandwidth_gbs, moves, candidate));
            }
        }
        Ok(best.expect("at least one candidate").2)
    }
}

/// The slab bytes of a region shape: whole chunks covering `data_len`,
/// checked non-zero and to fit in `u64`.
fn slab_bytes(data_len: u64, chunk_len: u64) -> crate::Result<u64> {
    if data_len == 0 || chunk_len == 0 {
        return Err(RuntimeError::Tiering(
            "data_len and chunk_len must be non-zero",
        ));
    }
    Ok(data_len
        .div_ceil(chunk_len)
        .checked_mul(chunk_len)
        .ok_or(PmemError::SizeOverflow)?)
}

// ---------------------------------------------------------------- region

/// Outcome of one migration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    /// Chunks whose residency flip committed.
    pub chunks_moved: usize,
    /// Payload bytes copied between tiers.
    pub bytes_moved: u64,
}

impl MigrationStats {
    /// Whether the pass moved nothing (the plan matched residency).
    pub fn is_noop(&self) -> bool {
        self.chunks_moved == 0
    }
}

/// One tier's pool before a region is laid over it: what
/// [`TieredRegion::provision_pools`] returns and [`TieredRegion::from_pools`]
/// takes.
pub struct TierPool {
    /// The pool the tier's chunk slab goes in (and, on the last tier, the
    /// residency map).
    pub pool: PmemPool,
    /// The tier's node and capacity budget.
    pub shape: TierShape,
    /// Paper-style mount label of the tier.
    pub mount: String,
}

/// One tier's store: its shape, mount label, pool and chunk slab.
struct TierStore {
    shape: TierShape,
    mount: String,
    pool: Arc<PmemPool>,
    slab: u64,
}

/// A chunked data set spread across tier pools with tracked access heat and
/// migratable residency — the functional object behind the adaptive
/// expansion use case. See the [module docs](self) for the full loop.
pub struct TieredRegion {
    data_len: u64,
    chunk_bytes: u64,
    chunk_count: usize,
    tiers: Vec<TierStore>,
    residency: ResidencyMap,
    tracker: Arc<AccessTracker>,
}

impl std::fmt::Debug for TieredRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredRegion")
            .field("data_len", &self.data_len)
            .field("chunk_bytes", &self.chunk_bytes)
            .field("chunk_count", &self.chunk_count)
            .field("tiers", &self.tiers.len())
            .finish()
    }
}

impl TieredRegion {
    /// Provisions the region on `runtime`: one pool per `(tier, budget)`
    /// entry ([`provision_pools`](Self::provision_pools)), then the region
    /// over them ([`from_pools`](Self::from_pools)).
    pub fn provision(
        runtime: &CxlPmemRuntime,
        tiers: &[(TierPolicy, u64)],
        layout: &str,
        data_len: u64,
        chunk_len: u64,
    ) -> crate::Result<Self> {
        let pools = Self::provision_pools(runtime, tiers, layout, data_len, chunk_len)?;
        Self::from_pools(pools, data_len, chunk_len)
    }

    /// Provisions one pool per `(tier, budget)` entry on `runtime`, each
    /// sized for a slab of the region's chunks; the last (spill) tier's pool
    /// also fits the residency map. Every size is checked before any pool is
    /// provisioned.
    pub fn provision_pools(
        runtime: &CxlPmemRuntime,
        tiers: &[(TierPolicy, u64)],
        layout: &str,
        data_len: u64,
        chunk_len: u64,
    ) -> crate::Result<Vec<TierPool>> {
        let slab_bytes = slab_bytes(data_len, chunk_len)?;
        if tiers.is_empty() {
            return Err(RuntimeError::Tiering("at least one tier is required"));
        }
        let chunk_count = data_len.div_ceil(chunk_len) as usize;
        let tier_size = slab_bytes
            .checked_add(MIN_POOL_SIZE + 64 * 1024)
            .ok_or(PmemError::SizeOverflow)?;
        let spill_size = tier_size
            .checked_add(ResidencyMap::map_size(chunk_count))
            .ok_or(PmemError::SizeOverflow)?;
        tiers
            .iter()
            .enumerate()
            .map(|(i, (policy, capacity))| {
                let size = if i == tiers.len() - 1 {
                    spill_size
                } else {
                    tier_size
                };
                let managed = runtime.provision_pool(policy, &format!("{layout}-tier{i}"), size)?;
                let (pool, node, mount) = managed.into_parts();
                let shape = TierShape {
                    node,
                    capacity_bytes: *capacity,
                };
                Ok(TierPool { pool, shape, mount })
            })
            .collect()
    }

    /// Lays the region over `pools`, fastest tier first: a slab of
    /// `chunk_count × chunk_len` bytes in each (every tier can shadow any
    /// chunk during a migration, mirroring the checkpoint subsystem's
    /// two-slot discipline), the access tracker, and the durable residency
    /// map in the last (spill) tier's pool, registered as that pool's root
    /// object. Initial placement is static spill.
    pub fn from_pools(pools: Vec<TierPool>, data_len: u64, chunk_len: u64) -> crate::Result<Self> {
        let slab_bytes = slab_bytes(data_len, chunk_len)?;
        let chunk_count = data_len.div_ceil(chunk_len) as usize;
        let mut stores = Vec::with_capacity(pools.len());
        for tier in pools {
            let pool = Arc::new(tier.pool);
            let slab = pool.alloc_bytes(slab_bytes)?.offset;
            stores.push(TierStore {
                shape: tier.shape,
                mount: tier.mount,
                pool,
                slab,
            });
        }
        let meta_pool = stores
            .last()
            .map(|spill| Arc::clone(&spill.pool))
            .ok_or(RuntimeError::Tiering("at least one tier is required"))?;
        // Initial placement: static spill over the budgets — the same
        // fill_by_budget walk StaticSpillPolicy runs, so a fresh region's
        // first static-spill rebalance is a no-op by construction.
        let capacities: Vec<u64> = stores.iter().map(|s| s.shape.capacity_bytes).collect();
        let order: Vec<usize> = (0..chunk_count).collect();
        let initial: Vec<u32> = fill_by_budget(data_len, chunk_len, &capacities, &order)?
            .into_iter()
            .map(|t| t as u32)
            .collect();
        let residency = ResidencyMap::format(meta_pool, stores.len() as u32, &initial)?;
        residency
            .pool()
            .set_root(residency.oid(), ResidencyMap::map_size(chunk_count))?;
        Ok(TieredRegion {
            data_len,
            chunk_bytes: chunk_len,
            chunk_count,
            tiers: stores,
            residency,
            tracker: Arc::new(AccessTracker::new(data_len, chunk_len)),
        })
    }

    // ------------------------------------------------------------ info

    /// Payload bytes of the region.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Chunk granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_count
    }

    /// Payload length of chunk `chunk`.
    pub fn chunk_payload(&self, chunk: usize) -> u64 {
        chunk_payload(self.data_len, self.chunk_bytes, chunk)
    }

    /// Tier shapes in preference order.
    pub fn tier_shapes(&self) -> Vec<TierShape> {
        self.tiers.iter().map(|t| t.shape).collect()
    }

    /// Paper-style mount label of tier `tier`.
    pub fn tier_mount(&self, tier: usize) -> Option<&str> {
        self.tiers.get(tier).map(|t| t.mount.as_str())
    }

    /// The access tracker the hot paths feed; hand a clone to the stream
    /// engine's sampling hooks (`VolatileStream::set_tracker` /
    /// `PmemStream::set_tracker` in `stream-bench`) or record spans directly.
    pub fn tracker(&self) -> &Arc<AccessTracker> {
        &self.tracker
    }

    /// The durable residency map.
    pub fn residency_map(&self) -> &ResidencyMap {
        &self.residency
    }

    /// Current residency as tier indices, chunk order.
    pub fn residency(&self) -> crate::Result<Vec<usize>> {
        Ok(self
            .residency
            .tiers()?
            .into_iter()
            .map(|t| t as usize)
            .collect())
    }

    /// Current residency as a [`TierAssignment`] (for traffic simulation).
    pub fn assignment(&self) -> crate::Result<TierAssignment> {
        Ok(TierAssignment {
            tier_of: self.residency()?,
        })
    }

    /// Fraction of chunks resident on NUMA node `node`.
    pub fn fraction_on_node(&self, node: NodeId) -> crate::Result<f64> {
        let residency = self.residency()?;
        if residency.is_empty() {
            return Ok(0.0);
        }
        let on = residency
            .iter()
            .filter(|&&t| self.tiers[t].shape.node == node)
            .count();
        Ok(on as f64 / residency.len() as f64)
    }

    fn slot_off(&self, tier: usize, chunk: usize) -> u64 {
        self.tiers[tier].slab + chunk as u64 * self.chunk_bytes
    }

    fn check_chunk(&self, chunk: usize, len: usize) -> crate::Result<()> {
        if chunk >= self.chunk_count {
            return Err(RuntimeError::Tiering("chunk index out of range"));
        }
        if len as u64 != self.chunk_payload(chunk) {
            return Err(RuntimeError::Tiering(
                "buffer length does not match the chunk payload",
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------ data path

    /// Durably writes `data` as chunk `chunk`'s contents (on whichever tier
    /// currently holds it) and records the write in the tracker.
    pub fn write_chunk(&self, chunk: usize, data: &[u8]) -> crate::Result<()> {
        self.check_chunk(chunk, data.len())?;
        let tier = self.residency.tier_of(chunk)? as usize;
        let off = self.slot_off(tier, chunk);
        let store = &self.tiers[tier];
        store.pool.write(off, data)?;
        store.pool.persist(off, data.len() as u64)?;
        let lo = chunk as u64 * self.chunk_bytes;
        self.tracker.record_write(lo, lo + data.len() as u64);
        Ok(())
    }

    /// Reads chunk `chunk` from its resident tier and records the read.
    pub fn read_chunk(&self, chunk: usize, out: &mut [u8]) -> crate::Result<()> {
        self.check_chunk(chunk, out.len())?;
        let tier = self.residency.tier_of(chunk)? as usize;
        self.tiers[tier]
            .pool
            .read(self.slot_off(tier, chunk), out)?;
        let lo = chunk as u64 * self.chunk_bytes;
        self.tracker.record_read(lo, lo + out.len() as u64);
        Ok(())
    }

    /// Content hash of chunk `chunk`'s committed bytes (tracker-silent, for
    /// conservation checks).
    pub fn chunk_hash(&self, chunk: usize) -> crate::Result<u64> {
        if chunk >= self.chunk_count {
            return Err(RuntimeError::Tiering("chunk index out of range"));
        }
        let mut buf = vec![0u8; self.chunk_payload(chunk) as usize];
        let tier = self.residency.tier_of(chunk)? as usize;
        self.tiers[tier]
            .pool
            .read(self.slot_off(tier, chunk), &mut buf)?;
        Ok(pmem::pool::fnv1a(&buf))
    }

    // ------------------------------------------------------------ migration

    /// Runs undo-log recovery on the metadata pool after a crash mid-commit
    /// (a reboot gets this for free from the pool reopen). Returns `true` if
    /// a stranded migration record was rolled back.
    pub fn recover(&self) -> crate::Result<bool> {
        Ok(self.residency.recover()?)
    }

    /// The migrator: moves every chunk whose assigned tier differs from its
    /// residency.
    ///
    /// Phase 1 copies each moved chunk into its destination slab through
    /// `exec` (one `flush` per chunk, fanned across the executor's lanes)
    /// and drains once per destination tier — the shadow copies are durable
    /// but invisible. Phase 2 flips each chunk's residency record inside a
    /// pool transaction. Chunks commit independently: a crash mid-pass
    /// leaves every chunk readable from exactly one tier (flipped chunks
    /// from their destination, the rest from their source), and undo-log
    /// recovery rolls back a flip torn mid-transaction.
    pub fn migrate_to(
        &mut self,
        assignment: &TierAssignment,
        exec: &impl ChunkExecutor,
    ) -> crate::Result<MigrationStats> {
        assignment.validate(self.data_len, self.chunk_bytes, &self.tier_shapes())?;
        let current = self.residency()?;
        let moves: Vec<(usize, usize, usize)> = assignment
            .tier_of
            .iter()
            .enumerate()
            .filter(|&(chunk, &to)| current[chunk] != to)
            .map(|(chunk, &to)| (chunk, current[chunk], to))
            .collect();
        let bytes_moved: u64 = moves
            .iter()
            .map(|&(chunk, _, _)| self.chunk_payload(chunk))
            .sum();

        // Phase 1: shadow copies, one flush per chunk, drain per dest tier.
        let region = &*self;
        exec.run_chunks(moves.len(), &|j| {
            let (chunk, from, to) = moves[j];
            let len = region.chunk_payload(chunk) as usize;
            let mut buf = vec![0u8; len];
            region.tiers[from]
                .pool
                .read(region.slot_off(from, chunk), &mut buf)?;
            let dst = region.slot_off(to, chunk);
            region.tiers[to].pool.write(dst, &buf)?;
            region.tiers[to].pool.flush(dst, len as u64)
        })?;
        let mut dests: Vec<usize> = moves.iter().map(|&(_, _, to)| to).collect();
        dests.sort_unstable();
        dests.dedup();
        for tier in dests {
            self.tiers[tier].pool.drain();
        }

        // Phase 2: per-chunk residency flips through the undo log.
        for &(chunk, from, to) in &moves {
            self.residency.commit_move(chunk, from as u32, to as u32)?;
        }
        Ok(MigrationStats {
            chunks_moved: moves.len(),
            bytes_moved,
        })
    }

    /// One full feedback-loop turn: snapshot heat, plan with `planner`,
    /// migrate the delta through `exec`, decay the tracker. Prefer
    /// [`CxlPmemRuntime::rebalance`], which supplies the engine, the worker
    /// CPUs and the pooled executor in one call.
    pub fn rebalance_with(
        &mut self,
        planner: &dyn TierPlanner,
        engine: &Engine,
        cpus: &[usize],
        exec: &impl ChunkExecutor,
    ) -> crate::Result<MigrationStats> {
        let heat = self.tracker.heat();
        let shapes = self.tier_shapes();
        let current = self.residency()?;
        let assignment = {
            let ctx = PlanContext {
                data_len: self.data_len,
                chunk_bytes: self.chunk_bytes,
                heat: &heat,
                tiers: &shapes,
                engine,
                cpus,
                current: Some(&current),
            };
            planner.plan(&ctx)?
        };
        let stats = self.migrate_to(&assignment, exec)?;
        self.tracker.decay();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeBuilder;
    use memsim::units::GIB;
    use pmem::{Crash, SerialExecutor};

    const KIB: u64 = 1024;

    fn runtime() -> CxlPmemRuntime {
        RuntimeBuilder::setup1().build()
    }

    fn two_tiers() -> Vec<(TierPolicy, u64)> {
        vec![
            (TierPolicy::LocalDram { socket: 0 }, 48 * KIB),
            (TierPolicy::CxlExpander, 64 * KIB),
        ]
    }

    fn image(chunk: usize, tag: u8) -> Vec<u8> {
        (0..4096usize)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(chunk as u8 ^ tag))
            .collect()
    }

    /// An 8-chunk region over [`two_tiers`] whose pools one [`Crash`] wraps,
    /// each chunk written with `image(chunk, tag)`.
    fn crashable_region(rt: &CxlPmemRuntime, layout: &str, tag: u8) -> (Crash, TieredRegion) {
        let (data, chunk) = (8 * 4 * KIB, 4 * KIB);
        let crash = Crash::new();
        let pools = TieredRegion::provision_pools(rt, &two_tiers(), layout, data, chunk)
            .unwrap()
            .into_iter()
            .map(|tier| {
                let backend = crash.wrap(tier.pool.backend());
                let pool = PmemPool::open_with_backend(backend, &tier.pool.layout()).unwrap();
                TierPool { pool, ..tier }
            })
            .collect();
        let region = TieredRegion::from_pools(pools, data, chunk).unwrap();
        for c in 0..8 {
            region.write_chunk(c, &image(c, tag)).unwrap();
        }
        (crash, region)
    }

    /// Every chunk reads back `image(chunk, tag)` from the one tier its
    /// residency names.
    fn assert_intact(region: &TieredRegion, tag: u8, case: &str) {
        let mut back = vec![0u8; 4096];
        for c in 0..8 {
            region.read_chunk(c, &mut back).unwrap();
            assert_eq!(back, image(c, tag), "{case}: chunk {c}");
        }
    }

    /// Whether a migration failed because the host died.
    fn died(result: &crate::Result<MigrationStats>) -> bool {
        match result {
            Ok(_) => false,
            Err(RuntimeError::Pmem(e)) if e.is_injected_crash() => true,
            Err(e) => panic!("not a crash: {e}"),
        }
    }

    #[test]
    fn tracker_counts_and_decays_per_chunk() {
        let tracker = AccessTracker::new(10 * KIB, 4 * KIB);
        assert_eq!(tracker.chunk_count(), 3);
        // A span crossing a chunk boundary splits proportionally.
        tracker.record_read(3 * KIB, 5 * KIB);
        tracker.record_write(9 * KIB, 20 * KIB); // clamped to total_bytes
        let heat = tracker.heat();
        assert_eq!(heat[0].read_bytes, KIB);
        assert_eq!(heat[1].read_bytes, KIB);
        assert_eq!(heat[2].write_bytes, KIB);
        assert_eq!(heat[1].write_bytes, 0);
        tracker.decay();
        let heat = tracker.heat();
        assert_eq!(heat[0].read_bytes, KIB / 2);
        assert_eq!(tracker.decay_epochs(), 1);
        // Empty and out-of-range spans are no-ops.
        tracker.record_read(5 * KIB, 5 * KIB);
        tracker.record_read(11 * KIB, 12 * KIB);
        assert_eq!(tracker.heat()[1].read_bytes, KIB / 2);
    }

    #[test]
    fn static_spill_matches_expansion_plan_fractions() {
        let rt = runtime();
        // 70 GiB over a 64 GiB DRAM budget + 16 GiB expander budget, 1 GiB
        // chunks: the memory-expansion spill lands 64/70 of the chunks on
        // DRAM and 6/70 on the expander.
        let data = 70 * GIB;
        let heat = vec![ChunkHeat::default(); 70];
        let tiers = [
            TierShape {
                node: 0,
                capacity_bytes: 64 * GIB,
            },
            TierShape {
                node: 2,
                capacity_bytes: 16 * GIB,
            },
        ];
        let ctx = PlanContext {
            data_len: data,
            chunk_bytes: GIB,
            heat: &heat,
            tiers: &tiers,
            engine: rt.engine(),
            cpus: &[0],
            current: None,
        };
        let plan = StaticSpillPolicy.plan(&ctx).unwrap();
        plan.validate(data, GIB, &tiers).unwrap();
        assert!((plan.fraction_on(0) - 64.0 / 70.0).abs() < 1e-9);
        assert!((plan.fraction_on(1) - 6.0 / 70.0).abs() < 1e-9);
        // Chunks fill in index order: the tail spills.
        assert!(plan.tier_of[..64].iter().all(|&t| t == 0));
        assert!(plan.tier_of[64..].iter().all(|&t| t == 1));
    }

    #[test]
    fn hot_greedy_promotes_the_hottest_chunks() {
        let rt = runtime();
        let mut heat = vec![ChunkHeat::default(); 8];
        // Chunks 5 and 7 are hot; the fast tier only holds 2 chunks.
        heat[5].read_bytes = 100;
        heat[7].write_bytes = 90;
        let tiers = [
            TierShape {
                node: 0,
                capacity_bytes: 2 * 4 * KIB,
            },
            TierShape {
                node: 2,
                capacity_bytes: 8 * 4 * KIB,
            },
        ];
        let ctx = PlanContext {
            data_len: 8 * 4 * KIB,
            chunk_bytes: 4 * KIB,
            heat: &heat,
            tiers: &tiers,
            engine: rt.engine(),
            cpus: &[0],
            current: None,
        };
        let plan = HotGreedyPolicy.plan(&ctx).unwrap();
        assert_eq!(plan.tier_of[5], 0);
        assert_eq!(plan.tier_of[7], 0);
        assert_eq!(plan.tier_of.iter().filter(|&&t| t == 0).count(), 2);
    }

    #[test]
    fn bandwidth_aware_matches_or_beats_the_other_policies() {
        let rt = runtime();
        let placement = rt
            .place(&numa::AffinityPolicy::SingleSocket(0), 10)
            .unwrap();
        let cpus = placement.cpus();
        for dataset_gib in [16u64, 48, 76] {
            let chunks = dataset_gib as usize;
            let mut heat = vec![ChunkHeat::default(); chunks];
            for (i, h) in heat.iter_mut().enumerate() {
                h.read_bytes = if i % 4 == 0 { 8 * GIB } else { GIB };
            }
            let tiers = [
                TierShape {
                    node: 0,
                    capacity_bytes: 64 * GIB,
                },
                TierShape {
                    node: 2,
                    capacity_bytes: 16 * GIB,
                },
            ];
            let ctx = PlanContext {
                data_len: dataset_gib * GIB,
                chunk_bytes: GIB,
                heat: &heat,
                tiers: &tiers,
                engine: rt.engine(),
                cpus,
                current: None,
            };
            let weights = ctx.effective_heat();
            let bw_of = |planner: &dyn TierPlanner| {
                let plan = planner.plan(&ctx).unwrap();
                plan.validate(ctx.data_len, ctx.chunk_bytes, &tiers)
                    .unwrap();
                let parts = plan.traffic_parts(&tiers, &weights);
                assignment_bandwidth(rt.engine(), cpus, &parts)
                    .unwrap()
                    .bandwidth_gbs
            };
            let fixed = bw_of(&StaticSpillPolicy);
            let hot = bw_of(&HotGreedyPolicy);
            let adaptive = bw_of(&BandwidthAwarePolicy);
            assert!(
                adaptive + 1e-9 >= fixed,
                "{dataset_gib} GiB: adaptive {adaptive} < static {fixed}"
            );
            assert!(
                adaptive + 1e-9 >= hot,
                "{dataset_gib} GiB: adaptive {adaptive} < hot {hot}"
            );
        }
    }

    #[test]
    fn capacity_shortfall_is_a_typed_error() {
        let rt = runtime();
        let heat = vec![ChunkHeat::default(); 4];
        let tiers = [TierShape {
            node: 0,
            capacity_bytes: 2 * 4 * KIB,
        }];
        let ctx = PlanContext {
            data_len: 4 * 4 * KIB,
            chunk_bytes: 4 * KIB,
            heat: &heat,
            tiers: &tiers,
            engine: rt.engine(),
            cpus: &[0],
            current: None,
        };
        assert!(matches!(
            StaticSpillPolicy.plan(&ctx).unwrap_err(),
            RuntimeError::Tiering(_)
        ));
        assert!(matches!(
            HotGreedyPolicy.plan(&ctx).unwrap_err(),
            RuntimeError::Tiering(_)
        ));
    }

    #[test]
    fn overflowing_region_shape_is_a_typed_error() {
        // 2^34 chunks of 1 GiB: the slab size does not fit in u64.
        let tiers = [
            (TierPolicy::LocalDram { socket: 0 }, GIB),
            (TierPolicy::CxlExpander, GIB),
        ];
        assert!(matches!(
            runtime().tiered_region(&tiers, "t", u64::MAX - 10, GIB),
            Err(RuntimeError::Pmem(PmemError::SizeOverflow))
        ));
    }

    #[test]
    fn region_round_trips_and_tracks_accesses() {
        let rt = runtime();
        let region = rt
            .tiered_region(&two_tiers(), "tier-rt", 16 * 4 * KIB, 4 * KIB)
            .unwrap();
        assert_eq!(region.chunk_count(), 16);
        assert_eq!(region.tier_mount(1), Some("/mnt/pmem2"));
        // Initial placement is static spill: 12 chunks fit the 48 KiB DRAM
        // budget, 4 spill to the expander.
        let residency = region.residency().unwrap();
        assert!(residency[..12].iter().all(|&t| t == 0));
        assert!(residency[12..].iter().all(|&t| t == 1));
        let data = image(3, 0);
        region.write_chunk(3, &data).unwrap();
        let mut back = vec![0u8; 4096];
        region.read_chunk(3, &mut back).unwrap();
        assert_eq!(back, data);
        let heat = region.tracker().heat();
        assert_eq!(heat[3].write_bytes, 4096);
        assert_eq!(heat[3].read_bytes, 4096);
        assert_eq!(heat[4].total(), 0);
        // Shape errors are typed.
        assert!(region.write_chunk(16, &data).is_err());
        assert!(region.read_chunk(0, &mut [0u8; 7]).is_err());
    }

    #[test]
    fn migration_preserves_content_and_residency_invariants() {
        let rt = runtime();
        let mut region = rt
            .tiered_region(&two_tiers(), "tier-mig", 16 * 4 * KIB, 4 * KIB)
            .unwrap();
        let hashes: Vec<u64> = (0..16)
            .map(|c| {
                region.write_chunk(c, &image(c, 7)).unwrap();
                region.chunk_hash(c).unwrap()
            })
            .collect();
        // Move the first four chunks to the expander and the spilled tail
        // back to DRAM (it fits once the head leaves).
        let mut tier_of = region.residency().unwrap();
        for t in tier_of.iter_mut().take(4) {
            *t = 1;
        }
        for t in tier_of.iter_mut().skip(12) {
            *t = 0;
        }
        let assignment = TierAssignment { tier_of };
        let stats = region.migrate_to(&assignment, &SerialExecutor).unwrap();
        assert_eq!(stats.chunks_moved, 8);
        assert_eq!(stats.bytes_moved, 8 * 4 * KIB);
        assert_eq!(region.residency().unwrap(), assignment.tier_of);
        for (c, &expected) in hashes.iter().enumerate() {
            assert_eq!(region.chunk_hash(c).unwrap(), expected, "chunk {c}");
        }
        // A second pass with the same assignment is a no-op.
        let stats = region.migrate_to(&assignment, &SerialExecutor).unwrap();
        assert!(stats.is_noop());
        // Over-budget assignments are refused before any copy.
        let all_local = TierAssignment {
            tier_of: vec![0; 16],
        };
        assert!(matches!(
            region.migrate_to(&all_local, &SerialExecutor).unwrap_err(),
            RuntimeError::Tiering(_)
        ));
    }

    #[test]
    fn rebalance_follows_the_observed_heat() {
        let rt = runtime();
        let mut region = rt
            .tiered_region(&two_tiers(), "tier-loop", 16 * 4 * KIB, 4 * KIB)
            .unwrap();
        for c in 0..16 {
            region.write_chunk(c, &image(c, 1)).unwrap();
        }
        // Hammer the four *spilled* chunks so they are clearly the hot set.
        let mut buf = vec![0u8; 4096];
        for _ in 0..64 {
            for c in 12..16 {
                region.read_chunk(c, &mut buf).unwrap();
            }
        }
        let workers = rt
            .worker_pool_for(&numa::AffinityPolicy::close(), 4)
            .unwrap();
        let stats = rt
            .rebalance(&mut region, &HotGreedyPolicy, &workers)
            .unwrap();
        assert!(stats.chunks_moved > 0);
        let residency = region.residency().unwrap();
        for (c, &tier) in residency.iter().enumerate().skip(12) {
            assert_eq!(tier, 0, "hot chunk {c} promoted to DRAM");
        }
        assert_eq!(region.tracker().decay_epochs(), 1);
        // Content intact across the migration.
        for c in 0..16 {
            let mut back = vec![0u8; 4096];
            region.read_chunk(c, &mut back).unwrap();
            assert_eq!(back, image(c, 1), "chunk {c}");
        }
    }

    #[test]
    fn crash_during_copy_leaves_residency_and_content_untouched() {
        let rt = runtime();
        // Two moves: one read of the residency map, then a read, a write and
        // a flush per shadow copy, then a residency flip per move.
        let copy_calls: u64 = 1 + 2 * 3;
        let positions = Crash::sweep(|k, torn| {
            let case = format!("call {k}/{torn}");
            let (crash, mut region) = crashable_region(&rt, "tier-crash-copy", 3);
            let before = region.residency().unwrap();
            let mut tier_of = before.clone();
            tier_of[0] = 1;
            tier_of[1] = 1;
            crash.arm(k, torn);
            let result = region.migrate_to(&TierAssignment { tier_of }, &SerialExecutor);
            crash.revive();
            if k < copy_calls {
                assert!(died(&result), "{case}");
                assert_eq!(region.residency().unwrap(), before, "{case}");
            }
            // Whatever flipped, every chunk reads from exactly one tier.
            assert_intact(&region, 3, &case);
            died(&result)
        });
        println!("migration copy sweep: {positions} crash positions");
        // Each flip is ten calls: a one-range transaction that reads its
        // entry through the transaction.
        assert_eq!(positions as u64, 2 * (copy_calls + 2 * 10 + 1));
    }

    #[test]
    fn commit_crash_on_a_noop_migration_fires_without_arming_the_pool() {
        let rt = runtime();
        let (crash, mut region) = crashable_region(&rt, "tier-crash-noop", 0);
        let current = region.assignment().unwrap();
        // The plan matches residency: no moves, so the pass only reads the
        // residency map, in one call, and a crash there still fires.
        crash.arm(0, false);
        assert!(died(&region.migrate_to(&current, &SerialExecutor)));
        crash.revive();
        let mut tier_of = current.tier_of.clone();
        tier_of[0] = 1;
        let stats = region
            .migrate_to(&TierAssignment { tier_of }, &SerialExecutor)
            .unwrap();
        assert_eq!(stats.chunks_moved, 1, "no leaked crash point");
        // A crash armed past that read is never reached: the no-move pass
        // commits cleanly.
        let current = region.assignment().unwrap();
        crash.arm(1, false);
        assert!(region
            .migrate_to(&current, &SerialExecutor)
            .unwrap()
            .is_noop());
        crash.revive();
        let mut back = current.tier_of.clone();
        back[0] = 0;
        let stats = region
            .migrate_to(&TierAssignment { tier_of: back }, &SerialExecutor)
            .unwrap();
        assert_eq!(stats.chunks_moved, 1);
    }

    #[test]
    fn crash_during_commit_rolls_the_flip_back() {
        let rt = runtime();
        let (mut stranded, mut rolled_back) = (0, 0);
        let positions = Crash::sweep(|k, torn| {
            let case = format!("call {k}/{torn}");
            let (crash, mut region) = crashable_region(&rt, "tier-crash-commit", 9);
            let before = region.residency().unwrap();
            let mut tier_of = before.clone();
            tier_of[2] = 1;
            let assignment = TierAssignment { tier_of };
            crash.arm(k, torn);
            let crashed = died(&region.migrate_to(&assignment, &SerialExecutor));
            crash.revive();
            // A stranded record rolls back: chunk 2 still lives on tier 0.
            if region.residency_map().pool().tx_log_active().unwrap() {
                stranded += 1;
                rolled_back += usize::from(region.recover().unwrap());
                assert_eq!(region.residency().unwrap(), before, "{case}");
            }
            assert_intact(&region, 9, &case);
            // The region stays usable: the same migration now commits, or
            // finds it committed already.
            let stats = region.migrate_to(&assignment, &SerialExecutor).unwrap();
            assert!(stats.chunks_moved <= 1, "{case}");
            assert_eq!(region.residency().unwrap(), assignment.tier_of, "{case}");
            assert_intact(&region, 9, &case);
            crashed
        });
        println!("migration commit sweep: {positions} crash positions, {stranded} stranded");
        // One residency read, one shadow copy, one flip.
        assert_eq!(positions, 2 * (1 + 3 + 10 + 1));
        // A log header torn in before it counted any entry has nothing to
        // roll back.
        assert_eq!((stranded, rolled_back), (8, 7));
    }
}
