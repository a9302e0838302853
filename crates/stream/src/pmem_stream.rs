//! STREAM-PMem: the three arrays live in a persistent pool (App-Direct).
//!
//! This mirrors Listing 2 of the paper: the pool is created (or opened), the
//! three arrays are allocated from it, and the rest of the benchmark proceeds
//! unchanged. The arrays can live on any pool — including one provisioned on
//! the CXL expander by `cxl-pmem` — which is exactly the programming-model
//! portability argument the paper makes.
//!
//! The execution core is block-staged. Each worker streams its share of the
//! arrays through blocks of 4096 elements: it loads the block of each array
//! its kernel *reads* into a small per-worker staging buffer, computes on the
//! staged little-endian bytes (`Kernel::apply_le`), and stores the block of
//! the one array the kernel *writes*. The staging buffers are a few tens of
//! KiB and stay in the worker's cache, so the only memory traffic is the
//! device's own — the same bytes STREAM counts — and no invocation
//! allocates. Workers share their chunks in pairs, claiming blocks from
//! opposite ends, so one slowed worker does not hold up the invocation
//! (`claim_blocks`). Each worker then issues one `flush` for the contiguous
//! range it wrote, and a single `drain` fence per kernel invocation makes
//! every range durable: the persist-granularity batching that keeps the PMDK
//! overhead at the paper's 10–15 % instead of a per-range fence storm.
//!
//! The staging buffers live **with the stream**, matching the persistent
//! [`PinnedPool`] worker lifecycle: the resident workers re-claim the same
//! [`PerWorker`] slots on every `run` (and every epoch within a run) instead
//! of getting freshly allocated staging buffers per call.

use crate::exec::{AccessSink, PerWorker};
use crate::kernels::{Kernel, StreamArray, StreamConfig};
use crate::report::{BandwidthReport, KernelMeasurement};
use numa::{chunk_for, PinnedPool, WorkerCtx};
use pmem::{PersistentArray, PmemPool, Result as PmemResult, TypedOid};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Elements per staged block: 32 KiB of each array, so a worker's three
/// staging buffers fit its L2 cache while each block still moves through
/// the backend in one call.
const STAGE_BLOCK: usize = 4096;

/// Stages worker `ctx`'s share of `elements` through `stage`, one call per
/// block `[at, end)` of at most [`STAGE_BLOCK`] elements, and returns the
/// contiguous range the worker covered.
///
/// Workers run in pairs (0 and 1, 2 and 3, ...) over the union of the pair's
/// two static chunks: the even worker claims blocks from the front, the odd
/// one from the back, through the pair's shared `claimed` counter (zero at
/// the start of the invocation). A worker whose CPU is slowed — a busy
/// hyper-thread sibling, a preempted vCPU — leaves its unclaimed blocks to
/// its partner instead of holding up the whole invocation, so the invocation
/// takes the pair's mean time rather than the slower worker's. Each worker's
/// blocks stay contiguous, so it still flushes once. Each worker's first
/// block is its own, so every worker of a pair writes; a pair whose union
/// holds fewer than two blocks, and the last worker of an odd count, run
/// their static chunk.
fn claim_blocks(
    ctx: &WorkerCtx,
    elements: usize,
    claimed: &AtomicUsize,
    mut stage: impl FnMut(usize, usize) -> PmemResult<()>,
) -> PmemResult<(usize, usize)> {
    let even = ctx.thread & !1;
    let (span_lo, _) = chunk_for(even, ctx.nthreads, elements);
    // An unpaired worker's span is its own chunk.
    let (_, span_hi) = chunk_for((even + 1).min(ctx.nthreads - 1), ctx.nthreads, elements);
    let blocks = (span_hi - span_lo).div_ceil(STAGE_BLOCK);
    if even + 1 >= ctx.nthreads || blocks < 2 {
        let (lo, hi) = ctx.chunk(elements);
        let mut at = lo;
        while at < hi {
            let end = hi.min(at + STAGE_BLOCK);
            stage(at, end)?;
            at = end;
        }
        return Ok((lo, hi));
    }
    let block = |i: usize| {
        (
            span_lo + i * STAGE_BLOCK,
            span_hi.min(span_lo + (i + 1) * STAGE_BLOCK),
        )
    };
    let from_back = ctx.thread % 2 == 1;
    // The first block of each end is pre-claimed: counter values 0 and 1.
    let mut taken = 0;
    while taken == 0 || claimed.fetch_add(1, Ordering::Relaxed) + 2 < blocks {
        let i = if from_back { blocks - 1 - taken } else { taken };
        let (at, end) = block(i);
        stage(at, end)?;
        taken += 1;
    }
    Ok(if from_back {
        (block(blocks - taken).0, span_hi)
    } else {
        (span_lo, block(taken - 1).1)
    })
}

/// One worker's staging buffers: one block of each array's stored bytes,
/// reused across every kernel invocation of every run of the stream.
struct Scratch {
    a: Vec<u8>,
    b: Vec<u8>,
    c: Vec<u8>,
}

impl Scratch {
    fn new() -> Self {
        let block = || vec![0u8; STAGE_BLOCK * 8];
        Scratch {
            a: block(),
            b: block(),
            c: block(),
        }
    }
}

/// STREAM-PMem over three persistent arrays in a pool.
pub struct PmemStream<'p> {
    config: StreamConfig,
    pool: &'p PmemPool,
    a: PersistentArray<'p, f64>,
    b: PersistentArray<'p, f64>,
    c: PersistentArray<'p, f64>,
    /// Staging buffers owned for the stream's lifetime; slot `t` is re-claimed
    /// by resident worker `t` on every epoch. Re-sized lazily when a run uses
    /// a pool with a different worker count.
    scratch: PerWorker<Scratch>,
    /// Optional access-sampling sink (the tiering engine's heat counters).
    tracker: Option<Arc<dyn AccessSink>>,
}

/// The pool-root record STREAM-PMem stores so a restarted run can reattach to
/// its arrays (the `POBJ_LAYOUT`/root-object pattern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRoot {
    /// Array `a`.
    pub a: TypedOid<f64>,
    /// Array `b`.
    pub b: TypedOid<f64>,
    /// Array `c`.
    pub c: TypedOid<f64>,
}

impl<'p> PmemStream<'p> {
    /// Allocates the three arrays in `pool` and initialises them with the
    /// STREAM initial values (the `initiate()` function of Listing 2).
    pub fn initiate(pool: &'p PmemPool, config: StreamConfig) -> PmemResult<Self> {
        let a = PersistentArray::allocate(pool, config.elements as u64)?;
        let b = PersistentArray::allocate(pool, config.elements as u64)?;
        let c = PersistentArray::allocate(pool, config.elements as u64)?;
        a.fill(2.0)?;
        b.fill(2.0)?;
        c.fill(0.0)?;
        a.persist_all()?;
        b.persist_all()?;
        c.persist_all()?;
        Ok(PmemStream {
            config,
            pool,
            a,
            b,
            c,
            scratch: PerWorker::new(0, |_| Scratch::new()),
            tracker: None,
        })
    }

    /// Reattaches to arrays allocated by a previous run.
    pub fn reattach(pool: &'p PmemPool, config: StreamConfig, root: StreamRoot) -> Self {
        PmemStream {
            config,
            pool,
            a: PersistentArray::from_oid(pool, root.a),
            b: PersistentArray::from_oid(pool, root.b),
            c: PersistentArray::from_oid(pool, root.c),
            scratch: PerWorker::new(0, |_| Scratch::new()),
            tracker: None,
        }
    }

    /// Attaches (or detaches) an access-sampling sink — every worker's staged
    /// window is recorded with the same byte accounting as the in-place path.
    pub fn set_tracker(&mut self, tracker: Option<Arc<dyn AccessSink>>) {
        self.tracker = tracker;
    }

    /// The oids of the three arrays, to be stored via the pool root object.
    pub fn root(&self) -> StreamRoot {
        StreamRoot {
            a: self.a.typed_oid(),
            b: self.b.typed_oid(),
            c: self.c.typed_oid(),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// One kernel invocation: each worker streams its share block by block
    /// (load inputs, compute, store) and flushes the range it wrote once; one
    /// drain fence covers the whole invocation.
    fn run_kernel_once(
        &self,
        kernel: Kernel,
        pool: &PinnedPool,
        scratch: &PerWorker<Scratch>,
    ) -> PmemResult<f64> {
        let scalar = self.config.scalar;
        let elements = self.config.elements;
        let (reads_a, reads_b, reads_c) = kernel.reads();
        let output = match kernel.output() {
            StreamArray::A => &self.a,
            StreamArray::B => &self.b,
            StreamArray::C => &self.c,
        };
        // One claim counter per pair of workers (see `claim_blocks`).
        let claims: Vec<AtomicUsize> = (0..pool.len().div_ceil(2))
            .map(|_| AtomicUsize::new(0))
            .collect();
        let start = Instant::now();
        let results: Vec<PmemResult<()>> = pool.run(|ctx: WorkerCtx| {
            scratch.with(ctx.thread, |s| {
                let stage = |at: usize, end: usize| -> PmemResult<()> {
                    let bytes = (end - at) * 8;
                    let (a, b, c) = (&mut s.a[..bytes], &mut s.b[..bytes], &mut s.c[..bytes]);
                    // Stage only the inputs this kernel reads; the unread
                    // buffers keep stale contents that the kernel never
                    // looks at.
                    let index = at as u64;
                    if reads_a {
                        self.a.load_le_bytes(index, a)?;
                    }
                    if reads_b {
                        self.b.load_le_bytes(index, b)?;
                    }
                    if reads_c {
                        self.c.load_le_bytes(index, c)?;
                    }
                    kernel.apply_le(a, b, c, scalar);
                    let staged = match kernel.output() {
                        StreamArray::A => a,
                        StreamArray::B => b,
                        StreamArray::C => c,
                    };
                    output.store_le_bytes(index, staged)
                };
                let (lo, hi) = claim_blocks(&ctx, elements, &claims[ctx.thread / 2], stage)?;
                if lo == hi {
                    return Ok(());
                }
                // Flush (no fence) the worker's whole written range; the
                // caller issues a single drain for all chunks.
                output.flush(lo as u64, (hi - lo) as u64)?;
                if let Some(sink) = &self.tracker {
                    crate::exec::record_kernel_span(sink.as_ref(), kernel, lo, hi);
                }
                Ok(())
            })
        });
        for result in results {
            result?;
        }
        // One store fence covers every worker's flushed chunk (`pmem_drain`).
        self.pool.drain();
        Ok(start.elapsed().as_secs_f64())
    }

    /// Runs the full STREAM-PMem sequence and returns per-kernel best-of-N
    /// bandwidths.
    ///
    /// The per-worker staging buffers are owned by the stream and persist
    /// across calls: a second `run` on the same pool stages through the exact
    /// same buffers, claimed epoch-by-epoch by the pool's resident workers.
    pub fn run(&mut self, pool: &PinnedPool) -> PmemResult<BandwidthReport> {
        if self.scratch.len() != pool.len() {
            self.scratch = PerWorker::new(pool.len(), |_| Scratch::new());
        }
        let mut report = BandwidthReport::new(pool.len());
        for _ in 0..self.config.ntimes {
            for kernel in Kernel::ALL {
                let seconds = self.run_kernel_once(kernel, pool, &self.scratch)?;
                report.record(KernelMeasurement {
                    kernel,
                    threads: pool.len(),
                    seconds,
                    bytes: self.config.bytes_per_invocation(kernel),
                });
            }
        }
        Ok(report)
    }

    /// Number of per-worker scratch slots currently provisioned (0 before the
    /// first run; thereafter the worker count of the last pool used).
    pub fn scratch_slots(&self) -> usize {
        self.scratch.len()
    }

    /// Validates the persistent arrays against the analytic expected values;
    /// returns the maximum relative error.
    pub fn validate(&self) -> PmemResult<f64> {
        let (ea, eb, ec) = self.config.expected_values();
        let mut max_err = 0.0f64;
        let mut check = |expected: f64, array: &PersistentArray<'p, f64>| -> PmemResult<()> {
            const CHUNK: usize = 8192;
            let mut buf = vec![0.0f64; CHUNK];
            let mut index = 0u64;
            while index < array.len() {
                let n = CHUNK.min((array.len() - index) as usize);
                array.load_slice(index, &mut buf[..n])?;
                for &v in &buf[..n] {
                    let err = ((v - expected) / expected).abs();
                    if err > max_err {
                        max_err = err;
                    }
                }
                index += n as u64;
            }
            Ok(())
        };
        check(ea, &self.a)?;
        check(eb, &self.b)?;
        check(ec, &self.c)?;
        Ok(max_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sz;
    use memsim::machines::sapphire_rapids_cxl_machine;
    use numa::AffinityPolicy;
    use pmem::PmemPool;

    fn worker_pool(threads: usize) -> PinnedPool {
        let machine = sapphire_rapids_cxl_machine();
        let topo = machine.topology();
        let placement = AffinityPolicy::close().place(topo, threads).unwrap();
        PinnedPool::new(topo, &placement)
    }

    fn pmem_pool(bytes: u64) -> PmemPool {
        PmemPool::create_volatile("stream-pmem", bytes).unwrap()
    }

    #[test]
    fn initiate_run_validate() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(20_000));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let report = stream.run(&worker_pool(4)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
        assert_eq!(report.measurements().len(), 4 * config.ntimes);
        // Persist instrumentation proves the App-Direct path flushed data.
        assert!(pool.persist_stats().bytes_persisted > 0);
    }

    #[test]
    fn flush_batching_is_chunk_granular() {
        // Regression test for the flush-batched persist path: each kernel
        // invocation must issue at most one flush per worker (only workers
        // with non-empty chunks flush) and exactly one drain fence.
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(10_007));
        let threads = 6;
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let before = pool.persist_stats();
        stream.run(&worker_pool(threads)).unwrap();
        let after = pool.persist_stats();
        let invocations = (config.ntimes * Kernel::ALL.len()) as u64;
        let flushes = after.flushes - before.flushes;
        let drains = after.drains - before.drains;
        assert!(
            flushes <= invocations * threads as u64,
            "{flushes} flushes for {invocations} invocations × {threads} workers"
        );
        assert_eq!(
            drains, invocations,
            "exactly one drain fence per kernel invocation"
        );
        // Every written byte still reaches the backend: one chunk flush per
        // worker covers the worker's whole written range.
        let written_per_invocation = (config.elements * 8) as u64;
        assert_eq!(
            after.bytes_persisted - before.bytes_persisted,
            invocations * written_per_invocation
        );
    }

    #[test]
    fn more_workers_than_elements_flushes_only_nonempty_chunks() {
        let pool = pmem_pool(4 * 1024 * 1024);
        let config = StreamConfig::small(3);
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        let before = pool.persist_stats();
        stream.run(&worker_pool(8)).unwrap();
        let after = pool.persist_stats();
        let invocations = (config.ntimes * Kernel::ALL.len()) as u64;
        // Only the 3 workers with non-empty chunks flush.
        assert_eq!(after.flushes - before.flushes, invocations * 3);
        assert!(stream.validate().unwrap() < 1e-12);
    }

    #[test]
    fn scratch_is_resident_across_runs_and_tracks_pool_size() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(4_096));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        assert_eq!(stream.scratch_slots(), 0, "no scratch before the first run");
        stream.run(&worker_pool(4)).unwrap();
        assert_eq!(stream.scratch_slots(), 4);
        // A second run on the same worker count keeps the same slots (the
        // resident workers re-claim them); a different count re-provisions.
        stream.run(&worker_pool(4)).unwrap();
        assert_eq!(stream.scratch_slots(), 4);
        stream.run(&worker_pool(2)).unwrap();
        assert_eq!(stream.scratch_slots(), 2);
        // Three back-to-back runs advance the arrays by 3 × ntimes iterations;
        // validate through a view whose config expects exactly that.
        let accumulated = StreamConfig {
            ntimes: config.ntimes * 3,
            ..config
        };
        let view = PmemStream::reattach(&pool, accumulated, stream.root());
        assert!(view.validate().unwrap() < 1e-12);
    }

    #[test]
    fn arrays_survive_reattach() {
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(sz(5_000));
        let root = {
            let mut stream = PmemStream::initiate(&pool, config).unwrap();
            stream.run(&worker_pool(2)).unwrap();
            stream.root()
        };
        let reattached = PmemStream::reattach(&pool, config, root);
        assert!(reattached.validate().unwrap() < 1e-12);
    }

    #[test]
    fn attached_tracker_samples_the_staged_hot_path() {
        use std::sync::Arc;

        let pool = pmem_pool(8 * 1024 * 1024);
        let elements = sz(8_192);
        let config = StreamConfig::small(elements);
        let tracker = Arc::new(cxl_pmem::AccessTracker::new(elements as u64 * 8, 2048));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.set_tracker(Some(tracker.clone()));
        stream.run(&worker_pool(4)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
        let heat = tracker.heat();
        let span = elements as u64 * 8;
        let ntimes = config.ntimes as u64;
        assert_eq!(
            heat.iter().map(|h| h.read_bytes).sum::<u64>(),
            ntimes * span * 6,
            "Copy+Scale read once, Add+Triad read twice"
        );
        assert_eq!(
            heat.iter().map(|h| h.write_bytes).sum::<u64>(),
            ntimes * span * 4
        );
        assert!(heat.iter().all(|h| h.total() > 0));
    }

    /// Worker `thread` of `nthreads`, to drive `claim_blocks` without a pool.
    fn worker(thread: usize, nthreads: usize) -> WorkerCtx {
        WorkerCtx {
            thread,
            cpu: thread,
            socket: 0,
            node: 0,
            nthreads,
        }
    }

    #[test]
    fn a_paired_worker_takes_the_blocks_its_partner_has_not_claimed() {
        // Six blocks, the last one ragged. The back worker runs first, as if
        // the front one were stalled: it takes every block but the front
        // worker's own first one.
        let elements = 5 * STAGE_BLOCK + 100;
        let claimed = AtomicUsize::new(0);
        let mut covered = vec![0u8; elements];
        let mut run = |thread| {
            let mut calls = 0;
            let range = claim_blocks(&worker(thread, 2), elements, &claimed, |at, end| {
                assert!(at < end && end - at <= STAGE_BLOCK);
                covered[at..end].iter_mut().for_each(|c| *c += 1);
                calls += 1;
                Ok(())
            })
            .unwrap();
            (range, calls)
        };
        assert_eq!(run(1), ((STAGE_BLOCK, elements), 5));
        assert_eq!(run(0), ((0, STAGE_BLOCK), 1));
        assert!(
            covered.iter().all(|&c| c == 1),
            "every element exactly once"
        );
    }

    #[test]
    fn small_pairs_and_an_odd_last_worker_run_their_static_chunks() {
        let claimed = AtomicUsize::new(0);
        // One block between the pair: each keeps its own half.
        let elements = STAGE_BLOCK;
        for thread in 0..2 {
            let ctx = worker(thread, 2);
            let range = claim_blocks(&ctx, elements, &claimed, |_, _| Ok(())).unwrap();
            assert_eq!(range, ctx.chunk(elements));
        }
        // The third of three workers has no partner.
        let ctx = worker(2, 3);
        let elements = 9 * STAGE_BLOCK;
        let range = claim_blocks(&ctx, elements, &claimed, |_, _| Ok(())).unwrap();
        assert_eq!(range, ctx.chunk(elements));
        assert_eq!(
            claimed.load(Ordering::Relaxed),
            0,
            "static chunks claim nothing"
        );
    }

    #[test]
    // Several 4096-element blocks per worker are too slow to interpret; the
    // staging loop is safe code, and Miri targets the `unsafe` in `exec`.
    #[cfg_attr(miri, ignore)]
    fn chunks_spanning_several_stage_blocks_match_the_in_place_stream() {
        // Worker chunks of several blocks plus a ragged tail block each.
        let elements = 5 * STAGE_BLOCK + 123;
        let pool = pmem_pool(8 * 1024 * 1024);
        let config = StreamConfig::small(elements);
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.run(&worker_pool(3)).unwrap();
        let mut volatile = crate::VolatileStream::new(config);
        volatile.run(&worker_pool(3));
        let (a, b, c) = volatile.arrays();
        let root = stream.root();
        for (oid, expected) in [(root.a, a), (root.b, b), (root.c, c)] {
            let staged = PersistentArray::from_oid(&pool, oid).to_vec().unwrap();
            assert!(
                staged
                    .iter()
                    .zip(expected)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "App-Direct and in-place results must agree bit for bit"
            );
        }
    }

    #[test]
    // Several 4096-element blocks per worker are too slow to interpret; the
    // staging loop is safe code, and Miri targets the `unsafe` in `exec`.
    #[cfg_attr(miri, ignore)]
    fn staging_moves_each_block_through_the_backend_once() {
        use pmem::{PoolBackend, VolatileBackend};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts data calls and the largest transfer.
        struct Counting {
            inner: VolatileBackend,
            calls: AtomicU64,
            largest: AtomicU64,
        }
        impl Counting {
            fn note(&self, len: usize) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.largest.fetch_max(len as u64, Ordering::Relaxed);
            }
        }
        impl PoolBackend for Counting {
            fn capacity(&self) -> u64 {
                self.inner.capacity()
            }
            fn read_at(&self, offset: u64, buf: &mut [u8]) -> PmemResult<()> {
                self.note(buf.len());
                self.inner.read_at(offset, buf)
            }
            fn write_at(&self, offset: u64, data: &[u8]) -> PmemResult<()> {
                self.note(data.len());
                self.inner.write_at(offset, data)
            }
            fn persist(&self, offset: u64, len: u64) -> PmemResult<()> {
                self.inner.persist(offset, len)
            }
            fn is_persistent(&self) -> bool {
                true
            }
            fn describe(&self) -> String {
                "counting".into()
            }
        }

        // Two workers, two blocks each.
        let elements = 4 * STAGE_BLOCK;
        let backend = Arc::new(Counting {
            inner: VolatileBackend::new_persistent(8 * 1024 * 1024),
            calls: AtomicU64::new(0),
            largest: AtomicU64::new(0),
        });
        let pool = PmemPool::create_with_backend(backend.clone(), "stream-pmem").unwrap();
        let config = StreamConfig {
            ntimes: 1,
            ..StreamConfig::small(elements)
        };
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        backend.calls.store(0, Ordering::Relaxed);
        backend.largest.store(0, Ordering::Relaxed);
        stream.run(&worker_pool(2)).unwrap();
        // Per block: Copy and Scale read one array, Add and Triad two; every
        // kernel writes one.
        let blocks = 4;
        assert_eq!(
            backend.calls.load(Ordering::Relaxed),
            blocks * (2 + 2 + 3 + 3)
        );
        assert_eq!(
            backend.largest.load(Ordering::Relaxed),
            STAGE_BLOCK as u64 * 8
        );
        assert!(stream.validate().unwrap() < 1e-12);
    }

    #[test]
    fn pool_too_small_for_arrays_errors() {
        let pool = pmem_pool(512 * 1024);
        let config = StreamConfig::small(1_000_000);
        assert!(PmemStream::initiate(&pool, config).is_err());
    }

    #[test]
    fn single_thread_matches_expected_values_exactly() {
        let pool = pmem_pool(4 * 1024 * 1024);
        let config = StreamConfig::small(sz(1_000));
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.run(&worker_pool(1)).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
    }

    #[test]
    fn awkward_partition_sizes_validate() {
        for (elements, threads) in [(sz(9973), 7), (11, 8), (1, 2)] {
            let pool = pmem_pool(8 * 1024 * 1024);
            let config = StreamConfig::small(elements);
            let mut stream = PmemStream::initiate(&pool, config).unwrap();
            stream.run(&worker_pool(threads)).unwrap();
            assert!(
                stream.validate().unwrap() < 1e-12,
                "{elements} elements on {threads} threads"
            );
        }
    }
}
