//! Zero-copy parallel execution primitives for the STREAM hot path.
//!
//! The original execution core copied every worker's chunk of `a`, `b`, `c`
//! out of a lock, ran the kernel on the copies, and copied the result back —
//! tripling the memory traffic of a benchmark whose whole point is to measure
//! memory traffic, and serialising workers on the lock. This module replaces
//! that with true in-place parallel execution: each pinned worker receives a
//! disjoint `&mut [f64]` window of the three arrays and the kernel runs
//! directly on the underlying storage.
//!
//! # Safety argument
//!
//! Handing several threads simultaneous `&mut` access into one allocation is
//! only sound if no two of those borrows can overlap and no other access to
//! the buffers can happen while they are live. Both guarantees are enforced
//! by construction, not by caller discipline:
//!
//! 1. **Exclusivity over the whole arrays** — [`ChunkedArrays::new`] takes
//!    `&'a mut [f64]` for all three arrays, so for the lifetime `'a` the
//!    borrow checker proves nothing else can read or write them. The struct
//!    only stores raw pointers derived from those unique borrows.
//! 2. **Disjointness between workers** — chunk boundaries come from
//!    [`numa::chunk_for`], whose partition property (every index in
//!    `[0, len)` belongs to exactly one `(thread, nthreads)` chunk, chunks
//!    are contiguous and non-overlapping) is property-tested in the `numa`
//!    crate. Two different thread indices therefore can never alias.
//! 3. **At-most-once materialisation per chunk** — the same thread index
//!    claimed twice *would* alias, so [`ChunkedArrays::chunk`] burns a
//!    one-shot atomic claim flag per index: the second claim of a chunk
//!    panics before any reference is created. A `ChunkedArrays` is built per
//!    kernel invocation, so the one-shot flags mirror the one-shot use.
//!
//! Under those three invariants the `slice::from_raw_parts_mut` calls below
//! produce references that are unique for their lifetime, which is exactly
//! the soundness requirement. The rest of the crate stays `deny(unsafe_code)`;
//! only this module may use `unsafe`, and only inside these two abstractions.
//! The invariants are independent of *which* threads execute the chunks: the
//! persistent [`PinnedPool`] dispatches each invocation to its resident
//! workers over an epoch barrier, and the barrier (the submitter does not
//! return until every worker checked in) is what keeps the `ChunkedArrays`
//! borrow alive for exactly the window the workers use it. This module and
//! the pool's epoch protocol are exercised under Miri in CI.
//!
//! [`PerWorker`] applies the same claim-flag discipline to reusable
//! per-worker scratch state (the STREAM-PMem staging buffers), but with
//! releasable claims since scratch is reused across kernel invocations.

#![allow(unsafe_code)]

use crate::kernels::Kernel;
use numa::{chunk_for, PinnedPool, WorkerCtx};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// Observer of per-worker access windows on the STREAM hot path — the
/// sampling hook the adaptive tiering engine's `AccessTracker` plugs into.
///
/// Byte spans are element offsets scaled to bytes (`element × 8` for the
/// `f64` STREAM arrays): the three arrays share one logical index space, so
/// a tiering chunk covers the same element range of `a`, `b` and `c`.
/// Implementations must be cheap — they run inside every worker's kernel
/// window, and `BENCH_tiering.json` holds the whole hook under a 5 % hot-path
/// overhead budget in CI.
pub trait AccessSink: Send + Sync {
    /// Records a read of the byte span `[lo, hi)`.
    fn record_read(&self, lo: u64, hi: u64);
    /// Records a write of the byte span `[lo, hi)`.
    fn record_write(&self, lo: u64, hi: u64);
}

impl AccessSink for cxl_pmem::AccessTracker {
    fn record_read(&self, lo: u64, hi: u64) {
        cxl_pmem::AccessTracker::record_read(self, lo, hi);
    }

    fn record_write(&self, lo: u64, hi: u64) {
        cxl_pmem::AccessTracker::record_write(self, lo, hi);
    }
}

/// Records one `kernel` invocation over the element window `[lo, hi)` into
/// `sink` using STREAM's byte-accounting rules — one read per input array the
/// kernel consumes, one write for its output array. The single definition
/// both hot paths share: the in-place engine samples through
/// [`ArrayChunk::record_access`], the staged STREAM-PMem path calls it with
/// its worker window directly, so volatile and pmem heat stay comparable.
pub fn record_kernel_span(sink: &dyn AccessSink, kernel: Kernel, lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let byte_lo = lo as u64 * 8;
    let byte_hi = hi as u64 * 8;
    let (reads_a, reads_b, reads_c) = kernel.reads();
    for reads in [reads_a, reads_b, reads_c] {
        if reads {
            sink.record_read(byte_lo, byte_hi);
        }
    }
    sink.record_write(byte_lo, byte_hi);
}

/// Three equal-length `f64` arrays partitioned into per-worker windows.
///
/// Built once per kernel invocation from exclusive borrows of the STREAM
/// arrays; workers call [`chunk`](Self::chunk) with their thread index to
/// receive their disjoint in-place window.
pub struct ChunkedArrays<'a> {
    a: *mut f64,
    b: *mut f64,
    c: *mut f64,
    len: usize,
    nthreads: usize,
    claimed: Vec<AtomicBool>,
    _arrays: PhantomData<&'a mut [f64]>,
}

// SAFETY: the raw pointers originate from `&mut [f64]` borrows held for 'a,
// and `chunk` only ever hands out disjoint, claim-guarded windows (see the
// module-level safety argument), so sharing the handle across threads is
// sound.
unsafe impl Send for ChunkedArrays<'_> {}
unsafe impl Sync for ChunkedArrays<'_> {}

/// One worker's in-place window over the three arrays.
pub struct ArrayChunk<'g> {
    /// Window of array `a`.
    pub a: &'g mut [f64],
    /// Window of array `b`.
    pub b: &'g mut [f64],
    /// Window of array `c`.
    pub c: &'g mut [f64],
    /// First element index (inclusive) of the window in the full arrays.
    pub lo: usize,
    /// Last element index (exclusive) of the window in the full arrays.
    pub hi: usize,
}

impl ArrayChunk<'_> {
    /// Number of elements in the window.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the window is empty (more workers than elements).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Samples this window's traffic for one `kernel` invocation into `sink`:
    /// one read record per input array the kernel consumes, one write record
    /// for its output array — the byte accounting STREAM itself uses, at the
    /// worker-window granularity the tiering planners want.
    pub fn record_access(&self, sink: &dyn AccessSink, kernel: Kernel) {
        record_kernel_span(sink, kernel, self.lo, self.hi);
    }
}

impl<'a> ChunkedArrays<'a> {
    /// Wraps the three arrays for partitioning across `nthreads` workers.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths.
    pub fn new(a: &'a mut [f64], b: &'a mut [f64], c: &'a mut [f64], nthreads: usize) -> Self {
        assert_eq!(a.len(), b.len(), "STREAM arrays must have equal lengths");
        assert_eq!(a.len(), c.len(), "STREAM arrays must have equal lengths");
        let len = a.len();
        ChunkedArrays {
            a: a.as_mut_ptr(),
            b: b.as_mut_ptr(),
            c: c.as_mut_ptr(),
            len,
            nthreads,
            claimed: (0..nthreads).map(|_| AtomicBool::new(false)).collect(),
            _arrays: PhantomData,
        }
    }

    /// Total elements per array.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arrays are empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Claims worker `thread`'s windows of the three arrays.
    ///
    /// The static-schedule chunk boundaries are the same ones
    /// [`WorkerCtx::chunk`] reports, so simulator byte accounting and real
    /// execution agree element-for-element.
    ///
    /// # Panics
    ///
    /// Panics if `thread >= nthreads` or if this chunk was already claimed —
    /// each chunk is claimable exactly once per `ChunkedArrays`.
    pub fn chunk(&self, thread: usize) -> ArrayChunk<'_> {
        assert!(
            thread < self.nthreads,
            "thread {thread} out of range for {} partitions",
            self.nthreads
        );
        let already = self.claimed[thread].swap(true, Ordering::AcqRel);
        assert!(!already, "chunk {thread} claimed twice");
        let (lo, hi) = chunk_for(thread, self.nthreads, self.len);
        // SAFETY: `lo..hi` windows for distinct claimed `thread` values are
        // disjoint (chunk_for partitions [0, len)), the claim flag above
        // guarantees this window is materialised at most once, and the
        // underlying arrays are exclusively borrowed for 'a — see the
        // module-level safety argument.
        unsafe {
            ArrayChunk {
                a: std::slice::from_raw_parts_mut(self.a.add(lo), hi - lo),
                b: std::slice::from_raw_parts_mut(self.b.add(lo), hi - lo),
                c: std::slice::from_raw_parts_mut(self.c.add(lo), hi - lo),
                lo,
                hi,
            }
        }
    }
}

/// Reusable per-worker mutable state (scratch buffers, counters) shared
/// across a worker pool without locks on the hot path.
///
/// Unlike [`ChunkedArrays`], slots are claim/release: a worker may re-enter
/// its slot on every kernel invocation, but two concurrent claims of the same
/// slot panic instead of aliasing.
pub struct PerWorker<T> {
    slots: Vec<UnsafeCell<T>>,
    claimed: Vec<AtomicBool>,
}

// SAFETY: a slot is only ever reachable through `with`, which enforces
// exclusive access via its claim flag; moving T across threads requires Send.
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T> PerWorker<T> {
    /// Creates `n` slots, initialising slot `i` with `init(i)`.
    pub fn new(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        PerWorker {
            slots: (0..n).map(|i| UnsafeCell::new(init(i))).collect(),
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs `f` with exclusive access to slot `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or the slot is currently claimed by
    /// another caller.
    pub fn with<R>(&self, thread: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let already = self.claimed[thread].swap(true, Ordering::AcqRel);
        assert!(!already, "per-worker slot {thread} claimed concurrently");
        // Release the claim even if `f` panics, so a poisoned run does not
        // wedge later invocations.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _release = Release(&self.claimed[thread]);
        // SAFETY: the claim flag gives this call exclusive access to the
        // slot; the Acquire/Release pair orders it against previous users.
        let slot = unsafe { &mut *self.slots[thread].get() };
        f(slot)
    }

    /// Mutable iteration over all slots (requires exclusive ownership, so no
    /// claims are needed).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|cell| cell.get_mut())
    }
}

/// Runs `f` over every worker of `pool` in parallel, handing each its
/// disjoint in-place window of the three arrays. Returns the workers' results
/// in thread order.
///
/// This is the zero-copy replacement for the copy-out/copy-back loop: the
/// closure computes directly on the backing storage of `a`, `b`, `c`. The
/// pool's workers are resident — one invocation costs one epoch-barrier
/// round-trip, not `nthreads` thread spawns.
pub fn run_partitioned<R, F>(
    pool: &PinnedPool,
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(WorkerCtx, ArrayChunk<'_>) -> R + Sync,
{
    let arrays = ChunkedArrays::new(a, b, c, pool.len());
    pool.run(|ctx| {
        let chunk = arrays.chunk(ctx.thread);
        f(ctx, chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::machines::sapphire_rapids_cxl_machine;
    use numa::AffinityPolicy;

    fn pool(threads: usize) -> PinnedPool {
        let machine = sapphire_rapids_cxl_machine();
        let topo = machine.topology();
        let placement = AffinityPolicy::close().place(topo, threads).unwrap();
        PinnedPool::new(topo, &placement)
    }

    #[test]
    fn chunks_are_disjoint_and_cover_everything() {
        let mut a: Vec<f64> = (0..1003).map(|i| i as f64).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        let arrays = ChunkedArrays::new(&mut a, &mut b, &mut c, 7);
        let mut seen = vec![false; 1003];
        for t in 0..7 {
            let chunk = arrays.chunk(t);
            assert_eq!(chunk.len(), chunk.hi - chunk.lo);
            for (offset, &value) in chunk.a.iter().enumerate() {
                let index = chunk.lo + offset;
                assert_eq!(value, index as f64, "window must map onto the array");
                assert!(!seen[index], "index {index} handed to two chunks");
                seen[index] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every element must be covered");
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        let mut c = vec![0.0; 16];
        let arrays = ChunkedArrays::new(&mut a, &mut b, &mut c, 4);
        let _first = arrays.chunk(2);
        let _second = arrays.chunk(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_panics() {
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        let arrays = ChunkedArrays::new(&mut a, &mut b, &mut c, 2);
        let _ = arrays.chunk(2);
    }

    #[test]
    fn parallel_in_place_writes_land_in_the_arrays() {
        let pool = pool(8);
        let mut a = vec![1.0f64; 10_007];
        let mut b = vec![2.0f64; 10_007];
        let mut c = vec![0.0f64; 10_007];
        run_partitioned(&pool, &mut a, &mut b, &mut c, |_ctx, chunk| {
            for ((c, a), b) in chunk.c.iter_mut().zip(chunk.a.iter()).zip(chunk.b.iter()) {
                *c = a + b;
            }
        });
        assert!(c.iter().all(|&x| x == 3.0));
        assert!(a.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn more_workers_than_elements_yields_empty_tail_chunks() {
        let pool = pool(8);
        let mut a = vec![5.0f64; 3];
        let mut b = vec![5.0f64; 3];
        let mut c = vec![0.0f64; 3];
        let lens = run_partitioned(&pool, &mut a, &mut b, &mut c, |_ctx, chunk| {
            for (c, a) in chunk.c.iter_mut().zip(chunk.a.iter()) {
                *c = *a;
            }
            chunk.len()
        });
        assert_eq!(lens.iter().sum::<usize>(), 3);
        assert_eq!(lens.iter().filter(|&&l| l == 0).count(), 5);
        assert!(c.iter().all(|&x| x == 5.0));
    }

    #[test]
    fn per_worker_slots_are_exclusive_and_reusable() {
        let pool = pool(6);
        let scratch: PerWorker<Vec<u64>> = PerWorker::new(6, |_| Vec::new());
        for round in 0..3u64 {
            pool.run(|ctx| {
                scratch.with(ctx.thread, |buf| buf.push(round));
            });
        }
        let mut scratch = scratch;
        for buf in scratch.iter_mut() {
            assert_eq!(*buf, vec![0, 1, 2], "each slot sees every round once");
        }
    }

    #[test]
    #[should_panic(expected = "claimed concurrently")]
    fn per_worker_nested_claim_panics() {
        let scratch: PerWorker<u32> = PerWorker::new(2, |_| 0);
        scratch.with(0, |_| scratch.with(0, |v| *v += 1));
    }

    #[test]
    fn per_worker_releases_slot_after_panic() {
        let scratch: PerWorker<u32> = PerWorker::new(1, |_| 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scratch.with(0, |_| panic!("worker died"));
        }));
        assert!(result.is_err());
        // The claim must have been released on unwind.
        scratch.with(0, |v| *v = 7);
    }
}
