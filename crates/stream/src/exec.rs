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
//! The module is safe code. [`ChunkedArrays::new`] cuts the three exclusively
//! borrowed arrays at the [`numa::chunk_for`] boundaries with `split_at_mut`,
//! so the borrow checker proves the windows disjoint, and parks each window
//! in a one-shot slot that its worker takes out. Each worker locks only its
//! own slot, once per kernel invocation, so no lock is ever contended.

use crate::kernels::Kernel;
use cxl_pmem::AccessTracker;
use numa::{chunk_for, PinnedPool, WorkerCtx};
use parking_lot::Mutex;

/// Records one `kernel` invocation over the element window `[lo, hi)` into
/// the tiering engine's `tracker` using STREAM's byte-accounting rules — one
/// read per input array the kernel consumes, one write for its output array.
/// The single definition both hot paths share: the in-place engine samples
/// through [`ArrayChunk::record_access`], the STREAM-PMem path calls it with
/// its worker window directly, so volatile and pmem heat stay comparable.
///
/// Byte spans are element offsets scaled to bytes (`element × 8` for the
/// `f64` STREAM arrays): the three arrays share one logical index space, so
/// a tiering chunk covers the same element range of `a`, `b` and `c`. The
/// call runs inside every worker's kernel window, and `BENCH_tiering.json`
/// holds it under a 5 % hot-path overhead budget in CI.
pub fn record_kernel_span(tracker: &AccessTracker, kernel: Kernel, lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let byte_lo = lo as u64 * 8;
    let byte_hi = hi as u64 * 8;
    let (reads_a, reads_b, reads_c) = kernel.reads();
    for reads in [reads_a, reads_b, reads_c] {
        if reads {
            tracker.record_read(byte_lo, byte_hi);
        }
    }
    tracker.record_write(byte_lo, byte_hi);
}

/// Three equal-length `f64` arrays partitioned into per-worker windows.
///
/// Built once per kernel invocation from exclusive borrows of the STREAM
/// arrays; workers call [`chunk`](Self::chunk) with their thread index to
/// receive their disjoint in-place window.
pub struct ChunkedArrays<'a> {
    len: usize,
    /// Worker `t`'s window until worker `t` takes it.
    windows: Vec<Mutex<Option<ArrayChunk<'a>>>>,
}

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

    /// Samples this window's traffic for one `kernel` invocation into
    /// `tracker`: one read record per input array the kernel consumes, one
    /// write record for its output array — the byte accounting STREAM itself
    /// uses, at the worker-window granularity the tiering planners want.
    pub fn record_access(&self, tracker: &AccessTracker, kernel: Kernel) {
        record_kernel_span(tracker, kernel, self.lo, self.hi);
    }
}

/// Splits the first `n` elements off `rest`, leaving the remainder in it.
fn split_off<'a>(rest: &mut &'a mut [f64], n: usize) -> &'a mut [f64] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

impl<'a> ChunkedArrays<'a> {
    /// Wraps the three arrays for partitioning across `nthreads` workers.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths.
    pub fn new(
        mut a: &'a mut [f64],
        mut b: &'a mut [f64],
        mut c: &'a mut [f64],
        nthreads: usize,
    ) -> Self {
        assert_eq!(a.len(), b.len(), "STREAM arrays must have equal lengths");
        assert_eq!(a.len(), c.len(), "STREAM arrays must have equal lengths");
        let len = a.len();
        let windows = (0..nthreads)
            .map(|thread| {
                let (lo, hi) = chunk_for(thread, nthreads, len);
                Mutex::new(Some(ArrayChunk {
                    a: split_off(&mut a, hi - lo),
                    b: split_off(&mut b, hi - lo),
                    c: split_off(&mut c, hi - lo),
                    lo,
                    hi,
                }))
            })
            .collect();
        ChunkedArrays { len, windows }
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
        self.windows.len()
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
    pub fn chunk(&self, thread: usize) -> ArrayChunk<'a> {
        let Some(slot) = self.windows.get(thread) else {
            panic!(
                "thread {thread} out of range for {} partitions",
                self.windows.len()
            );
        };
        let window = slot.lock().take();
        window.unwrap_or_else(|| panic!("chunk {thread} claimed twice"))
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
        // (elements, threads): uneven split, empty arrays, more threads than
        // elements, one thread.
        for (len, nthreads) in [(1003, 7), (0, 4), (3, 8), (17, 1)] {
            let mut a: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let mut b: Vec<f64> = a.iter().map(|x| -x).collect();
            let mut c = vec![f64::NAN; len];
            let arrays = ChunkedArrays::new(&mut a, &mut b, &mut c, nthreads);
            assert_eq!((arrays.len(), arrays.nthreads()), (len, nthreads));
            let mut seen = vec![false; len];
            for t in 0..nthreads {
                let chunk = arrays.chunk(t);
                assert_eq!((chunk.lo, chunk.hi), chunk_for(t, nthreads, len));
                assert_eq!(chunk.len(), chunk.hi - chunk.lo);
                assert_eq!((chunk.b.len(), chunk.c.len()), (chunk.len(), chunk.len()));
                for (offset, (&x, &y)) in chunk.a.iter().zip(chunk.b.iter()).enumerate() {
                    let index = chunk.lo + offset;
                    assert_eq!(
                        (x, y),
                        (index as f64, -(index as f64)),
                        "window must map onto the arrays"
                    );
                    assert!(!seen[index], "index {index} handed to two chunks");
                    seen[index] = true;
                }
                chunk.c.fill(t as f64);
            }
            assert!(seen.iter().all(|&s| s), "every element must be covered");
            for t in 0..nthreads {
                let (lo, hi) = chunk_for(t, nthreads, len);
                assert!(
                    c[lo..hi].iter().all(|&x| x == t as f64),
                    "writes land in place"
                );
            }
        }
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
        // Each run builds fresh one-shot slots: every worker claims its own
        // window exactly once per run, and the next run hands out new ones.
        let pool = pool(6);
        let (mut a, mut b, mut c) = (vec![0.0; 100], vec![0.0; 100], vec![0.0; 100]);
        for round in 0..3 {
            let claimed = run_partitioned(&pool, &mut a, &mut b, &mut c, |ctx, chunk| {
                chunk.c.fill(f64::from(round));
                (ctx.thread, chunk.lo, chunk.hi)
            });
            for (thread, &(claimer, lo, hi)) in claimed.iter().enumerate() {
                assert_eq!(claimer, thread, "each slot claimed by its own worker");
                assert_eq!((lo, hi), chunk_for(thread, 6, 100));
            }
            assert!(c.iter().all(|&x| x == f64::from(round)), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn per_worker_nested_claim_panics() {
        // A worker that claims its window while holding it panics instead
        // of receiving a second `&mut` to the same elements; the panic
        // reaches the submitter.
        let pool = pool(2);
        let (mut a, mut b, mut c) = (vec![0.0; 16], vec![0.0; 16], vec![0.0; 16]);
        let arrays = ChunkedArrays::new(&mut a, &mut b, &mut c, 2);
        pool.run(|ctx| {
            let _held = arrays.chunk(ctx.thread);
            let _again = arrays.chunk(ctx.thread);
        });
    }

    #[test]
    fn per_worker_releases_slot_after_panic() {
        let pool = pool(2);
        let (mut a, mut b, mut c) = (vec![1.0; 64], vec![2.0; 64], vec![0.0; 64]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_partitioned(&pool, &mut a, &mut b, &mut c, |ctx, _chunk| {
                if ctx.thread == 1 {
                    panic!("worker died");
                }
            });
        }));
        let payload = result.expect_err("the worker's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker died"));
        // The pool and the arrays stay usable: the next run claims fresh
        // slots and every window computes.
        run_partitioned(&pool, &mut a, &mut b, &mut c, |_ctx, chunk| {
            Kernel::Add.apply(chunk.a, chunk.b, chunk.c, 3.0);
        });
        assert!(c.iter().all(|&x| x == 3.0));
    }
}
