//! A persistent thread pool whose workers carry a logical CPU binding.
//!
//! The STREAM runner needs OpenMP-like semantics: N worker threads, each bound
//! to a specific logical CPU, executing the same kernel over disjoint chunks
//! and meeting at a barrier. [`PinnedPool`] provides exactly that. The binding
//! is *logical* — it is recorded and passed to the worker closure so that the
//! memory simulator can attribute the worker's traffic to the right core — but
//! the pool also exercises real OS threads so the kernels genuinely run in
//! parallel on the host.
//!
//! # Lifecycle: resident workers, epoch barrier
//!
//! STREAM repeats every kernel `ntimes` with an implicit barrier between
//! repetitions, so the per-iteration cost is exactly what the bandwidth
//! numbers are made of. An earlier revision of this pool spawned fresh scoped
//! threads inside every [`PinnedPool::run`]; at small array sizes the spawn
//! cost dominated the measurement. The pool is now **persistent**:
//!
//! * `N` workers are spawned once in [`PinnedPool::new`] and keep their
//!   [`WorkerCtx`] (the logical pinning from the affinity layer) for the whole
//!   pool lifetime;
//! * idle workers park on an **epoch barrier** (a mutex + condvar pair);
//!   publishing a job bumps the epoch counter and wakes all of them;
//! * each invocation hands the workers one **job slot** — a type-erased
//!   pointer to the caller's closure, valid strictly for that epoch — and the
//!   submitter blocks until every worker has checked back in;
//! * a panicking worker is caught, its payload is carried across the barrier,
//!   and [`resume_unwind`]ed in the submitter; the worker thread itself
//!   survives, so the pool stays usable after a propagated panic;
//! * dropping the pool raises the shutdown flag, wakes every worker and joins
//!   them all.
//!
//! # Safety argument
//!
//! The job slot stores a raw `*const (dyn Fn(WorkerCtx) + Sync)` whose pointee
//! lives on the submitting caller's stack. Running a borrowed closure on
//! resident threads is the one thing safe Rust cannot express
//! (`std::thread::scope` would spawn threads on every call), so this module
//! holds the only `unsafe` in the workspace's library code, at three sites:
//! `JobPtr`'s `Send` impl, the call through it, and the lifetime-erasing
//! `transmute`. The crate is otherwise `deny(unsafe_code)`, and the other
//! first-party library crates `forbid` it. The erasure is sound because the
//! pointer's validity window is bracketed by the epoch barrier, by
//! construction rather than by caller discipline:
//!
//! 1. **Publication happens-before execution** — the pointer is written into
//!    the slot and the epoch bumped under the state mutex; workers read both
//!    under the same mutex, so a worker only ever dereferences a pointer for
//!    the epoch it observed.
//! 2. **The pointee outlives every dereference** — [`PinnedPool::run`] does
//!    not return (and therefore the closure and the result slots it writes
//!    cannot be dropped) until `remaining == 0`, i.e. until every worker
//!    has finished the call and checked in under the mutex. The slot is
//!    cleared before the submitter returns, so no stale pointer survives an
//!    epoch.
//! 3. **One epoch in flight at a time** — a private submitter mutex is held
//!    for the whole publish→drain window, so two concurrent `run` calls
//!    serialise instead of racing on the slot.
//!
//! Results need no `unsafe`: each worker locks its own result slot once,
//! after its call returns, so the slot locks are never contended.
//!
//! Re-entrant submission (calling `run` from inside a worker closure) would
//! deadlock on the barrier and is not supported. Every worker marks its
//! thread with its pool's identity, so a caller that may be running on one
//! asks [`PinnedPool::is_worker_thread`] and runs its jobs inline instead.
//!
//! The pool and its epoch protocol are exercised under Miri in CI (see the
//! `miri` workflow job), directly and through the `stream-bench` kernels.
//!
//! [`resume_unwind`]: std::panic::resume_unwind

#![allow(unsafe_code)]

use crate::affinity::ThreadPlacement;
use crate::topology::Topology;
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The next pool identity; 0 is no pool's.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The identity of the pool this thread works for (0 on every thread
    /// that is no pool's worker).
    static WORKER_OF: Cell<u64> = const { Cell::new(0) };
}

/// Context handed to every worker closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// Index of the worker thread (0-based, dense).
    pub thread: usize,
    /// Logical CPU this worker is bound to.
    pub cpu: usize,
    /// Socket of that CPU.
    pub socket: usize,
    /// NUMA node of that CPU.
    pub node: usize,
    /// Total number of workers participating.
    pub nthreads: usize,
}

impl WorkerCtx {
    /// Splits `len` items into this worker's contiguous `[start, end)` chunk,
    /// distributing the remainder over the first workers (OpenMP static
    /// scheduling with chunk size `len / nthreads`).
    pub fn chunk(&self, len: usize) -> (usize, usize) {
        chunk_for(self.thread, self.nthreads, len)
    }
}

/// Computes the static-schedule chunk `[start, end)` of worker `thread` out of
/// `nthreads` over `len` items.
pub fn chunk_for(thread: usize, nthreads: usize, len: usize) -> (usize, usize) {
    if nthreads == 0 || thread >= nthreads {
        return (0, 0);
    }
    let base = len / nthreads;
    let rem = len % nthreads;
    let start = thread * base + thread.min(rem);
    let extra = usize::from(thread < rem);
    (start, start + base + extra)
}

/// The type-erased per-epoch job: a pointer to the submitter's closure.
///
/// The pointee lives on the stack of the `run` call that published it and is
/// guaranteed valid until every worker has checked in for the epoch (see the
/// module-level safety argument).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(WorkerCtx) + Sync));

// SAFETY: the pointer crosses threads only between publication and the epoch
// barrier, while the submitter keeps the pointee alive; the pointee is `Sync`,
// so concurrent shared calls through it are sound.
unsafe impl Send for JobPtr {}

/// Epoch-barrier state shared between the submitter and the resident workers.
struct EpochState {
    /// Monotonically increasing epoch counter; a bump publishes a job.
    epoch: u64,
    /// The job for the in-flight epoch, if any.
    job: Option<JobPtr>,
    /// Workers that have not yet finished the in-flight epoch.
    remaining: usize,
    /// Raised by `Drop` to park out every worker.
    shutdown: bool,
    /// Panic payloads captured from workers during the in-flight epoch.
    panics: Vec<(usize, Box<dyn Any + Send>)>,
}

struct PoolShared {
    state: Mutex<EpochState>,
    /// Workers park here waiting for the next epoch (or shutdown).
    work: Condvar,
    /// The submitter parks here waiting for the epoch to drain.
    done: Condvar,
}

impl PoolShared {
    /// Locks the epoch state, neutralising poison: panics never unwind while
    /// the lock is held (worker panics are caught outside it), and a poisoned
    /// barrier must still be usable so `Drop` can shut the workers down.
    fn lock(&self) -> MutexGuard<'_, EpochState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn worker_loop(ctx: WorkerCtx, shared: Arc<PoolShared>, pool_id: u64) {
    WORKER_OF.with(|id| id.set(pool_id));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    break;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            last_epoch = state.epoch;
            state.job.expect("a published epoch carries a job")
        };
        // SAFETY: the submitter that published `job` blocks until this worker
        // (and every other) checks in below, so the pointee is alive for the
        // whole call — see the module-level safety argument, point 2.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(ctx) }));
        let mut state = shared.lock();
        if let Err(payload) = outcome {
            state.panics.push((ctx.thread, payload));
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// A persistent pool of logically pinned workers created from a
/// [`ThreadPlacement`].
///
/// Workers are spawned once at construction, bound (logically) to their CPUs
/// once, and then parked on a reusable epoch barrier; [`run`](Self::run)
/// costs one barrier round-trip instead of N thread spawns. See the module
/// docs for the lifecycle and the safety argument.
pub struct PinnedPool {
    workers: Vec<WorkerCtx>,
    /// This pool's identity, which its workers carry in `WORKER_OF`.
    id: u64,
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises submitters: at most one epoch is in flight at a time.
    submit: Mutex<()>,
}

impl fmt::Debug for PinnedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinnedPool")
            .field("workers", &self.workers)
            .field("resident", &self.handles.len())
            .finish()
    }
}

impl PinnedPool {
    /// Builds a pool from a placement over a topology, spawning (and logically
    /// pinning) one resident worker per placed thread.
    pub fn new(topo: &Topology, placement: &ThreadPlacement) -> Self {
        let n = placement.len();
        let workers: Vec<WorkerCtx> = placement
            .cpus()
            .iter()
            .enumerate()
            .map(|(thread, &cpu)| WorkerCtx {
                thread,
                cpu,
                socket: topo.socket_of_cpu(cpu).unwrap_or(0),
                node: topo.node_of_cpu(cpu).unwrap_or(0),
                nthreads: n,
            })
            .collect();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(EpochState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panics: Vec::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        // Relaxed: the read-modify-write alone makes each identity unique.
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let handles = workers
            .iter()
            .copied()
            .map(|ctx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pinned-{}-cpu{}", ctx.thread, ctx.cpu))
                    .spawn(move || worker_loop(ctx, shared, id))
                    .expect("spawn pinned worker")
            })
            .collect();
        PinnedPool {
            workers,
            id,
            shared,
            handles,
            submit: Mutex::new(()),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Returns `true` when the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Worker contexts in thread order.
    pub fn workers(&self) -> &[WorkerCtx] {
        &self.workers
    }

    /// Whether the calling thread is one of this pool's workers, on which a
    /// [`run`](Self::run) would deadlock.
    pub fn is_worker_thread(&self) -> bool {
        WORKER_OF.with(Cell::get) == self.id
    }

    /// Runs `f` once per worker **in parallel** on the resident worker threads
    /// and collects the return values in thread order.
    ///
    /// No threads are spawned: the call publishes one epoch on the barrier,
    /// wakes the parked workers and blocks until all of them check back in.
    /// Concurrent `run` calls from different threads serialise; calling `run`
    /// from inside a worker closure deadlocks and is not supported (check
    /// [`is_worker_thread`](Self::is_worker_thread) first).
    ///
    /// `f` must be `Sync` because all workers borrow it concurrently.
    ///
    /// # Panics
    ///
    /// If a worker closure panics, the first panic payload is re-raised here
    /// after the epoch drains; the pool remains usable afterwards.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(WorkerCtx) -> R + Sync,
    {
        let n = self.workers.len();
        if n == 0 {
            return Vec::new();
        }
        // One result slot per worker; worker `t` locks only slot `t`.
        let results: Vec<parking_lot::Mutex<Option<R>>> =
            (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
        let call = |ctx: WorkerCtx| {
            let value = f(ctx);
            *results[ctx.thread].lock() = Some(value);
        };
        // SAFETY (lifetime erasure): the transmute only widens the trait
        // object's lifetime bound to the `'static` default of `JobPtr`'s
        // field — a plain `as` cast cannot do this (it would instead force
        // `R: 'static` + `F: 'static` through inference). The pointee is
        // never outlived: `call` and `results` stay alive on this frame until
        // the epoch drains below.
        let job = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(WorkerCtx) + Sync), *const (dyn Fn(WorkerCtx) + Sync)>(
                &call,
            )
        });
        let first_panic = {
            let _epoch_exclusive = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
            let mut state = self.shared.lock();
            debug_assert_eq!(state.remaining, 0, "previous epoch fully drained");
            state.job = Some(job);
            state.remaining = n;
            state.epoch = state.epoch.wrapping_add(1);
            self.shared.work.notify_all();
            while state.remaining > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            let mut panics = std::mem::take(&mut state.panics);
            drop(state);
            if panics.is_empty() {
                None
            } else {
                panics.sort_by_key(|(thread, _)| *thread);
                Some(panics.swap_remove(0))
            }
        };
        if let Some((_thread, payload)) = first_panic {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker produced a result"))
            .collect()
    }
}

impl Drop for PinnedPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job (impossible today — the
            // loop catches job panics) would surface here; ignore so Drop
            // never double-panics.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::AffinityPolicy;
    use crate::topology::sapphire_rapids_cxl;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(threads: usize) -> (Topology, PinnedPool) {
        let topo = sapphire_rapids_cxl();
        let placement = AffinityPolicy::close().place(&topo, threads).unwrap();
        let pool = PinnedPool::new(&topo, &placement);
        (topo, pool)
    }

    #[test]
    fn workers_carry_correct_socket_and_node() {
        let (_, pool) = pool(12);
        assert_eq!(pool.len(), 12);
        assert_eq!(pool.workers()[0].socket, 0);
        assert_eq!(pool.workers()[0].node, 0);
        assert_eq!(pool.workers()[11].socket, 1);
        assert_eq!(pool.workers()[11].node, 1);
    }

    #[test]
    fn run_executes_every_worker_in_parallel() {
        let (_, pool) = pool(8);
        let counter = AtomicUsize::new(0);
        let results = pool.run(|ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.thread * 10
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn workers_are_resident_across_invocations() {
        // The whole point of the persistent pool: `run` must dispatch to the
        // same OS threads every time instead of spawning fresh ones.
        let (_, pool) = pool(4);
        let first = pool.run(|_| std::thread::current().id());
        for _ in 0..3 {
            assert_eq!(pool.run(|_| std::thread::current().id()), first);
        }
        let submitter = std::thread::current().id();
        assert!(first.iter().all(|&id| id != submitter));
        let mut distinct: Vec<String> = first.iter().map(|id| format!("{id:?}")).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "four distinct resident workers");
    }

    #[test]
    fn epoch_barrier_reuse_matches_sequential_over_many_rounds() {
        let (_, pool) = pool(6);
        for round in 1..=5usize {
            let par = pool.run(|ctx| (ctx.cpu + 1) * round);
            let seq: Vec<usize> = pool
                .workers()
                .iter()
                .map(|ctx| (ctx.cpu + 1) * round)
                .collect();
            assert_eq!(par, seq, "round {round} diverged");
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let (_, pool) = pool(4);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.thread == 2 {
                    panic!("worker {} exploded", ctx.thread);
                }
                ctx.thread
            })
        }));
        let payload = outcome.expect_err("panic must propagate to the submitter");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("worker 2 exploded"), "payload: {message}");
        // The epoch drained and the workers survived: the pool is reusable.
        assert_eq!(pool.run(|ctx| ctx.thread), vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_workers_panicking_still_drains_the_epoch() {
        let (_, pool) = pool(3);
        for _ in 0..2 {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|ctx| panic!("thread {}", ctx.thread))
            }));
            assert!(outcome.is_err());
        }
        assert_eq!(pool.run(|ctx| ctx.thread), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_submitters_serialise_cleanly() {
        let (_, pool) = pool(4);
        let pool = &pool;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(pool.run(|ctx| ctx.thread), vec![0, 1, 2, 3]);
                    }
                });
            }
        });
    }

    #[test]
    fn workers_know_their_own_pool() {
        let (_, other) = pool(2);
        let (_, pool) = pool(3);
        assert!(!pool.is_worker_thread(), "the submitter is no worker");
        assert_eq!(pool.run(|_| pool.is_worker_thread()), vec![true; 3]);
        assert_eq!(pool.run(|_| other.is_worker_thread()), vec![false; 3]);
        assert_eq!(other.run(|_| pool.is_worker_thread()), vec![false; 2]);
    }

    #[test]
    fn drop_joins_all_workers_without_deadlock() {
        let (_, pool) = pool(8);
        pool.run(|_| ());
        drop(pool); // must return: shutdown wakes and joins every worker
    }

    #[test]
    fn drop_without_ever_running_joins_cleanly() {
        let (_, pool) = pool(5);
        drop(pool);
    }

    #[test]
    fn run_sequential_matches_parallel_results() {
        let (_, pool) = pool(5);
        let par = pool.run(|ctx| ctx.cpu);
        let seq: Vec<usize> = pool.workers().iter().map(|ctx| ctx.cpu).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_pool_runs_nothing() {
        let (_, pool) = pool(0);
        assert!(pool.is_empty());
        let out: Vec<usize> = pool.run(|_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        let (_, pool) = pool(7);
        let len = 1003;
        let chunks = pool.run(|ctx| ctx.chunk(len));
        let mut covered = 0usize;
        for (i, &(start, end)) in chunks.iter().enumerate() {
            assert!(start <= end);
            covered += end - start;
            if i > 0 {
                assert_eq!(chunks[i - 1].1, start, "chunks must be contiguous");
            }
        }
        assert_eq!(covered, len);
        assert_eq!(chunks.first().unwrap().0, 0);
        assert_eq!(chunks.last().unwrap().1, len);
    }

    #[test]
    fn chunk_for_degenerate_cases() {
        assert_eq!(chunk_for(0, 0, 100), (0, 0));
        assert_eq!(chunk_for(5, 3, 100), (0, 0));
        assert_eq!(chunk_for(0, 1, 0), (0, 0));
        assert_eq!(chunk_for(0, 4, 2), (0, 1));
        assert_eq!(chunk_for(3, 4, 2), (2, 2));
    }

    #[test]
    fn phase_accumulator_tracks_max_and_mean() {
        // A phase's slowest worker and mean time, reduced over `run`'s
        // thread-ordered results.
        let (_, pool) = pool(4);
        let times = pool.run(|ctx| [1.0, 3.0, 2.0, 6.0][ctx.thread]);
        assert_eq!(times, vec![1.0, 3.0, 2.0, 6.0]);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert_eq!((max, mean), (6.0, 3.0));
    }

    proptest! {
        #[test]
        fn prop_chunks_partition_any_length(nthreads in 1usize..32, len in 0usize..10_000) {
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for t in 0..nthreads {
                let (start, end) = chunk_for(t, nthreads, len);
                prop_assert_eq!(start, prev_end);
                prop_assert!(end >= start);
                covered += end - start;
                prev_end = end;
            }
            prop_assert_eq!(covered, len);
            prop_assert_eq!(prev_end, len);
        }

        #[test]
        fn prop_chunk_sizes_differ_by_at_most_one(nthreads in 1usize..32, len in 0usize..10_000) {
            let sizes: Vec<usize> = (0..nthreads)
                .map(|t| { let (s, e) = chunk_for(t, nthreads, len); e - s })
                .collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
