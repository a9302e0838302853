//! Tiering hot-path costs: what does the adaptive engine charge the STREAM
//! kernels, and how fast can it move chunks?
//!
//! Two numbers land in `BENCH_tiering.json` at the repository root, with the
//! host they were measured on, and are gated by the CI `bench-smoke` job:
//!
//! * **tracking overhead** — the full STREAM sequence with the tiering
//!   [`AccessTracker`] attached vs detached. The tracker is a handful of
//!   relaxed `fetch_add`s per worker window, so the overhead budget is <5 %.
//! * **migration throughput** — a functional [`TieredRegion`] bulk-moving
//!   every chunk between tiers through the resident `PinnedPool`
//!   (`PooledChunkExecutor` batching: one flush per chunk, one drain per
//!   destination tier, residency flips through the undo log).
//!
//! A third, unguarded number records what the analytical model charges for a
//! paper-scale 16 GiB rebalance (`Engine::migration_cost`), tying the
//! functional migrator to the simulated sweep in `streamer scenario tiering`.

use cxl_pmem::tiering::{AccessTracker, TierAssignment, TieredRegion};
use cxl_pmem::{CxlPmemRuntime, PooledChunkExecutor, RuntimeBuilder, TierPolicy};
use numa::{AffinityPolicy, PinnedPool};
use repro_bench::host_fingerprint;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stream_bench::{Kernel, StreamConfig, VolatileStream};
use streamer::tables::json_number;

const ELEMENTS: usize = 1_000_000;
const THREADS: usize = 8;
const NTIMES: usize = 5;
/// Repetitions per measurement; min-of-N on both sides cancels scheduler
/// noise, which matters because the gated overhead is a small difference.
const REPS: usize = 9;
/// Tracking granularity: 1 MiB tiering chunks over the 8 MB array span.
const TRACK_CHUNK: u64 = 1 << 20;

/// Functional-migration shape: 128 × 64 KiB = 8 MiB per tier slab.
const MIG_CHUNKS: usize = 128;
const MIG_CHUNK_LEN: u64 = 64 * 1024;

fn worker_pool(threads: usize) -> PinnedPool {
    let machine = memsim::machines::sapphire_rapids_cxl_machine();
    let topo = machine.topology();
    let placement = AffinityPolicy::close()
        .place(topo, threads)
        .expect("placement");
    PinnedPool::new(topo, &placement)
}

/// Seconds for the full `ntimes` × Copy→Scale→Add→Triad sequence.
fn sequence_seconds(stream: &mut VolatileStream, pool: &PinnedPool) -> f64 {
    let start = Instant::now();
    black_box(stream.run(pool));
    start.elapsed().as_secs_f64()
}

/// Builds the functional region used for migration throughput: every chunk
/// starts on the DRAM tier; both budgets can hold the whole region so a full
/// swing in either direction is legal.
fn migration_region(runtime: &CxlPmemRuntime) -> TieredRegion {
    let slab = MIG_CHUNKS as u64 * MIG_CHUNK_LEN;
    runtime
        .tiered_region(
            &[
                (TierPolicy::LocalDram { socket: 0 }, slab),
                (TierPolicy::CxlExpander, slab),
            ],
            "bench-tiering",
            slab,
            MIG_CHUNK_LEN,
        )
        .expect("region")
}

fn main() {
    let config = StreamConfig {
        elements: ELEMENTS,
        ntimes: NTIMES,
        scalar: 3.0,
    };
    let pool = worker_pool(THREADS);

    // --- tracking overhead on the STREAM hot path --------------------------
    let tracker = Arc::new(AccessTracker::new(ELEMENTS as u64 * 8, TRACK_CHUNK));
    let mut untracked = VolatileStream::new(config);
    let mut tracked = VolatileStream::new(config);
    tracked.set_tracker(Some(tracker.clone()));
    // Interleave the reps so slow-clock drift hits both paths equally.
    let mut untracked_s = f64::INFINITY;
    let mut tracked_s = f64::INFINITY;
    for _ in 0..REPS {
        untracked_s = untracked_s.min(sequence_seconds(&mut untracked, &pool));
        tracked_s = tracked_s.min(sequence_seconds(&mut tracked, &pool));
    }
    let overhead_pct = (tracked_s / untracked_s - 1.0) * 100.0;
    let sampled: u64 = tracker.heat().iter().map(|h| h.total()).sum();
    assert!(sampled > 0, "the tracked run must have fed the tracker");
    println!(
        "tracking {ELEMENTS}e {THREADS}t ({} invocations)  untracked {:9.3} ms  \
         tracked {:9.3} ms  overhead {overhead_pct:+.2}%",
        NTIMES * Kernel::ALL.len(),
        untracked_s * 1e3,
        tracked_s * 1e3,
    );

    // --- functional migration throughput over the resident pool ------------
    let runtime = RuntimeBuilder::setup1().build();
    let workers = runtime
        .worker_pool_for(&AffinityPolicy::close(), THREADS)
        .expect("workers");
    let mut region = migration_region(&runtime);
    let all_on = |tier: usize| TierAssignment {
        tier_of: vec![tier; MIG_CHUNKS],
    };
    let bytes_per_swing = MIG_CHUNKS as u64 * MIG_CHUNK_LEN;
    let mut swing_s = f64::INFINITY;
    for _ in 0..REPS {
        for target in [1usize, 0] {
            let start = Instant::now();
            let stats = region
                .migrate_to(&all_on(target), &PooledChunkExecutor(&workers))
                .expect("migration");
            swing_s = swing_s.min(start.elapsed().as_secs_f64());
            assert_eq!(stats.chunks_moved, MIG_CHUNKS);
        }
    }
    let migration_gbs = bytes_per_swing as f64 / 1e9 / swing_s;
    println!(
        "migration {MIG_CHUNKS} chunks x {} KiB  best swing {:9.3} ms  {migration_gbs:7.2} GB/s",
        MIG_CHUNK_LEN / 1024,
        swing_s * 1e3,
    );

    // --- what the model charges for a paper-scale rebalance ----------------
    let placement = runtime
        .place(&AffinityPolicy::SingleSocket(0), 10)
        .expect("placement");
    let simulated = runtime
        .engine()
        .migration_cost(placement.cpus(), 0, 2, 16u64 << 30)
        .expect("cost");
    println!(
        "simulated 16 GiB DRAM->CXL rebalance: {:.2} s ({:.1} GB/s payload)",
        simulated.seconds, simulated.bandwidth_gbs
    );

    let json = format!(
        "{{\n  \"host\": {},\n  \"elements\": {ELEMENTS},\n  \"threads\": {THREADS},\n  \"ntimes\": {NTIMES},\n  \
         \"tracking\": {{\n    \"untracked_seconds\": {},\n    \"tracked_seconds\": {},\n    \
         \"overhead_pct\": {},\n    \"sampled_bytes\": {sampled}\n  }},\n  \
         \"migration\": {{\n    \"chunks\": {MIG_CHUNKS},\n    \"chunk_bytes\": {MIG_CHUNK_LEN},\n    \
         \"swing_seconds\": {},\n    \"throughput_gbs\": {}\n  }},\n  \
         \"simulated_migration\": {{\n    \"bytes\": {},\n    \"seconds\": {},\n    \
         \"payload_gbs\": {}\n  }}\n}}\n",
        host_fingerprint(),
        json_number(untracked_s),
        json_number(tracked_s),
        json_number(overhead_pct),
        json_number(swing_s),
        json_number(migration_gbs),
        16u64 << 30,
        json_number(simulated.seconds),
        json_number(simulated.bandwidth_gbs),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiering.json");
    std::fs::write(out, json).expect("write BENCH_tiering.json");
    println!("wrote {out}");
}
