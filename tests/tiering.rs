//! End-to-end guarantees of the adaptive tiering engine, run through the
//! facade the way an application would use it.
//!
//! Two families of evidence:
//!
//! * **Conservation** — a vendored-proptest property drives random access
//!   patterns and rebalance calls (under every policy) against a functional
//!   [`TieredRegion`] and asserts that no interleaving of migrations ever
//!   loses or duplicates a chunk: residency always names exactly one
//!   in-budget tier per chunk and every chunk's content hash matches the
//!   last write.
//! * **Crash safety** — the host dies at every backend call of a migration
//!   (mid-copy and mid-commit on the pmem spill tier), with whole and torn
//!   writes, and every chunk stays readable from exactly one tier with
//!   intact bytes; undo-log recovery on the revived host restores a
//!   rebalanceable region. The region's tier pools are opened over backends
//!   one `Crash` wraps. These are the sweeps the CI `crash-matrix` job runs
//!   alongside the checkpoint matrix.

use proptest::prelude::*;
use streamer_repro::cxl_pmem::tiering::{
    BandwidthAwarePolicy, HotGreedyPolicy, MigrationStats, StaticSpillPolicy, TierAssignment,
    TierPlanner, TierPool, TieredRegion,
};
use streamer_repro::cxl_pmem::{CxlPmemRuntime, RuntimeBuilder, RuntimeError, TierPolicy};
use streamer_repro::numa::AffinityPolicy;
use streamer_repro::pmem::{Crash, PmemPool};

const CHUNK: u64 = 4096;
const CHUNKS: usize = 12;
const DATA: u64 = CHUNK * CHUNKS as u64;

/// Two tiers: a "fast" budget that cannot hold everything (8 chunks) and a
/// spill budget that can (12 chunks), so every policy has real choices.
const TIERS: [(TierPolicy, u64); 2] = [
    (TierPolicy::LocalDram { socket: 0 }, 8 * CHUNK),
    (TierPolicy::CxlExpander, 12 * CHUNK),
];

fn region(runtime: &CxlPmemRuntime, layout: &str) -> TieredRegion {
    runtime
        .tiered_region(&TIERS, layout, DATA, CHUNK)
        .expect("region")
}

/// The region over pools whose backends one [`Crash`] wraps, each chunk
/// written with `chunk_image(chunk, tag)`.
fn crashable_region(runtime: &CxlPmemRuntime, layout: &str, tag: u8) -> (Crash, TieredRegion) {
    let crash = Crash::new();
    let pools = TieredRegion::provision_pools(runtime, &TIERS, layout, DATA, CHUNK)
        .unwrap()
        .into_iter()
        .map(|tier| {
            let backend = crash.wrap(tier.pool.backend());
            let pool = PmemPool::open_with_backend(backend, &tier.pool.layout()).unwrap();
            TierPool { pool, ..tier }
        })
        .collect();
    let region = TieredRegion::from_pools(pools, DATA, CHUNK).unwrap();
    for c in 0..CHUNKS {
        region.write_chunk(c, &chunk_image(c, tag)).unwrap();
    }
    (crash, region)
}

/// Whether a migration failed because the host died.
fn died(result: &Result<MigrationStats, RuntimeError>) -> bool {
    match result {
        Ok(_) => false,
        Err(RuntimeError::Pmem(e)) if e.is_injected_crash() => true,
        Err(e) => panic!("not a crash: {e}"),
    }
}

/// Every chunk reads back `chunk_image(chunk, tag)` from the one tier its
/// residency names.
fn assert_intact(region: &TieredRegion, tag: u8, case: &str) {
    let mut buf = vec![0u8; CHUNK as usize];
    for c in 0..CHUNKS {
        region.read_chunk(c, &mut buf).unwrap();
        assert_eq!(buf, chunk_image(c, tag), "{case}: chunk {c}");
    }
}

fn chunk_image(chunk: usize, tag: u8) -> Vec<u8> {
    (0..CHUNK as usize)
        .map(|i| {
            (i as u8)
                .wrapping_mul(41)
                .wrapping_add(chunk as u8)
                .wrapping_add(tag)
        })
        .collect()
}

#[test]
fn runtime_loop_promotes_the_observed_hot_set() {
    let runtime = RuntimeBuilder::setup1().build();
    let mut region = region(&runtime, "tier-e2e");
    for c in 0..CHUNKS {
        region.write_chunk(c, &chunk_image(c, 0)).unwrap();
    }
    // The spilled tail (chunks 8..12 start on the expander) is the hot set.
    let mut buf = vec![0u8; CHUNK as usize];
    for _ in 0..32 {
        for c in 8..CHUNKS {
            region.read_chunk(c, &mut buf).unwrap();
        }
    }
    let workers = runtime
        .worker_pool_for(&AffinityPolicy::close(), 4)
        .unwrap();
    let stats = runtime
        .rebalance(&mut region, &HotGreedyPolicy, &workers)
        .unwrap();
    assert!(stats.chunks_moved >= 4, "the hot tail must be promoted");
    let residency = region.residency().unwrap();
    for (c, &tier) in residency.iter().enumerate().skip(8) {
        assert_eq!(tier, 0, "hot chunk {c} now on DRAM");
    }
    // Bit-exact content after the migration, via the normal read path.
    for c in 0..CHUNKS {
        region.read_chunk(c, &mut buf).unwrap();
        assert_eq!(buf, chunk_image(c, 0), "chunk {c}");
    }
    // The bandwidth-aware policy accepts the same region and never errors
    // into an over-budget plan.
    runtime
        .rebalance(&mut region, &BandwidthAwarePolicy, &workers)
        .unwrap();
    let shapes = region.tier_shapes();
    let counts = region.residency_map().counts().unwrap();
    for (tier, &count) in counts.iter().enumerate() {
        assert!(count as u64 * CHUNK <= shapes[tier].capacity_bytes);
    }
}

#[test]
fn crash_mid_copy_on_the_pmem_tier_never_tears_a_chunk() {
    let runtime = RuntimeBuilder::setup1().build();
    let workers = runtime
        .worker_pool_for(&AffinityPolicy::close(), 4)
        .unwrap();
    // Plan: push chunks 0 and 1 onto the expander. The pass reads the
    // residency map (one call), shadow-copies both moves (a read, a write
    // and a flush each) on the parallel executor, then flips each move's
    // residency (an entry read and a one-range transaction).
    let copy_calls = 1 + 2 * 3;
    let positions = Crash::sweep(|k, torn| {
        let case = format!("call {k}/{torn}");
        let (crash, mut region) = crashable_region(&runtime, "tier-crash-copy", 5);
        let before = region.residency().unwrap();
        let mut tier_of = before.clone();
        tier_of[0] = 1;
        tier_of[1] = 1;
        crash.arm(k, torn);
        let result = region.migrate_to(
            &TierAssignment { tier_of },
            &streamer_repro::cxl_pmem::PooledChunkExecutor(&workers),
        );
        crash.revive();
        if k < copy_calls {
            // Whichever lanes copied before the host died, no residency flip
            // happened: every chunk reads from its original tier, bit-exact
            // — the shadow copy is invisible.
            assert!(died(&result), "{case}");
            assert_eq!(region.residency().unwrap(), before, "{case}");
        }
        assert_intact(&region, 5, &case);
        died(&result)
    });
    println!("migration copy sweep: {positions} crash positions");
    assert_eq!(positions as u64, 2 * (copy_calls + 2 * 10 + 1));
}

#[test]
fn crash_mid_commit_on_the_pmem_tier_rolls_back_and_recovers() {
    let runtime = RuntimeBuilder::setup1().build();
    let mut stranded = 0;
    let positions = Crash::sweep(|k, torn| {
        let case = format!("call {k}/{torn}");
        let (crash, mut region) = crashable_region(&runtime, "tier-crash-commit", 6);
        let before = region.residency().unwrap();
        let mut tier_of = before.clone();
        tier_of[3] = 1;
        let assignment = TierAssignment { tier_of };
        crash.arm(k, torn);
        let crashed = died(&region.migrate_to(&assignment, &streamer_repro::pmem::SerialExecutor));
        crash.revive();
        if region.residency_map().pool().tx_log_active().unwrap() {
            // The migration record is stranded mid-commit. Recovery (the
            // same pass a pool reopen runs) rolls the flip back.
            stranded += 1;
            region.recover().unwrap();
            assert_eq!(region.residency().unwrap(), before, "{case}");
        }
        // Chunk 3 reads from whichever one tier its residency names.
        assert_intact(&region, 6, &case);
        // And the region is live: the same plan now commits and the chunk
        // moves (or it moved already).
        let stats = region
            .migrate_to(&assignment, &streamer_repro::pmem::SerialExecutor)
            .unwrap();
        assert!(stats.chunks_moved <= 1, "{case}");
        assert_eq!(region.residency().unwrap()[3], 1, "{case}");
        assert_intact(&region, 6, &case);
        crashed
    });
    println!("migration commit sweep: {positions} crash positions, {stranded} stranded");
    // One move: the residency read, one shadow copy, one flip.
    assert_eq!(positions, 2 * (1 + 3 + 10 + 1));
    assert_eq!(stranded, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_random_access_and_rebalance_conserve_every_chunk(
        ops in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let runtime = RuntimeBuilder::setup1().build();
        let mut region = region(&runtime, "tier-prop");
        let workers = runtime.worker_pool_for(&AffinityPolicy::close(), 4).unwrap();
        // Mirror of the last committed content per chunk.
        let mut mirror: Vec<Vec<u8>> = (0..CHUNKS).map(|c| {
            let data = chunk_image(c, 0);
            region.write_chunk(c, &data).unwrap();
            data
        }).collect();

        for op in ops {
            match op % 4 {
                // Write a random chunk with fresh content.
                0 => {
                    let chunk = (op >> 8) as usize % CHUNKS;
                    let data = chunk_image(chunk, (op >> 16) as u8 | 1);
                    region.write_chunk(chunk, &data).unwrap();
                    mirror[chunk] = data;
                }
                // Read a random chunk (heats it up).
                1 => {
                    let chunk = (op >> 8) as usize % CHUNKS;
                    let mut buf = vec![0u8; CHUNK as usize];
                    region.read_chunk(chunk, &mut buf).unwrap();
                    prop_assert_eq!(&buf, &mirror[chunk]);
                }
                // Rebalance under a randomly chosen policy.
                _ => {
                    let planner: &dyn TierPlanner = match (op >> 8) % 3 {
                        0 => &StaticSpillPolicy,
                        1 => &HotGreedyPolicy,
                        _ => &BandwidthAwarePolicy,
                    };
                    runtime.rebalance(&mut region, planner, &workers).unwrap();
                }
            }
            // Invariants after every operation: residency names exactly one
            // in-range tier per chunk, budgets hold, content is conserved.
            let residency = region.residency().unwrap();
            prop_assert_eq!(residency.len(), CHUNKS);
            let shapes = region.tier_shapes();
            prop_assert!(residency.iter().all(|&t| t < shapes.len()));
            let counts = region.residency_map().counts().unwrap();
            prop_assert_eq!(counts.iter().sum::<usize>(), CHUNKS);
            for (tier, &count) in counts.iter().enumerate() {
                prop_assert!(count as u64 * CHUNK <= shapes[tier].capacity_bytes);
            }
        }
        // Full content audit at the end: nothing lost, nothing duplicated,
        // nothing torn by any migration interleaving.
        for (c, expected) in mirror.iter().enumerate() {
            let mut buf = vec![0u8; CHUNK as usize];
            region.read_chunk(c, &mut buf).unwrap();
            prop_assert_eq!(&buf, expected, "chunk {} diverged", c);
        }
    }
}
