//! Cross-host checkpoint/restart over switch-pooled, shared CXL far memory.
//!
//! The paper's disaggregated-HPC scenario end-to-end: a CXL 2.0 switch pools
//! two expander cards (§1.3), a segment is carved for a compute node and
//! exposed multi-headed (§2.2), the node checkpoints epochs into it and dies
//! mid-commit — and a spare node attaches, *acquires* (software-managed
//! coherence) and restores the last committed epoch bit-exact. The coherence
//! discipline is enforced, not advisory: restoring without the acquire is a
//! typed error instead of silently stale data.
//!
//! Paper: §1.3 (memory pooling) and §2.2 (multi-headed sharing, coherence
//! management). ROADMAP subsystem: **Disaggregation** (`ROADMAP.md`).
//!
//! Run with: `cargo run --example shared_far_memory`

use std::sync::Arc;
use streamer_repro::pmem::SharedRegionBackend;
use streamer_repro::prelude::*;

const DATA_LEN: u64 = 256 * 1024;
const CHUNK_LEN: u64 = 8 * 1024;
const CHUNKS: u64 = DATA_LEN / CHUNK_LEN;

fn iteration_state(epoch: u64) -> Vec<u8> {
    (0..DATA_LEN as usize)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(epoch as u8))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A rack-level CXL 2.0 switch pooling two expander cards, owned by the
    // disaggregated cluster; segments use software-managed coherence.
    let runtime = RuntimeBuilder::setup1().build();
    let cluster = runtime.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
    println!(
        "pool: {} devices, {} GiB total capacity",
        cluster.ports(),
        cluster.total_capacity() >> 30
    );

    // Reserve port 0 exclusively for host 0 — the switch now refuses to hand
    // that card's capacity to anyone else (the old example never bound).
    cluster.bind_port(0, 0)?;

    // Host 0 carves a checkpoint segment out of the pool. The segment holds a
    // full pmem pool + versioned checkpoint region inside a shared window.
    let mut node0 = cluster
        .host(0)
        .create_segment("stencil", DATA_LEN, CHUNK_LEN)?;
    println!(
        "host 0 carved segment '{}' ({} KiB assigned, {} GiB still unassigned)",
        node0.name(),
        cluster.assigned_to(0) >> 10,
        cluster.unassigned_capacity() >> 30
    );

    // Host 0 commits three epochs; each commit ends in a publish.
    for epoch in 1..=3u64 {
        let stats = node0.checkpoint(&iteration_state(epoch))?;
        println!(
            "host 0 committed epoch {} ({} of {} chunks flushed)",
            stats.epoch, stats.chunks_written, stats.chunks_total
        );
    }

    // Epoch 4 dies mid-commit: the commit record is torn and — crucially —
    // never published. Host 0's attempt runs on a pool of its own whose
    // backend a `Crash` wraps. The host dies on the clear of the record's
    // undo log: after it validated the target slot (its header and every
    // chunk), wrote and flushed every chunk, wrote and persisted the slot
    // header, and made the record's first eight backend calls.
    let crash = Crash::new();
    let backend = Arc::new(SharedRegionBackend::new(node0.region(), node0.host()));
    let pool = PmemPool::open_with_backend(crash.wrap(backend), node0.name())?;
    let mut region = CheckpointRegion::open_root(&pool)?;
    crash.arm(1 + CHUNKS + 2 * CHUNKS + 2 + 8, false);
    let err = region
        .checkpoint(&iteration_state(4))
        .expect_err("the injected crash fires");
    println!("host 0 died mid-commit of epoch 4: {err}");
    drop(region);
    drop(pool);
    drop(node0); // the compute node is gone; the pooled bytes are not

    // Host 1 (the spare node) attaches the same segment. Restoring *without*
    // acquiring is refused — the software-coherence discipline has teeth.
    let mut node1 = cluster.host(1).attach_segment("stencil")?;
    let mut restored = vec![0u8; DATA_LEN as usize];
    match node1.restore(&mut restored) {
        Err(ClusterError::NotAcquired { host, segment }) => {
            println!("host {host} must acquire '{segment}' first — refused as required")
        }
        other => panic!("stale restore must be refused, got {other:?}"),
    }

    // Acquire, then restore: pool recovery rolls the torn epoch-4 commit
    // back and epoch 3 comes out bit-exact.
    node1.acquire()?;
    let epoch = node1.restore(&mut restored)?;
    assert_eq!(restored, iteration_state(epoch));
    println!("host 1 acquired and restored epoch {epoch} bit-exact");

    // The spare node continues the epoch chain where the dead node left off.
    let stats = node1.checkpoint(&iteration_state(4))?;
    println!("host 1 continued with epoch {}", stats.epoch);

    // Dynamic capacity: tearing the segment down returns its bytes to the
    // pool.
    cluster.release_segment("stencil")?;
    println!(
        "released segment; {} GiB unassigned again",
        cluster.unassigned_capacity() >> 30
    );
    Ok(())
}
