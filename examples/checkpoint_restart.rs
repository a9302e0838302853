//! Checkpoint/restart of an iterative solver on CXL-backed persistent memory.
//!
//! The paper motivates PMem (and CXL memory as its successor) with fault
//! tolerance for scientific applications: checkpointing solver state to a
//! byte-addressable persistent tier is far cheaper than writing to a parallel
//! filesystem. This example uses the reusable checkpoint subsystem: a
//! [`CheckpointRegion`] with double-buffered, epoch-versioned slots on the CXL
//! expander, incremental dirty-chunk persists fanned across the runtime's
//! resident worker pool, and a transactional commit record. The run "crashes"
//! mid-commit, reboots via `restore_region`, and resumes from the last
//! committed epoch.
//!
//! Paper: §1.2/§1.4 (persistent memory for fault tolerance, the `libpmemobj`
//! programming model) and §5 (CXL memory as PMem for HPC). ROADMAP
//! subsystem: **Durability** (`ROADMAP.md`).
//!
//! Run with: `cargo run --example checkpoint_restart`
//!
//! [`CheckpointRegion`]: streamer_repro::pmem::CheckpointRegion

use streamer_repro::cxl_pmem::PooledChunkExecutor;
use streamer_repro::pmem::{Checkpointable, PmemError};
use streamer_repro::prelude::*;

const N: usize = 4096;
const CHECKPOINT_EVERY: u64 = 10;
const TOTAL_ITERATIONS: u64 = 60;
const CHUNK_LEN: u64 = 4096;
const WORKERS: usize = 4;

/// Solver state: the solution vector plus the iteration counter, snapshotted
/// as one image so both move together or not at all.
struct JacobiState {
    iteration: u64,
    u: Vec<f64>,
}

impl JacobiState {
    fn fresh() -> Self {
        JacobiState {
            iteration: 0,
            u: vec![0.0; N],
        }
    }

    const SNAPSHOT_LEN: u64 = 8 + (N as u64) * 8;

    /// One Jacobi sweep for -u'' = 1 with zero boundary conditions.
    fn sweep(&mut self, next: &mut Vec<f64>) {
        let h2 = 1.0 / ((N + 1) as f64 * (N + 1) as f64);
        let u = &self.u;
        next[0] = 0.5 * (u[1] + h2);
        for i in 1..N - 1 {
            next[i] = 0.5 * (u[i - 1] + u[i + 1] + h2);
        }
        next[N - 1] = 0.5 * (u[N - 2] + h2);
        std::mem::swap(&mut self.u, next);
        self.iteration += 1;
    }
}

impl Checkpointable for JacobiState {
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SNAPSHOT_LEN as usize);
        out.extend_from_slice(&self.iteration.to_le_bytes());
        for value in &self.u {
            out.extend_from_slice(&value.to_le_bytes());
        }
        out
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), PmemError> {
        if bytes.len() as u64 != Self::SNAPSHOT_LEN {
            return Err(PmemError::Checkpoint("unexpected snapshot length"));
        }
        self.iteration = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        self.u = bytes[8..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(())
    }
}

fn run_until(
    state: &mut JacobiState,
    region: &mut CheckpointRegion<'_>,
    exec: &PooledChunkExecutor<'_>,
    stop_after: Option<u64>,
) -> Result<(), PmemError> {
    let mut next = vec![0.0f64; N];
    while state.iteration < TOTAL_ITERATIONS {
        state.sweep(&mut next);
        if state.iteration.is_multiple_of(CHECKPOINT_EVERY) || state.iteration == TOTAL_ITERATIONS {
            let stats = region.checkpoint_object(state, exec)?;
            println!(
                "  epoch {} at iteration {}: {}/{} chunks persisted ({} bytes)",
                stats.epoch,
                state.iteration,
                stats.chunks_written,
                stats.chunks_total,
                stats.bytes_written,
            );
        }
        if stop_after == Some(state.iteration) {
            return Ok(());
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = RuntimeBuilder::setup1().build();
    // A checkpoint region on the expander tier, plus the resident worker pool
    // that fans the dirty-chunk flushes out (one flush batch per worker, one
    // drain per checkpoint).
    let pool = runtime.checkpoint_region(
        &TierPolicy::CxlExpander,
        "jacobi-cr",
        JacobiState::SNAPSHOT_LEN,
        CHUNK_LEN,
    )?;
    println!("checkpoint pool on {} ({})", pool.mount(), pool.describe());
    let workers = runtime.worker_pool_for(&AffinityPolicy::close(), WORKERS)?;
    let exec = PooledChunkExecutor(&workers);

    // Phase 1: checkpoint at iterations 10 and 20, run on to 30, then "crash"
    // while committing epoch 3 — the commit record is torn mid-transaction,
    // like a node dying mid-commit. The node works through a second pool
    // handle whose backend a `Crash` wraps.
    println!("phase 1: run until the failure");
    let crash = Crash::new();
    let node = PmemPool::open_with_backend(crash.wrap(pool.backend()), "jacobi-cr")?;
    let mut region = CheckpointRegion::open_root(&node)?;
    let mut state = JacobiState::fresh();
    run_until(&mut state, &mut region, &exec, Some(25))?;
    // Epoch 3 targets the slot epoch 1 validated and changes all of its
    // chunks: the node dies on the clear of the commit record's undo log,
    // after a write and a flush per chunk, the slot header's write and
    // persist, and the record's first eight backend calls.
    let chunks = region.chunk_count() as u64;
    crash.arm(2 * chunks + 2 + 8, false);
    let mut next = vec![0.0f64; N];
    while state.iteration < 30 {
        state.sweep(&mut next);
    }
    let crashed = region.checkpoint_object(&state, &exec);
    assert!(
        crashed.as_ref().unwrap_err().is_injected_crash(),
        "the injected crash must abort the checkpoint: {crashed:?}"
    );
    println!("  !! simulated node failure during the epoch-3 commit record");
    drop(region);
    drop(node);
    drop(pool);

    // Phase 2: "reboot" — reattach to the expander through the runtime. The
    // pool open replays the undo log (rolling the torn commit record back) and
    // the region restores the last committed epoch: iteration 20, not 0, and
    // not the torn epoch-3 image.
    println!("phase 2: recover and resume");
    let pool = runtime.restore_region(&TierPolicy::CxlExpander, "jacobi-cr")?;
    let mut region = CheckpointRegion::open_root(pool.pool())?;
    let mut state = JacobiState::fresh();
    let epoch = region.restore_object(&mut state)?;
    println!(
        "  restored epoch {epoch} → resuming from iteration {}",
        state.iteration
    );
    assert_eq!(epoch, 2, "the torn epoch-3 commit must roll back");
    assert_eq!(
        state.iteration, 20,
        "resume from the last durable checkpoint"
    );
    // Note the re-committed epoch 3 below persists 0 chunks: the crashed
    // attempt's chunk flushes were durable (only its commit record was torn),
    // and the deterministic solver reproduces the same image, so the
    // incremental dirty-chunk detection reuses all of them.
    run_until(&mut state, &mut region, &exec, None)?;
    assert_eq!(state.iteration, TOTAL_ITERATIONS);
    println!("  finished at iteration {}", state.iteration);

    // Sanity: the solution is positive in the interior, and the final state is
    // durably committed (a fresh restore agrees bit-for-bit).
    let mid = state.u[N / 2];
    println!("u[N/2] = {mid:.6}");
    assert!(mid > 0.0);
    let mut replay = JacobiState::fresh();
    region.restore_object(&mut replay)?;
    assert_eq!(replay.iteration, TOTAL_ITERATIONS);
    assert_eq!(replay.u, state.u, "committed image matches solver state");
    println!("checkpoint/restart on CXL-backed PMem completed successfully");
    Ok(())
}
