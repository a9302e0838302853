//! The exhaustive crash matrix: the host dies at every backend call of a
//! checkpoint commit, with whole and torn writes, for both target-slot
//! parities, and — after each crash that strands the undo log — at every
//! call of the reboot that recovers it. Deterministically enumerated (no
//! sampling).
//!
//! Each case builds a fresh pool over a crash-wrapped backend
//! ([`Crash`]), commits baseline epochs until the next checkpoint targets
//! the required slot parity, arms the crash, and attempts the checkpoint. It
//! then simulates a reboot (reopen the pool over the same bytes, which runs
//! undo-log recovery) and asserts the restored state is **bit-exact** for a
//! committed epoch — the pre-crash baseline or, when the commit record
//! landed before the crash, the attempted epoch. Never a torn mixture, and
//! once one position keeps the attempt, every later one does.
//!
//! A 4-chunk commit into a validated slot makes 20 calls: a write and a
//! flush per chunk (0–7), the slot header's write and persist (8–9), and the
//! commit record (10–19; see the `tx` module docs). The record is durable
//! from the clear of its undo log on: the clear's persist (19), or the clear
//! itself when torn (18).

use pmem::{CheckpointRegion, Crash, PmemPool, VolatileBackend};
use std::sync::Arc;

const POOL_SIZE: u64 = 2 * 1024 * 1024;
const CHUNK: u64 = 256;
const CHUNKS: usize = 4;
const DATA: u64 = CHUNK * CHUNKS as u64;
const LAYOUT: &str = "crash-matrix";

/// Deterministic full-region image for an epoch; every chunk changes between
/// epochs, so a crashing attempt always has all chunks dirty.
fn image(epoch: u64) -> Vec<u8> {
    (0..DATA)
        .map(|i| (i.wrapping_mul(31) ^ epoch.wrapping_mul(131)) as u8)
        .collect()
}

/// What one case did and restored.
struct Outcome {
    /// The epoch the reboot restored.
    restored: u64,
    /// Whether the crash fired inside the checkpoint attempt.
    crashed: bool,
    /// Whether the crash left the undo log active.
    stranded: bool,
    /// Whether the first reboot died too.
    reboot_crashed: bool,
}

/// Runs one case end to end: the attempt targeting slot `parity` dies at
/// call `at` (whole or torn); when that strands the undo log and `reboot`
/// is given, the first reboot dies at that position of its pool open, and a
/// second reboot finishes the recovery.
fn run_case(parity: usize, at: (u64, bool), reboot: Option<(u64, bool)>) -> Outcome {
    let case = format!("slot{parity} × call {at:?} × reboot {reboot:?}");
    let backend = VolatileBackend::new_persistent(POOL_SIZE);
    let crash = Crash::new();
    let pool =
        PmemPool::create_with_backend(crash.wrap(Arc::new(backend.clone())), LAYOUT).unwrap();
    let mut region = CheckpointRegion::format(&pool, DATA, CHUNK).unwrap();
    pool.set_root(region.oid(), DATA).unwrap();

    // Commit baseline epochs until the next attempt lands on `parity`
    // (epoch e lives in slot e % 2), with at least one committed epoch to
    // fall back to. baseline ∈ {1, 2}.
    let mut baseline = 0u64;
    while baseline == 0 || ((baseline + 1) % 2) as usize != parity {
        baseline += 1;
        region.checkpoint(&image(baseline)).unwrap();
    }
    assert_eq!(region.next_slot(), parity, "{case}: parity setup");
    let attempt = baseline + 1;

    // The crashing attempt.
    crash.arm(at.0, at.1);
    let crashed = match region.checkpoint(&image(attempt)) {
        Ok(stats) => {
            assert_eq!(stats.epoch, attempt, "{case}");
            false
        }
        Err(e) => {
            assert!(e.is_injected_crash(), "{case}: {e}");
            true
        }
    };
    drop(region);
    crash.revive();
    let stranded = pool.tx_log_active().unwrap();
    drop(pool);

    // A reboot that dies at its own call `r` while it recovers.
    let mut reboot_crashed = false;
    if let (true, Some((r, torn))) = (stranded, reboot) {
        let again = Crash::new();
        again.arm(r, torn);
        if let Err(e) = PmemPool::open_with_backend(again.wrap(Arc::new(backend.clone())), LAYOUT) {
            assert!(e.is_injected_crash(), "{case}: {e}");
            reboot_crashed = true;
        }
    }

    // "Reboot": reopen over the same bytes. Open replays the undo log (the
    // slot-commit record) and the region validates its slots.
    let reopened = PmemPool::open_with_backend(Arc::new(backend), LAYOUT).unwrap();
    assert!(
        !reopened.tx_log_active().unwrap(),
        "{case}: open must finish recovery"
    );
    let region = CheckpointRegion::open_root(&reopened).unwrap();
    let restored = region.committed_epoch();
    assert!(
        restored == baseline || restored == attempt,
        "{case}: restored epoch {restored} is neither baseline nor attempt"
    );
    let mut bytes = vec![0u8; DATA as usize];
    assert_eq!(region.restore(&mut bytes).unwrap(), restored);
    assert_eq!(bytes, image(restored), "{case}: restored image is torn");

    // The reopened region must accept new checkpoints (full liveness, not
    // just read-back): the next epoch commits and restores cleanly.
    let mut region = region;
    let next = restored + 1;
    region.checkpoint(&image(next)).unwrap();
    let mut after = vec![0u8; DATA as usize];
    assert_eq!(region.restore(&mut after).unwrap(), next);
    assert_eq!(after, image(next), "{case}: post-recovery checkpoint");

    Outcome {
        restored,
        crashed,
        stranded,
        reboot_crashed,
    }
}

#[test]
fn crash_matrix_is_exhaustive_and_never_restores_torn_state() {
    let (mut positions, mut reboots, mut landed) = (0usize, 0usize, 0usize);
    for parity in 0..2usize {
        // baseline is 1 when the attempt targets slot 0, 2 when it targets
        // slot 1 — derived, then verified inside run_case.
        let baseline = if parity == 0 { 1 } else { 2 };
        let attempt = baseline + 1;
        let mut kept = [false; 2];
        positions += Crash::sweep(|k, torn| {
            let outcome = run_case(parity, (k, torn), None);
            let keeps = outcome.restored == attempt;
            // Once the commit record is durable it stays durable.
            let was_kept = &mut kept[usize::from(torn)];
            assert!(keeps || !*was_kept, "slot{parity} × {k}/{torn} rolled back");
            *was_kept |= keeps;
            landed += usize::from(keeps);
            if outcome.stranded {
                // A stranded record always rolls back, however many reboots
                // it takes.
                reboots += Crash::sweep(|r, torn_r| {
                    let again = run_case(parity, (k, torn), Some((r, torn_r)));
                    assert_eq!(again.restored, baseline, "{k}/{torn} then {r}/{torn_r}");
                    again.reboot_crashed
                });
            }
            outcome.crashed
        });
    }
    println!("checkpoint crash matrix: {positions} commit positions, {reboots} reboot positions");
    // 21 positions (20 calls and the uncrashed run) × whole/torn × 2 slots.
    assert_eq!(positions, 84);
    // Per slot: the clear's persist and the uncrashed run; torn, the clear
    // itself too.
    assert_eq!(landed, 10);
    assert!(reboots >= 32, "{reboots} reboot positions");
}

#[test]
fn crash_matrix_cases_are_deterministic() {
    // Same case, three runs: identical restored epoch every time (the matrix
    // enumerates, it does not sample). The host dies on the clear of the
    // undo log; then the first reboot dies after replaying the one undo entry
    // (the pool header read, the log header read, the entry's two words, its
    // replay's read, write and persist).
    for _ in 0..3 {
        assert_eq!(run_case(0, (18, false), None).restored, 1);
        let outcome = run_case(1, (18, false), Some((7, false)));
        assert!(outcome.stranded && outcome.reboot_crashed);
        assert_eq!(outcome.restored, 2);
    }
}
