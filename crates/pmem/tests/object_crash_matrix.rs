//! The exhaustive object-store crash matrix: the writer host dies at every
//! backend call of a put, a commit and a delete, with whole and torn
//! writes, each recovered by the same host and by a spare host — and, after
//! each crash that strands the undo log, the recovering host's first reboot
//! dies at every call of its own pool open. Deterministically enumerated
//! (no sampling), over a *shared* far-memory window.
//!
//! Each case builds a fresh pooled window, has host 0 format an
//! [`ObjectStore`] over a crash-wrapped backend ([`Crash`]), commit a
//! baseline version of every object and publish, then runs the op on one
//! target object with the crash armed. The writer host "dies"; the case then
//! reboots — either the same host reattaching, or a spare host acquiring the
//! window — which reruns undo-log recovery over the shared bytes. The
//! restored target must be **bit-exact** for a committed version (the
//! baseline, or the attempt when the commit record landed first), every
//! bystander object must be untouched, and the directory must conserve.
//! Never a torn mixture, on any host.
//!
//! A put makes 3 calls (the entry read, the slot write, its flush); a
//! commit 13 and a delete 13 (the two-range commit record, which reads the
//! entry and the counters through its transaction; see the `object` module
//! docs).

use pmem::{Crash, ObjectStore, PmemPool, SharedRegionBackend};
use std::sync::Arc;

const CAPACITY: u64 = 8;
const VALUE_LEN: u64 = 64;
const TARGET: u64 = 3;
const LAYOUT: &str = "object-matrix";
const WINDOW: u64 = 4 * 1024 * 1024;
/// The target's committed epoch before the crashing op.
const BASELINE: u64 = 2;

/// The op the writer dies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Staging the next version of the target.
    Put,
    /// Committing the staged version (the put ran clean).
    Commit,
    /// Deleting the target.
    Delete,
}

/// Deterministic payload for object `id` at committed epoch `epoch`.
fn value_for(id: u64, epoch: u64) -> Vec<u8> {
    (0..VALUE_LEN)
        .map(|i| (i.wrapping_mul(37) ^ id.wrapping_mul(131) ^ epoch.wrapping_mul(17)) as u8)
        .collect()
}

/// What one case did and restored.
struct Outcome {
    /// The target's committed epoch after the reboot, `None` once deleted.
    restored: Option<u64>,
    /// Whether the crash fired inside the op.
    crashed: bool,
    /// Whether the crash left the undo log active.
    stranded: bool,
    /// Whether the first reboot died too.
    reboot_crashed: bool,
}

/// Runs one case end to end: `op` dies at call `at` (whole or torn); when
/// that strands the undo log and `reboot` is given, the recovering host's
/// first pool open dies at that position, and a second open recovers.
fn run_case(op: Op, at: (u64, bool), host: usize, reboot: Option<(u64, bool)>) -> Outcome {
    let case = format!("{op:?} × call {at:?} × host{host} × reboot {reboot:?}");
    let device = Arc::new(cxl::Type3Device::new(
        "pooled-expander",
        8 * 1024 * 1024,
        cxl::LinkConfig::gen5_x16(),
    ));
    let window = Arc::new(
        cxl::SharedRegion::new(device, 0, WINDOW, cxl::CoherenceMode::SoftwareManaged).unwrap(),
    );
    let backend = |host: usize| Arc::new(SharedRegionBackend::new(Arc::clone(&window), host));

    // Host 0 formats the store, commits a baseline version of every object,
    // bumps the target once more (so its slots have both parities in play)
    // and publishes.
    let crash = Crash::new();
    let (crashed, stranded) = {
        let pool = PmemPool::create_with_backend(crash.wrap(backend(0)), LAYOUT).unwrap();
        let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
        pool.set_root(store.oid(), ObjectStore::region_size(CAPACITY, VALUE_LEN))
            .unwrap();
        for id in 0..CAPACITY {
            store.put_commit(id, &value_for(id, 1)).unwrap();
        }
        store
            .put_commit(TARGET, &value_for(TARGET, BASELINE))
            .unwrap();
        window.attach(0).publish();

        // The crashing op on the target object.
        let attempt = value_for(TARGET, BASELINE + 1);
        if op == Op::Commit {
            store.put(TARGET, &attempt).unwrap();
        }
        crash.arm(at.0, at.1);
        let result = match op {
            Op::Put => store.put(TARGET, &attempt),
            Op::Commit => store.commit(TARGET).map(drop),
            Op::Delete => store.delete(TARGET),
        };
        if let Err(e) = &result {
            assert!(e.is_injected_crash(), "{case}: {e}");
        }
        crash.revive();
        (result.is_err(), pool.tx_log_active().unwrap())
    }; // the writer host dies: its pool handle and volatile state are gone

    // "Reboot": reattach over the same shared bytes — as the same host or as
    // a spare host acquiring the window. Open replays the undo log; the
    // first open may die at its own call `r`.
    let host_backend = backend(host);
    if host != 0 {
        window.attach(host).acquire();
    }
    let mut reboot_crashed = false;
    if let (true, Some((r, torn))) = (stranded, reboot) {
        let again = Crash::new();
        again.arm(r, torn);
        if let Err(e) = PmemPool::open_with_backend(again.wrap(backend(host)), LAYOUT) {
            assert!(e.is_injected_crash(), "{case}: {e}");
            reboot_crashed = true;
        }
    }
    let pool = PmemPool::open_with_backend(host_backend, LAYOUT).unwrap();
    assert!(!pool.tx_log_active().unwrap(), "{case}: open recovers");
    let store = ObjectStore::open_root(&pool).unwrap();

    let restored = if store.contains(TARGET).unwrap() {
        let epoch = store.committed_version(TARGET).unwrap();
        assert_eq!(
            store.get(TARGET).unwrap(),
            value_for(TARGET, epoch),
            "{case}: the target must restore a committed version bit-exact"
        );
        Some(epoch)
    } else {
        None
    };
    let want: &[Option<u64>] = match op {
        Op::Put => &[Some(BASELINE)],
        Op::Commit => &[Some(BASELINE), Some(BASELINE + 1)],
        Op::Delete => &[Some(BASELINE), None],
    };
    assert!(want.contains(&restored), "{case}: restored {restored:?}");
    for id in (0..CAPACITY).filter(|&id| id != TARGET) {
        assert_eq!(
            store.get(id).unwrap(),
            value_for(id, 1),
            "{case}: bystander object {id} must be untouched"
        );
    }
    let check = store.verify().unwrap();
    let live = CAPACITY - u64::from(restored.is_none());
    assert_eq!(check.live, live, "{case}: every other object stays live");
    assert_eq!(
        check.live + check.free,
        CAPACITY,
        "{case}: directory conservation"
    );
    Outcome {
        restored,
        crashed,
        stranded,
        reboot_crashed,
    }
}

#[test]
fn object_crash_matrix_is_exhaustive_and_never_restores_torn_state() {
    let (mut positions, mut reboots) = (0usize, 0usize);
    for op in [Op::Put, Op::Commit, Op::Delete] {
        for host in [0usize, 1] {
            let mut moved = [false; 2];
            let mut landed = 0usize;
            let swept = Crash::sweep(|k, torn| {
                let outcome = run_case(op, (k, torn), host, None);
                let moves = outcome.restored != Some(BASELINE);
                // Once the commit record is durable it stays durable.
                let was_moved = &mut moved[usize::from(torn)];
                assert!(moves || !*was_moved, "{op:?} × {k}/{torn} rolled back");
                *was_moved |= moves;
                landed += usize::from(moves);
                if outcome.stranded {
                    // A stranded record always rolls back.
                    reboots += Crash::sweep(|r, torn_r| {
                        let again = run_case(op, (k, torn), host, Some((r, torn_r)));
                        assert_eq!(again.restored, Some(BASELINE), "{op:?} {k}/{torn}");
                        again.reboot_crashed
                    });
                }
                outcome.crashed
            });
            // A torn staging slot never surfaces; a commit record lands from
            // the clear's persist (or the clear itself, torn) on.
            let (calls, landing) = match op {
                Op::Put => (3, 0),
                Op::Commit | Op::Delete => (13, 5),
            };
            assert_eq!(swept, 2 * (calls + 1), "{op:?} × host{host}");
            assert_eq!(landed, landing, "{op:?} × host{host}");
            positions += swept;
        }
    }
    println!("object crash matrix: {positions} op positions, {reboots} reboot positions");
    assert_eq!(positions, 2 * (8 + 28 + 28));
    assert!(reboots >= 24, "{reboots} reboot positions");
}

#[test]
fn object_crash_matrix_cases_are_deterministic() {
    // The writer dies tearing the staged slot, on the commit record's entry
    // write, on the clear of its log, on the clear's persist (landed), and
    // tearing a delete's clear (landed). After the stranded clear the spare
    // host's first reboot dies after replaying one undo entry: the pool
    // header read, the log header read, both entries' words, the later
    // entry's read, write and persist. Each run restores the same epoch.
    for (op, at, reboot) in [
        (Op::Put, (1, true), None),
        (Op::Commit, (9, false), None),
        (Op::Commit, (13, false), Some((9, false))),
        (Op::Commit, (14, false), None),
        (Op::Delete, (13, true), None),
    ] {
        let first = run_case(op, at, 1, reboot).restored;
        assert_eq!(
            first,
            run_case(op, at, 1, reboot).restored,
            "{op:?} × {at:?} must restore the same epoch every run"
        );
    }
}
