//! Cross-host restart: the disaggregated cluster's federation guarantee,
//! proven at every backend call of a commit.
//!
//! Host A commits epochs into a switch-pooled shared segment, then dies at
//! every call of the next commit, with whole and torn writes, for both slot
//! parities: its attempt runs on a pool of its own over a crash-wrapped
//! backend (`Crash::wrap(SharedRegionBackend::new(handle.region(), A))`).
//! Host B then attaches the same segment, acquires, and must restore a
//! committed epoch **bit-exact** — the pre-crash one when the commit record
//! never became durable, the new one when it did — and must be able to
//! continue the epoch chain (post-failover liveness). After each crash that
//! strands the undo log, B's first pool open also dies at every call of its
//! recovery before B recovers through the cluster.

use std::sync::Arc;
use streamer_repro::cxl::{LinkConfig, Type3Device};
use streamer_repro::cxl_pmem::cluster::{
    CheckpointRegion, CoherenceMode, Crash, PmemPool, SharedRegionBackend,
};
use streamer_repro::cxl_pmem::{ClusterError, DisaggregatedCluster};
use streamer_repro::pmem;

const DATA_LEN: u64 = 16 * 1024;
const CHUNK_LEN: u64 = 2 * 1024;
const MIB: u64 = 1024 * 1024;

fn image(epoch: u64) -> Vec<u8> {
    (0..DATA_LEN as usize)
        .map(|i| (i as u8).wrapping_mul(23).wrapping_add(epoch as u8))
        .collect()
}

fn cluster() -> DisaggregatedCluster {
    let cluster = DisaggregatedCluster::new("matrix-rack", CoherenceMode::SoftwareManaged);
    cluster.attach_device(Arc::new(Type3Device::new(
        "pooled-card",
        64 * MIB,
        LinkConfig::gen5_x16(),
    )));
    cluster
}

/// A pool of `host`'s own over the segment's shared window, every call of
/// which `crash` counts.
fn crashable_pool(
    region: Arc<streamer_repro::cxl::SharedRegion>,
    host: usize,
    crash: &Crash,
) -> PmemPool {
    let backend = Arc::new(SharedRegionBackend::new(region, host));
    PmemPool::open_with_backend(crash.wrap(backend), "seg").unwrap()
}

/// What one case did and restored.
struct Outcome {
    /// The epoch host B restored.
    restored: u64,
    /// Whether host A's crash fired inside its commit.
    crashed: bool,
    /// Whether host A's crash left the undo log active.
    stranded: bool,
    /// Whether host B's first open died too.
    reboot_crashed: bool,
}

/// Runs one case: host A commits `pre` epochs through the cluster and dies
/// at call `at` of epoch `pre + 1`; when that strands the undo log and
/// `reboot` is given, host B's first pool open dies at that call of its
/// recovery. B then acquires, restores and continues through the cluster.
fn run_case(pre: u64, at: (u64, bool), reboot: Option<(u64, bool)>) -> Outcome {
    let label = format!("pre-{pre} × call {at:?} × reboot {reboot:?}");
    let cluster = cluster();
    let (crashed, stranded) = {
        let mut a = cluster
            .host(0)
            .create_segment("seg", DATA_LEN, CHUNK_LEN)
            .unwrap();
        for epoch in 1..=pre {
            a.checkpoint(&image(epoch)).unwrap();
        }
        let crash = Crash::new();
        let pool = crashable_pool(a.region(), 0, &crash);
        let mut region = CheckpointRegion::open_root(&pool).unwrap();
        crash.arm(at.0, at.1);
        let crashed = match region.checkpoint(&image(pre + 1)) {
            Ok(stats) => {
                // The attempt ran to its end; a commit ends in a publish.
                assert_eq!(stats.epoch, pre + 1, "{label}");
                a.region().attach(0).publish();
                false
            }
            Err(e) => {
                assert!(e.is_injected_crash(), "{label}: {e}");
                true
            }
        };
        drop(region);
        crash.revive();
        (crashed, pool.tx_log_active().unwrap())
    }; // host A torn down

    // Host B attaches and acquires; its first open may die mid-recovery.
    let mut b = cluster.host(1).attach_segment("seg").unwrap();
    b.acquire().unwrap();
    let mut reboot_crashed = false;
    if let (true, Some((r, torn))) = (stranded, reboot) {
        let again = Crash::new();
        again.arm(r, torn);
        let backend = Arc::new(SharedRegionBackend::new(b.region(), 1));
        if let Err(e) = PmemPool::open_with_backend(again.wrap(backend), "seg") {
            assert!(e.is_injected_crash(), "{label}: {e}");
            reboot_crashed = true;
        }
    }

    // B restores bit-exact through the cluster.
    let mut out = vec![0u8; DATA_LEN as usize];
    let restored = b.restore(&mut out).unwrap();
    assert!(
        restored == pre || restored == pre + 1,
        "{label}: wrong epoch {restored} restored"
    );
    assert_eq!(
        out,
        image(restored),
        "{label}: restored bytes not bit-exact"
    );

    // Post-failover liveness: B continues the epoch chain.
    let stats = b.checkpoint(&image(restored + 1)).unwrap();
    assert_eq!(stats.epoch, restored + 1, "{label}: failover host wedged");
    Outcome {
        restored,
        crashed,
        stranded,
        reboot_crashed,
    }
}

#[test]
fn cross_host_restore_survives_the_full_crash_matrix() {
    let (mut positions, mut reboots) = (0usize, 0usize);
    // Slot parity: crash while targeting slot 0 (pre = 1 committed epoch)
    // and slot 1 (pre = 2).
    for pre in [1u64, 2] {
        let mut kept = [false; 2];
        positions += Crash::sweep(|k, torn| {
            let outcome = run_case(pre, (k, torn), None);
            let keeps = outcome.restored == pre + 1;
            // Once the commit record is durable it stays durable.
            let was_kept = &mut kept[usize::from(torn)];
            assert!(keeps || !*was_kept, "pre-{pre} × {k}/{torn} rolled back");
            *was_kept |= keeps;
            if outcome.stranded {
                // Host B rolls a stranded record back, however many opens
                // it takes.
                reboots += Crash::sweep(|r, torn_r| {
                    let again = run_case(pre, (k, torn), Some((r, torn_r)));
                    assert_eq!(
                        again.restored, pre,
                        "pre-{pre} {k}/{torn} then {r}/{torn_r}"
                    );
                    again.reboot_crashed
                });
            }
            outcome.crashed
        });
    }
    println!("cross-host restore matrix: {positions} commit positions, {reboots} reboot positions");
    // Host A's fresh open validates the target slot first: its header for
    // pre = 1 (slot 0 never written), its header and 8 chunks for pre = 2;
    // then 8 chunk writes and flushes, the slot header, the 10-call record.
    assert_eq!(positions, 2 * (30 + 38));
    assert!(reboots >= 32, "{reboots} reboot positions");
}

#[test]
fn unpublished_segment_restore_is_a_typed_coherence_error() {
    let cluster = cluster();
    // Host A writes real bytes into the segment — media-durable, flushed —
    // but dies before its first commit record, so nothing was published:
    // after validating the target slot's header, eight chunk writes and
    // flushes, and the slot header's write and persist.
    {
        let a = cluster
            .host(0)
            .create_segment("seg", DATA_LEN, CHUNK_LEN)
            .unwrap();
        let crash = Crash::new();
        let pool = crashable_pool(a.region(), 0, &crash);
        let mut region = CheckpointRegion::open_root(&pool).unwrap();
        crash.arm(1 + 16 + 2, false);
        let err = region.checkpoint(&image(1)).unwrap_err();
        assert!(err.is_injected_crash());
    }
    let mut b = cluster.host(1).attach_segment("seg").unwrap();
    b.acquire().unwrap();
    let mut out = vec![0u8; DATA_LEN as usize];
    // Not silent staleness, not a garbage read: a typed coherence error.
    match b.restore(&mut out).unwrap_err() {
        ClusterError::NeverPublished { segment } => assert_eq!(segment, "seg"),
        other => panic!("expected NeverPublished, got {other}"),
    }
}

#[test]
fn restore_before_acquire_is_a_typed_coherence_error() {
    let cluster = cluster();
    let mut a = cluster
        .host(0)
        .create_segment("seg", DATA_LEN, CHUNK_LEN)
        .unwrap();
    a.checkpoint(&image(1)).unwrap();
    let mut b = cluster.host(1).attach_segment("seg").unwrap();
    let mut out = vec![0u8; DATA_LEN as usize];
    match b.restore(&mut out).unwrap_err() {
        ClusterError::NotAcquired { host, segment } => {
            assert_eq!(host, 1);
            assert_eq!(segment, "seg");
        }
        other => panic!("expected NotAcquired, got {other}"),
    }
    // The acquire unlocks exactly the published epoch.
    b.acquire().unwrap();
    assert_eq!(b.restore(&mut out).unwrap(), 1);
    assert_eq!(out, image(1));
}

#[test]
fn matrix_dimensions_are_reachable_through_the_facade() {
    // The matrix sweeps the one pmem crash: the cluster re-exports it, and
    // one handle counts the calls of every backend it wraps.
    let crash: pmem::Crash = Crash::new();
    let raw = Arc::new(pmem::VolatileBackend::new(4096));
    let first = crash.wrap(raw.clone());
    let second = crash.wrap(raw);
    crash.arm(1, false);
    first.persist(0, 8).unwrap();
    assert!(second.persist(0, 8).unwrap_err().is_injected_crash());
    assert_eq!(crash.calls(), 2);
}
