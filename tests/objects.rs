//! Versioned-object-store integration tests: the KV surface, the
//! publish/acquire coherence discipline and the cross-host tear suite,
//! exercised through the public facade the way an application would use them.

use std::sync::Arc;
use streamer_repro::pmem::{PmemError, SharedRegionBackend};
use streamer_repro::prelude::*;
use streamer_repro::streamer::objects::{self, ObjectsConfig};

const VALUE_LEN: u64 = 96;

fn value(id: u64, epoch: u64) -> Vec<u8> {
    (0..VALUE_LEN)
        .map(|i| (i.wrapping_mul(29) ^ id.wrapping_mul(101) ^ epoch.wrapping_mul(7)) as u8)
        .collect()
}

fn runtime() -> CxlPmemRuntime {
    RuntimeBuilder::setup1().build()
}

#[test]
fn kv_lifecycle_spans_hosts_under_the_coherence_discipline() {
    let runtime = runtime();
    let pool = runtime.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
    let mut writer = pool.host(0).create_store("kv", 64, VALUE_LEN).unwrap();

    // First wave of committed versions.
    for id in 0..32u64 {
        writer.put(id, &value(id, 1)).unwrap();
        assert_eq!(writer.commit(id).unwrap(), 1);
    }

    // A reader on another host: refused before acquire, bit-exact after.
    let mut reader = pool.host(1).open_store("kv").unwrap();
    assert!(matches!(
        reader.get(5),
        Err(ClusterError::NotAcquired { host: 1, .. })
    ));
    reader.acquire().unwrap();
    for id in 0..32u64 {
        assert_eq!(reader.get(id).unwrap(), value(id, 1));
        assert_eq!(reader.committed_version(id).unwrap(), 1);
    }

    // The writer republishes; the reader is stale again (typed refusal, not
    // stale bytes), and current after re-acquiring.
    writer.put(5, &value(5, 2)).unwrap();
    assert_eq!(writer.commit(5).unwrap(), 2);
    assert!(matches!(
        reader.get(5),
        Err(ClusterError::NotAcquired { host: 1, .. })
    ));
    reader.acquire().unwrap();
    assert_eq!(reader.get(5).unwrap(), value(5, 2));

    // Deletes are typed misses afterwards, and the directory conserves.
    writer.delete(7).unwrap();
    reader.acquire().unwrap();
    assert!(matches!(
        reader.get(7),
        Err(ClusterError::Pmem(PmemError::NoSuchObject(7)))
    ));
    let check = writer.verify().unwrap();
    assert_eq!(check.live, 31);
    assert_eq!(check.live + check.free, 64);
}

#[test]
fn tear_suite_every_phase_and_point_recovers_on_a_spare_host() {
    // The full cross-host tear matrix through the facade: the writer host
    // dies at every call of a put (torn payload) and of a commit (torn
    // directory), whole and torn; the spare host must always read a
    // committed version.
    let mut cells = 0usize;
    for in_commit in [false, true] {
        cells += Crash::sweep(|k, torn| {
            let case = format!("commit {in_commit} × call {k}/{torn}");
            let runtime = runtime();
            let pool = runtime.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
            let mut writer = pool.host(0).create_store("torn", 32, VALUE_LEN).unwrap();
            let old = value(9, 1);
            let new = value(9, 2);
            writer.put(9, &old).unwrap();
            writer.commit(9).unwrap();

            // The writer's attempt runs on a pool of its own whose backend
            // the crash wraps.
            let crash = Crash::new();
            let backend = Arc::new(SharedRegionBackend::new(writer.region(), 0));
            let own = PmemPool::open_with_backend(crash.wrap(backend), "torn").unwrap();
            let mut store = ObjectStore::open_root(&own).unwrap();
            if in_commit {
                store.put(9, &new).unwrap();
            }
            crash.arm(k, torn);
            let result = if in_commit {
                store.commit(9).map(|epoch| assert_eq!(epoch, 2, "{case}"))
            } else {
                store.put(9, &new)
            };
            let crashed = match result {
                Err(e) => {
                    assert!(e.is_injected_crash(), "{case}: {e}");
                    true
                }
                // The op ran to its end; a commit ends in a publish.
                Ok(()) => {
                    writer.region().attach(0).publish();
                    false
                }
            };
            let landed = in_commit && !crashed;
            drop(store);
            drop(own);
            drop(writer); // the writer host is gone

            // The spare host attaches, recovery runs on its open, and the
            // bytes are an exact committed version — never a torn mixture.
            let mut spare = pool.host(1).open_store("torn").unwrap();
            spare.acquire().unwrap();
            let got = spare.get(9).unwrap();
            assert!(got == old || got == new, "{case}: torn bytes surfaced");
            if !in_commit {
                assert_eq!(got, old, "a torn staging slot must stay invisible");
            }
            if landed {
                assert_eq!(got, new, "a landed commit must be durable");
            }
            let check = spare.verify().unwrap();
            assert_eq!(check.live + check.free, 32, "{case}");
            crashed
        });
    }
    println!("object tear suite: {cells} crash positions");
    // A put makes 3 backend calls and a commit 13, each swept whole and
    // torn, plus the run past its end.
    assert_eq!(cells, 2 * (3 + 1) + 2 * (13 + 1), "counted coverage");
}

#[test]
fn classed_ops_and_the_scenario_verdict_hold_at_smoke_scale() {
    // The QoS-classed KV surface through the facade: a closed Background
    // class plus a tiny Checkpoint budget yields typed admission refusals.
    let runtime = runtime();
    let pool = runtime.disaggregated_cluster(2, CoherenceMode::SoftwareManaged);
    let mut writer = pool.host(0).create_store("qos", 16, VALUE_LEN).unwrap();
    let door = std::sync::Arc::new(AdmissionController::new([
        ClassConfig {
            rate_bytes_per_sec: 64.0,
            burst_bytes: VALUE_LEN,
            queue_depth: 0,
        },
        ClassConfig {
            rate_bytes_per_sec: 1e9,
            burst_bytes: 1 << 20,
            queue_depth: 4,
        },
        ClassConfig::closed(),
    ]));
    writer.set_front_door(door);
    writer.put_classed(0, &value(0, 1), 0.0).unwrap();
    assert!(matches!(
        writer.put_classed(1, &value(1, 1), 0.0),
        Err(ClusterError::Admission(_))
    ));

    // And the packaged scenario: the smoke config must satisfy every
    // scale-independent invariant (the full config is gated in CI).
    let report = objects::run_objects(&ObjectsConfig::smoke()).unwrap();
    assert!(report.holds_invariants());
    assert!(report.crash_cells >= 8);
    assert!(objects::report_json(&report).contains("\"store_conserved\": true"));
}
