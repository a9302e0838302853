//! Real-thread coherence stress: one writer host commits and publishes new
//! versions of a few objects while two reader hosts, each on its own thread,
//! acquire and read them in a loop.
//!
//! The interleavings are whatever the scheduler makes of three threads, so
//! the test pins an invariant, not a sequence: every get returns the exact
//! bytes of a version whose commit record landed, or a typed
//! [`ClusterError`] (a stale view refused, or a read torn by a concurrent
//! write and caught by the entry checksum or the payload hash). Never other
//! bytes, never a panic. It prints how often each outcome happened.
//!
//! A reader whose view moved refreshes its layout on the pool it holds, and
//! the refresh first runs that pool's undo-log recovery, as a pool open
//! does, over whatever log the live writer has in flight. That can roll a
//! landed commit back, or restore one record's old bytes over another
//! object's entry, which every later op on that object refuses with a typed
//! error. The writer's epochs that fall behind its rounds and its typed
//! failures are counted and printed, not refused, until a reader's refresh
//! stops recovering a live writer's log.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use streamer_repro::cxl::{LinkConfig, Type3Device};
use streamer_repro::prelude::*;

const OBJECTS: u64 = 4;
const VALUE_LEN: u64 = 64;
/// Versions the writer commits of each object.
const WRITER_ROUNDS: u64 = 1000;
const READERS: usize = 2;
/// Acquire-then-get-every-object rounds each reader runs at least, and at
/// most: past the minimum it stops once the writer is done.
const READER_ROUNDS: (u64, u64) = (50, 100_000);

/// Version `round` of object `id`: the round and the id, then a pattern
/// both determine.
fn value(id: u64, round: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(VALUE_LEN as usize);
    bytes.extend_from_slice(&round.to_le_bytes());
    bytes.extend_from_slice(&id.to_le_bytes());
    bytes.extend((16..VALUE_LEN).map(|i| (i ^ round.wrapping_mul(31) ^ id.wrapping_mul(7)) as u8));
    bytes
}

/// The round whose exact version of object `id` `bytes` are, if any.
fn round_of(id: u64, bytes: &[u8]) -> Option<u64> {
    let round = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    (value(id, round) == bytes).then_some(round)
}

/// How the gets of one host ended.
#[derive(Debug, Default)]
struct Outcomes {
    exact: u64,
    not_acquired: u64,
    refused_by_validation: u64,
    other_typed: u64,
}

impl Outcomes {
    /// Counts one get of object `id`, whose newest landed version is at most
    /// round `bound`: exact bytes of a landed version, or a typed error.
    fn count(&mut self, host: usize, id: u64, bound: u64, got: Result<Vec<u8>, ClusterError>) {
        match got {
            Ok(bytes) => {
                let round = round_of(id, &bytes);
                assert!(
                    round.is_some_and(|r| r <= bound),
                    "host {host} object {id}: bytes of no landed version \
                     (round {round:?}, at most {bound})"
                );
                self.exact += 1;
            }
            Err(ClusterError::NotAcquired { host: h, .. }) => {
                assert_eq!(h, host);
                self.not_acquired += 1;
            }
            Err(ClusterError::Pmem(_)) => self.refused_by_validation += 1,
            Err(_) => self.other_typed += 1,
        }
    }

    fn total(&self) -> u64 {
        self.exact + self.not_acquired + self.refused_by_validation + self.other_typed
    }
}

#[test]
fn readers_on_their_own_threads_get_committed_bytes_or_a_typed_error() {
    let cluster = DisaggregatedCluster::new("stress", CoherenceMode::SoftwareManaged);
    cluster.attach_device(Arc::new(Type3Device::new(
        "card",
        64 << 20,
        LinkConfig::gen5_x16(),
    )));
    let mut writer = cluster
        .host(0)
        .create_store("stress", OBJECTS, VALUE_LEN)
        .unwrap();
    for id in 0..OBJECTS {
        writer.put_commit(id, &value(id, 0)).unwrap();
    }
    // The newest round of each object whose commit may have landed: one
    // past the last whose put_commit returned.
    let landed: Vec<AtomicU64> = (0..OBJECTS).map(|_| AtomicU64::new(1)).collect();
    let (start, done) = (Barrier::new(READERS + 1), AtomicBool::new(false));

    let (readers, (behind, failed)) = std::thread::scope(|s| {
        let readers: Vec<_> = (1..=READERS)
            .map(|host| {
                let (cluster, landed, start, done) = (&cluster, &landed, &start, &done);
                s.spawn(move || {
                    let mut reader = cluster.host(host).open_store("stress").unwrap();
                    let mut seen = Outcomes::default();
                    start.wait();
                    for round in 0..READER_ROUNDS.1 {
                        if round >= READER_ROUNDS.0 && done.load(Ordering::Acquire) {
                            break;
                        }
                        reader.acquire().unwrap();
                        for (id, landed) in (0..OBJECTS).zip(landed) {
                            let got = reader.get(id);
                            seen.count(host, id, landed.load(Ordering::Acquire), got);
                        }
                    }
                    seen
                })
            })
            .collect();
        let (mut behind, mut failed) = (0u64, 0u64);
        start.wait();
        for round in 1..=WRITER_ROUNDS {
            for (id, landed) in (0..OBJECTS).zip(&landed) {
                match writer.put_commit(id, &value(id, round)) {
                    Ok(epoch) => behind += u64::from(epoch != round + 1),
                    Err(_) => failed += 1,
                }
                landed.store(round + 1, Ordering::Release);
            }
        }
        done.store(true, Ordering::Release);
        let readers: Vec<Outcomes> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread panicked"))
            .collect();
        (readers, (behind, failed))
    });
    for (host, seen) in (1..).zip(&readers) {
        println!("coherence stress: reader host {host}: {seen:?}");
        assert!(seen.total() >= READER_ROUNDS.0 * OBJECTS, "{seen:?}");
    }
    println!(
        "coherence stress: writer: {} commits, {behind} epochs behind their round, \
         {failed} typed failures",
        WRITER_ROUNDS * OBJECTS
    );

    // Quiescent: every host, acquired, reads each object as exact bytes of
    // a landed version or a typed error, and its audit ends typed too.
    for host in 0..=READERS {
        let mut store = cluster.host(host).open_store("stress").unwrap();
        store.acquire().unwrap();
        let mut seen = Outcomes::default();
        for id in 0..OBJECTS {
            seen.count(host, id, WRITER_ROUNDS, store.get(id));
        }
        let audit = store.verify().map(|check| (check.live, check.free));
        println!("coherence stress: quiescent host {host}: {seen:?}, audit {audit:?}");
        assert_eq!(seen.not_acquired, 0, "host {host} acquired");
    }
}
