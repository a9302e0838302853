//! Conservation property for the object directory: random put/commit/delete
//! interleavings — with a reboot at the end — never lose, duplicate or tear
//! an object, and the directory plus free list always conserve.
//!
//! A shadow model (plain hash maps for staged and committed state) replays
//! the same interleaving; after every prefix the store must agree with the
//! model on liveness, and after the reboot (reopen over the same persistent
//! bytes, which reruns undo-log recovery) every committed object must read
//! back bit-exact at the model's epoch, every deleted/never-committed id
//! must be a typed miss, and `live + free` must equal the capacity.

use pmem::{ObjectStore, PmemError, PmemPool, SharedBackend, VolatileBackend};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const CAPACITY: u64 = 8;
const VALUE_LEN: u64 = 48;
const LAYOUT: &str = "object-conservation";

/// Deterministic payload derived from an op code; length varies from 1 to
/// the slot length so the directory's per-entry length is exercised too.
fn payload(code: u64) -> Vec<u8> {
    let len = 1 + (code % VALUE_LEN) as usize;
    (0..len)
        .map(|i| (code.wrapping_mul(97).wrapping_add(i as u64 * 13) >> 3) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each op code encodes (kind, id, payload): kind = code % 3
    /// (put / commit / delete), id = (code / 3) % capacity.
    #[test]
    fn prop_directory_conserves_under_random_interleavings(
        codes in proptest::collection::vec(0u64..30_000, 1..60)
    ) {
        let backend = VolatileBackend::new_persistent(
            ObjectStore::required_pool_size(CAPACITY, VALUE_LEN),
        );
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool = PmemPool::create_with_backend(shared, LAYOUT).unwrap();
        let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
        pool.set_root(store.oid(), ObjectStore::region_size(CAPACITY, VALUE_LEN))
            .unwrap();

        // The shadow model.
        let mut staged: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut committed: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();

        for &code in &codes {
            let id = (code / 3) % CAPACITY;
            match code % 3 {
                0 => {
                    let value = payload(code);
                    store.put(id, &value).unwrap();
                    staged.insert(id, value);
                }
                1 => match staged.remove(&id) {
                    Some(value) => {
                        let epoch = committed.get(&id).map_or(0, |&(e, _)| e) + 1;
                        prop_assert_eq!(store.commit(id).unwrap(), epoch);
                        committed.insert(id, (epoch, value));
                    }
                    None => {
                        let err = store.commit(id).unwrap_err();
                        prop_assert!(
                            matches!(err, PmemError::ObjectStore(_)),
                            "commit without a staged put must be typed: {}", err
                        );
                    }
                },
                _ => {
                    if committed.remove(&id).is_some() {
                        store.delete(id).unwrap();
                        // A delete also discards any staged put for the id.
                        staged.remove(&id);
                    } else {
                        let err = store.delete(id).unwrap_err();
                        prop_assert!(
                            matches!(err, PmemError::NoSuchObject(_)),
                            "deleting a missing object must be typed: {}", err
                        );
                    }
                }
            }
            // After every prefix: no object lost, none duplicated.
            prop_assert_eq!(store.live().unwrap(), committed.len() as u64);
        }

        let check = store.verify().unwrap();
        prop_assert_eq!(check.live, committed.len() as u64);
        prop_assert_eq!(check.live + check.free, CAPACITY);

        // "Reboot": reopen over the same persistent bytes (recovery runs) and
        // audit the full directory against the model.
        drop(store);
        drop(pool);
        let shared: SharedBackend = Arc::new(backend);
        let pool = PmemPool::open_with_backend(shared, LAYOUT).unwrap();
        let store = ObjectStore::open_root(&pool).unwrap();
        for id in 0..CAPACITY {
            match committed.get(&id) {
                Some((epoch, value)) => {
                    prop_assert_eq!(&store.get(id).unwrap(), value);
                    prop_assert_eq!(store.committed_version(id).unwrap(), *epoch);
                }
                None => {
                    prop_assert!(matches!(
                        store.get(id).unwrap_err(),
                        PmemError::NoSuchObject(_)
                    ));
                }
            }
        }
        let check = store.verify().unwrap();
        prop_assert_eq!(check.live, committed.len() as u64);
        prop_assert_eq!(check.live + check.free, CAPACITY);
    }
}
