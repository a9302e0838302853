//! Pins the on-media bytes of the three versioned layouts.
//!
//! Each layout is formatted with a fixed shape in a pool of its own and
//! driven through a fixed sequence of operations. The FNV-1a digest of the
//! layout's own region bytes must then equal the constant recorded here. The
//! pool header is left out: its uuid mixes in the creating process id.
//!
//! A refactor of the layout code must leave every constant unchanged. A
//! format change must bump the layout's format version and update its
//! constant in the same change.

use pmem::pool::fnv1a;
use pmem::{CheckpointRegion, ObjectStore, PmemOid, PmemPool, ResidencyMap};
use std::sync::Arc;

/// Digest of the `len` region bytes starting at `oid`.
fn region_digest(pool: &PmemPool, oid: PmemOid, len: u64) -> u64 {
    let mut bytes = vec![0u8; len as usize];
    pool.read(oid.offset, &mut bytes).unwrap();
    fnv1a(&bytes)
}

#[test]
fn checkpoint_region_bytes_are_pinned() {
    // Three full chunks and a partial one.
    const DATA: u64 = 3 * 1024 + 100;
    const CHUNK: u64 = 1024;
    let pool =
        PmemPool::create_volatile("media", CheckpointRegion::required_pool_size(DATA, CHUNK))
            .unwrap();
    let mut region = CheckpointRegion::format(&pool, DATA, CHUNK).unwrap();
    let image = |tag: u8| -> Vec<u8> {
        (0..DATA as usize)
            .map(|i| (i as u8).wrapping_mul(29).wrapping_add(tag))
            .collect()
    };
    region.checkpoint(&image(1)).unwrap();
    region.checkpoint(&image(2)).unwrap();
    let mut third = image(2);
    third[CHUNK as usize + 7] ^= 0x5A;
    let stats = region.checkpoint(&third).unwrap();
    assert_eq!((stats.epoch, stats.chunks_written), (3, 4));

    let digest = region_digest(
        &pool,
        region.oid(),
        CheckpointRegion::region_size(DATA, CHUNK),
    );
    assert_eq!(digest, 0x1e94_b14f_2b5e_9a69, "checkpoint media moved");
}

#[test]
fn object_store_bytes_are_pinned() {
    const CAPACITY: u64 = 80;
    const VALUE_LEN: u64 = 48;
    let pool = PmemPool::create_volatile(
        "media",
        ObjectStore::required_pool_size(CAPACITY, VALUE_LEN),
    )
    .unwrap();
    let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).unwrap();
    let value = |id: u64, version: u64| -> Vec<u8> {
        let len = 1 + (id * 7 + version) % VALUE_LEN;
        (0..len)
            .map(|i| (id.wrapping_mul(31) ^ version.wrapping_mul(7) ^ i) as u8)
            .collect()
    };
    for id in 0..64 {
        store.put_commit(id, &value(id, 1)).unwrap();
    }
    for id in (0..64).step_by(3) {
        store.put_commit(id, &value(id, 2)).unwrap();
    }
    for id in (0..64).step_by(5) {
        store.delete(id).unwrap();
    }
    assert_eq!(store.verify().unwrap().live, 64 - 13);

    let digest = region_digest(
        &pool,
        store.oid(),
        ObjectStore::region_size(CAPACITY, VALUE_LEN),
    );
    assert_eq!(digest, 0x4bd2_47e5_3a27_60a6, "object store media moved");
}

#[test]
fn residency_map_bytes_are_pinned() {
    let pool = Arc::new(PmemPool::create_volatile("media", 1 << 20).unwrap());
    let initial: Vec<u32> = (0..10).map(|i| i % 3).collect();
    let map = ResidencyMap::format(Arc::clone(&pool), 3, &initial).unwrap();
    map.commit_move(4, 1, 2).unwrap();

    let digest = region_digest(&pool, map.oid(), ResidencyMap::map_size(initial.len()));
    assert_eq!(digest, 0xee07_654f_1584_6825, "residency map media moved");
}
