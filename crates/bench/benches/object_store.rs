//! Object store: the versioned-object hot paths.
//!
//! Criterion times the KV hot paths themselves: a raw [`ObjectStore`]
//! `put_commit` (slot write + flush + drain + undo-log commit record) and a
//! committed `get` (entry + payload checksum validation), plus a smoke-scale
//! scenario run ([`streamer::objects::run_objects`]) end to end. The gated
//! full-scale report and `BENCH_objects.json` come from
//! `streamer scenario objects`.

use criterion::{criterion_group, criterion_main, Criterion};
use pmem::{ObjectStore, PmemPool};
use std::hint::black_box;
use streamer::objects::{self, ObjectsConfig};

const CAPACITY: u64 = 1024;
const VALUE_LEN: u64 = 64;

fn pool() -> PmemPool {
    let size = ObjectStore::required_pool_size(CAPACITY, VALUE_LEN);
    PmemPool::create_volatile("bench-objects", size).expect("pool")
}

fn object_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("object_store");
    group.sample_size(10);
    group.bench_function("put_commit", |b| {
        let pool = pool();
        let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).expect("store");
        let value = [0xA5u8; VALUE_LEN as usize];
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 1) % CAPACITY;
            black_box(store.put_commit(id, &value)).expect("put_commit")
        })
    });
    group.bench_function("get_committed", |b| {
        let pool = pool();
        let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).expect("store");
        let value = [0x5Au8; VALUE_LEN as usize];
        for id in 0..CAPACITY {
            store.put_commit(id, &value).expect("populate");
        }
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 1) % CAPACITY;
            black_box(store.get(id)).expect("get")
        })
    });
    group.bench_function("run_objects_smoke", |b| {
        b.iter(|| black_box(objects::run_objects(&ObjectsConfig::smoke())).expect("scenario"))
    });
    group.finish();
}

criterion_group!(benches, object_store);
criterion_main!(benches);
