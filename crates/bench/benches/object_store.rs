//! Object store: the versioned-object hot paths and the gated objects report.
//!
//! Two things happen here. First, the full objects scenario
//! ([`streamer::objects::run_objects`]) is executed once at CI scale
//! (≥ 100k objects, 4 hosts, the cross-host tear matrix) and its verdict plus
//! per-op-class p50/p99 distribution is written to `BENCH_objects.json` at
//! the repository root, where the CI `bench-smoke` job gates the functional
//! booleans, the per-class `served + rejected == submitted` conservation and
//! the latency floor. Second, criterion times the KV hot paths themselves: a
//! raw [`ObjectStore`] `put_commit` (slot write + flush + drain + undo-log
//! commit record) and a committed `get` (entry + payload checksum
//! validation), plus a smoke-scale scenario run end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use pmem::{ObjectStore, PmemPool};
use std::hint::black_box;
use streamer::objects::{self, ObjectsConfig};

const CAPACITY: u64 = 1024;
const VALUE_LEN: u64 = 64;

fn object_store(c: &mut Criterion) {
    // --- the gated report --------------------------------------------------
    let report = objects::run_objects(&ObjectsConfig::full()).expect("objects scenario");
    for class in &report.classes {
        println!(
            "{:<10} {:>4} submitted  {:>4} served  {:>4} rejected  \
             p50 {:8.2} ms  p99 {:8.2} ms",
            class.name, class.submitted, class.served, class.rejected, class.p50_ms, class.p99_ms,
        );
    }
    println!(
        "{} objects on {} hosts  crash cells {}  survived {}  conserved {}  coherent {}",
        report.objects,
        report.hosts,
        report.crash_cells,
        report.crash_survived,
        report.store_conserved,
        report.coherence_enforced,
    );
    assert!(
        report.all_hold(),
        "the object-store acceptance gates failed — see the report above"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_objects.json");
    std::fs::write(out, objects::report_json(&report)).expect("write BENCH_objects.json");
    println!("wrote {out}");

    // --- criterion timing --------------------------------------------------
    let mut group = c.benchmark_group("object_store");
    group.sample_size(10);
    group.bench_function("put_commit", |b| {
        let pool = PmemPool::create_volatile(
            "bench-objects",
            ObjectStore::required_pool_size(CAPACITY, VALUE_LEN),
        )
        .expect("pool");
        let mut store = ObjectStore::format(&pool, CAPACITY, VALUE_LEN).expect("store");
        let value = [0xA5u8; VALUE_LEN as usize];
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 1) % CAPACITY;
            black_box(store.put_commit(id, &value)).expect("put_commit")
        })
    });
    group.bench_function("get_committed", |b| {
        let pool = PmemPool::create_volatile(
            "bench-objects",
            ObjectStore::required_pool_size(CAPACITY, VALUE_LEN),
        )
        .expect("pool");
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
