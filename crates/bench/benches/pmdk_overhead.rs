//! The §4 derived-claims analysis, including the 10–15 % PMDK overhead and the
//! 2–3 GB/s CXL fabric cost, plus a functional STREAM-PMem run that exercises
//! the real flush/transaction instrumentation of the object store.

use criterion::{criterion_group, criterion_main, Criterion};
use numa::{AffinityPolicy, PinnedPool};
use pmem::PmemPool;
use std::hint::black_box;
use stream_bench::{PmemStream, StreamConfig, VolatileStream};
use streamer::analysis::Analysis;

fn pmdk_overhead(c: &mut Criterion) {
    let analysis = Analysis::compute().expect("analysis");
    println!("{}", analysis.to_markdown());
    assert!(analysis.all_hold(), "paper claims must hold");

    let mut group = c.benchmark_group("pmdk_overhead");
    group.sample_size(10);
    group.bench_function("analysis_recompute", |b| {
        b.iter(|| black_box(Analysis::compute().expect("analysis")))
    });

    // Functional comparison: STREAM vs STREAM-PMem over the real object store
    // (small arrays — this measures the software path, not the paper machine).
    let machine = memsim::machines::sapphire_rapids_cxl_machine();
    let topo = machine.topology();
    let placement = AffinityPolicy::close().place(topo, 4).expect("placement");
    let worker_pool = PinnedPool::new(topo, &placement);
    let config = StreamConfig::small(100_000);
    group.bench_function("stream_volatile_functional", |b| {
        b.iter(|| {
            let mut stream = VolatileStream::new(config);
            black_box(stream.run(&worker_pool));
        })
    });
    group.bench_function("stream_pmem_functional", |b| {
        b.iter(|| {
            let pool = PmemPool::create_volatile("bench", 16 * 1024 * 1024).expect("pool");
            let mut stream = PmemStream::initiate(&pool, config).expect("arrays");
            black_box(stream.run(&worker_pool).expect("run"));
        })
    });
    group.finish();
}

criterion_group!(benches, pmdk_overhead);
criterion_main!(benches);
