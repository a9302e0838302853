//! Calibration: the topology-ingest hot paths.
//!
//! Criterion times parsing + compiling a reference description into a device
//! graph, and a full calibration run
//! ([`memsim::calibration::run_calibration`]). The gated calibration table and
//! `BENCH_calibration.json` come from `streamer scenario topology`.

use criterion::{criterion_group, criterion_main, Criterion};
use memsim::calibration::run_calibration;
use memsim::topology::{reference, TopologyDescription};
use std::hint::black_box;

fn calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(10);
    group.bench_function("ingest_reference_topology", |b| {
        b.iter(|| {
            let description =
                TopologyDescription::parse(black_box(reference::SPR_DUAL_CXL_INTERLEAVE))
                    .expect("reference parses");
            black_box(description.compile()).expect("reference compiles")
        })
    });
    group.bench_function("run_calibration", |b| {
        b.iter(|| black_box(run_calibration()))
    });
    group.finish();
}

criterion_group!(benches, calibration);
criterion_main!(benches);
