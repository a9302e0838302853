//! Fleet serving: the QoS admission front door.
//!
//! Criterion times the two hot paths a serving front door has: the admission
//! `submit` fast path and a full scenario run
//! ([`streamer::fleet::run_fleet`]). The gated per-class report and
//! `BENCH_fleet.json` come from `streamer scenario fleet`.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_pmem::admission::{AdmissionController, ClassConfig, QosClass};
use std::hint::black_box;
use streamer::fleet;

const MIB: u64 = 1024 * 1024;

fn fleet_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_serving");
    group.sample_size(10);
    group.bench_function("admission_submit", |b| {
        let controller = AdmissionController::new(
            [ClassConfig {
                rate_bytes_per_sec: 1e12,
                burst_bytes: u64::MAX / 2,
                queue_depth: 64,
            }; 3],
        );
        let mut now = 0.0f64;
        b.iter(|| {
            now += 1e-6;
            black_box(controller.submit(QosClass::Checkpoint, MIB, now)).expect("admit")
        })
    });
    group.bench_function("run_fleet", |b| {
        b.iter(|| black_box(fleet::run_fleet()).expect("fleet scenario"))
    });
    group.finish();
}

criterion_group!(benches, fleet_serving);
criterion_main!(benches);
