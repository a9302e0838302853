//! A spare host's failover allocates no image-sized buffer: open validates
//! the committed slot through one chunk-sized buffer per job in flight, and
//! the restore reads into the caller's buffer, so what a takeover allocates
//! grows with the image only by its per-chunk tables. That holds on a
//! serial cluster and on a runtime-built one, whose spare validates and
//! restores on the runtime's resident workers.
//!
//! The test counts allocations with a global allocator, so this file holds
//! a single test: nothing else in the binary allocates while it measures.

use std::sync::Arc;
use streamer_repro::cxl::{CoherenceMode, LinkConfig, Type3Device};
use streamer_repro::cxl_pmem::{DisaggregatedCluster, RuntimeBuilder};

mod counting_alloc;

const MIB: u64 = 1024 * 1024;
const CHUNK: u64 = 64 * 1024;

/// A one-card cluster whose segments open and restore on the calling thread.
fn serial_cluster() -> DisaggregatedCluster {
    let cluster = DisaggregatedCluster::new("failover-rack", CoherenceMode::SoftwareManaged);
    cluster.attach_device(Arc::new(Type3Device::new(
        "pooled-card",
        64 * MIB,
        LinkConfig::gen5_x16(),
    )));
    cluster
}

/// A one-card cluster holding the runtime's resident worker pool.
fn pooled_cluster() -> DisaggregatedCluster {
    RuntimeBuilder::setup1()
        .build()
        .disaggregated_cluster(1, CoherenceMode::SoftwareManaged)
}

/// Chunk buffers a pooled validation of a `len`-byte image provisions: one
/// per worker of the runtime-built cluster's pool (one per host CPU, at most
/// the topology's), and no more than the image has chunks.
fn pooled_buffers(workers: u64, len: u64) -> u64 {
    workers.min(len / CHUNK)
}

#[test]
fn failover_allocates_independently_of_image_size() {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get() as u64)
        .min(RuntimeBuilder::setup1().build().topology().num_hw_threads() as u64);
    // On a host with more CPUs than the 1 MiB image has chunks, the 8 MiB
    // image keeps more jobs in flight and so takes more buffers: exactly
    // those, and nothing else, may grow with the image.
    let extra_buffers = pooled_buffers(workers, 8 * MIB) - pooled_buffers(workers, MIB);
    for (kind, cluster, extra) in [
        ("serial", serial_cluster as fn() -> DisaggregatedCluster, 0),
        ("pooled", pooled_cluster, extra_buffers * CHUNK),
    ] {
        let mut allocated = Vec::new();
        for len in [MIB, 8 * MIB] {
            let cluster = cluster();
            let older: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut committed = older.clone();
            for chunk in committed.chunks_mut(CHUNK as usize).step_by(4) {
                chunk[0] ^= 0xFF;
            }
            {
                let mut writer = cluster.host(0).create_segment("ckpt", len, CHUNK).unwrap();
                writer.checkpoint(&older).unwrap();
                writer.checkpoint(&committed).unwrap();
            }
            let mut out = vec![0u8; len as usize];

            let before = counting_alloc::allocated();
            let mut spare = cluster.host(1).attach_segment("ckpt").unwrap();
            spare.acquire().unwrap();
            assert_eq!(spare.committed_epoch().unwrap(), 2);
            assert_eq!(spare.restore(&mut out).unwrap(), 2);
            allocated.push(counting_alloc::allocated() - before);

            assert_eq!(out, committed, "{kind}");
        }
        println!("{kind} failover allocates {allocated:?} bytes at 1 and 8 MiB");
        // The 8 MiB image has 112 more chunks than the 1 MiB one; a buffer
        // sized to either image (let alone one per slot or per chunk)
        // would show as megabytes here.
        assert!(
            allocated[1].saturating_sub(allocated[0]) < CHUNK + extra,
            "bytes allocated per {kind} failover must grow by less than one chunk \
             (plus {extra} B of buffers for extra jobs in flight): {allocated:?}"
        );
    }
}
