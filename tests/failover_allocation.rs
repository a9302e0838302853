//! A spare host's failover allocates no image-sized buffer: open validates
//! the committed slot through one chunk-sized buffer, and the restore reads
//! into the caller's buffer, so what a takeover allocates grows with the
//! image only by its per-chunk hash tables.
//!
//! The test counts allocations with a global allocator, so this file holds
//! a single test: nothing else in the binary allocates while it measures.

use std::sync::Arc;
use streamer_repro::cxl::{CoherenceMode, LinkConfig, Type3Device};
use streamer_repro::cxl_pmem::DisaggregatedCluster;

mod counting_alloc;

const MIB: u64 = 1024 * 1024;
const CHUNK: u64 = 64 * 1024;

#[test]
fn failover_allocates_independently_of_image_size() {
    let mut allocated = Vec::new();
    for len in [MIB, 8 * MIB] {
        let cluster = DisaggregatedCluster::new("failover-rack", CoherenceMode::SoftwareManaged);
        cluster.attach_device(Arc::new(Type3Device::new(
            "pooled-card",
            64 * MIB,
            LinkConfig::gen5_x16(),
        )));
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

        assert_eq!(out, committed);
    }
    // The 8 MiB image has 112 more chunks than the 1 MiB one; a buffer
    // sized to either image (let alone one per slot) would show as
    // megabytes here.
    assert!(
        allocated[1].saturating_sub(allocated[0]) < CHUNK,
        "bytes allocated per failover must grow by less than one chunk: {allocated:?}"
    );
}
