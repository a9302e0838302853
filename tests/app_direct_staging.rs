//! STREAM-PMem on the CXL expander computes in place on the device's bytes:
//! once its arrays exist, a run allocates only its per-invocation claim
//! counters and result slots, the same small amount however large the arrays
//! are.
//!
//! The test counts allocations with a global allocator, so this file holds
//! a single test: nothing else in the binary allocates while it measures.

use streamer_repro::cxl_pmem::{RuntimeBuilder, TierPolicy};
use streamer_repro::numa::AffinityPolicy;
use streamer_repro::stream::{PmemStream, StreamConfig};

mod counting_alloc;

#[test]
fn app_direct_runs_allocate_independently_of_array_size() {
    let runtime = RuntimeBuilder::setup1().build();
    let workers = runtime
        .worker_pool_for(&AffinityPolicy::close(), 4)
        .unwrap();
    let mut allocated = Vec::new();
    for elements in [1 << 16, 1 << 20] {
        let config = StreamConfig::small(elements);
        let pool = runtime
            .provision_pool(
                &TierPolicy::CxlExpander,
                "staging",
                3 * elements as u64 * 8 + (4 << 20),
            )
            .unwrap();
        let mut stream = PmemStream::initiate(pool.pool(), config).unwrap();
        // An unmeasured first run sets up whatever a run keeps between
        // invocations; the second run is the one measured.
        stream.run(&workers).unwrap();
        let before = counting_alloc::allocated();
        stream.run(&workers).unwrap();
        allocated.push(counting_alloc::allocated() - before);
        let accumulated = StreamConfig {
            ntimes: 2 * config.ntimes,
            ..config
        };
        let view = PmemStream::reattach(pool.pool(), accumulated, stream.root());
        assert!(view.validate().unwrap() < 1e-12);
    }
    // One run moves 8 MiB per array pass at the larger size; the in-place
    // path allocates only the per-invocation claim counters and result
    // slots, the same at both sizes.
    assert_eq!(
        allocated[0], allocated[1],
        "bytes allocated per run must not grow with the arrays: {allocated:?}"
    );
    assert!(allocated[1] < 64 * 1024, "{allocated:?}");
}
