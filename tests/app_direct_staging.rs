//! STREAM-PMem on the CXL expander computes in place on the device's bytes:
//! once its arrays exist, a run allocates only its per-invocation claim
//! counters and result slots, the same small amount however large the arrays
//! are.
//!
//! The test counts allocations with a global allocator, so this file holds
//! a single test: nothing else in the binary allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use streamer_repro::cxl_pmem::{RuntimeBuilder, TierPolicy};
use streamer_repro::numa::AffinityPolicy;
use streamer_repro::stream::{PmemStream, StreamConfig};

/// Bytes handed out by the allocator so far.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting the request
// size is a side effect that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`; forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        let before = ALLOCATED.load(Ordering::Relaxed);
        stream.run(&workers).unwrap();
        allocated.push(ALLOCATED.load(Ordering::Relaxed) - before);
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
