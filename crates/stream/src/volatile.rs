//! STREAM over ordinary heap arrays (the Memory-Mode / CC-NUMA flavour).

use crate::exec::run_partitioned;
use crate::kernels::{relative_error, Kernel, StreamConfig};
use crate::report::{BandwidthReport, KernelMeasurement};
use cxl_pmem::AccessTracker;
use numa::PinnedPool;
use std::sync::Arc;
use std::time::Instant;

/// A STREAM instance over three heap-allocated `f64` arrays.
///
/// Kernels execute **in place**: every worker of the pinned pool receives a
/// disjoint `&mut [f64]` window of the three arrays via
/// [`crate::exec::ChunkedArrays`], so an invocation moves exactly the bytes
/// STREAM's counting rules say it moves — no copy-out/copy-back, and one
/// uncontended lock per worker window.
///
/// An optional [`AccessTracker`] samples every worker window (reads per
/// input array, one write for the output array), feeding the adaptive
/// tiering engine's per-chunk heat counters without changing the data path.
pub struct VolatileStream {
    config: StreamConfig,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    tracker: Option<Arc<AccessTracker>>,
}

impl VolatileStream {
    /// Allocates and initialises the arrays with the STREAM initial values
    /// (a = 2.0 after the initial scaling, b = 2.0, c = 0.0).
    pub fn new(config: StreamConfig) -> Self {
        VolatileStream {
            config,
            a: vec![2.0; config.elements],
            b: vec![2.0; config.elements],
            c: vec![0.0; config.elements],
            tracker: None,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Attaches (or detaches) the tiering engine's access tracker. Every
    /// subsequent worker window is recorded.
    pub fn set_tracker(&mut self, tracker: Option<Arc<AccessTracker>>) {
        self.tracker = tracker;
    }

    /// Runs one kernel invocation in place across the pool; returns the
    /// elapsed wall-clock seconds.
    fn run_kernel_once(&mut self, kernel: Kernel, pool: &PinnedPool) -> f64 {
        let scalar = self.config.scalar;
        let tracker = self.tracker.clone();
        let start = Instant::now();
        run_partitioned(
            pool,
            &mut self.a,
            &mut self.b,
            &mut self.c,
            |_ctx, chunk| {
                kernel.apply(chunk.a, chunk.b, chunk.c, scalar);
                if let Some(tracker) = &tracker {
                    chunk.record_access(tracker, kernel);
                }
            },
        );
        start.elapsed().as_secs_f64()
    }

    /// Runs the full STREAM sequence (`ntimes` repetitions of
    /// Copy→Scale→Add→Triad) on the worker pool and returns the per-kernel
    /// best-of-N bandwidths, exactly like the reference benchmark. Every
    /// repetition re-enters the pool's resident workers over the epoch
    /// barrier, so the per-iteration cost carries no thread-spawn overhead —
    /// the steady-state property the paper's bandwidth numbers assume.
    pub fn run(&mut self, pool: &PinnedPool) -> BandwidthReport {
        let mut report = BandwidthReport::new(pool.len());
        for _ in 0..self.config.ntimes {
            for kernel in Kernel::ALL {
                let seconds = self.run_kernel_once(kernel, pool);
                report.record(KernelMeasurement {
                    kernel,
                    threads: pool.len(),
                    seconds,
                    bytes: self.config.bytes_per_invocation(kernel),
                });
            }
        }
        report
    }

    /// The current contents of the three arrays (`a`, `b`, `c`) — used by
    /// equality tests comparing serial and parallel runs bit-for-bit.
    pub fn arrays(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.a, &self.b, &self.c)
    }

    /// Overwrites element `index` of array `c` (test hook for validation).
    #[cfg(test)]
    fn corrupt_c(&mut self, index: usize, value: f64) {
        self.c[index] = value;
    }

    /// Validates the arrays against the analytically expected values, as the
    /// reference STREAM does after the timed loops. Returns the maximum
    /// relative error observed; a NaN or infinite element makes it infinite.
    pub fn validate(&self) -> f64 {
        let (ea, eb, ec) = self.config.expected_values();
        [(ea, &self.a), (eb, &self.b), (ec, &self.c)]
            .into_iter()
            .flat_map(|(expected, values)| values.iter().map(move |&v| relative_error(v, expected)))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sz;
    use memsim::machines::sapphire_rapids_cxl_machine;
    use numa::AffinityPolicy;

    fn pool(threads: usize) -> PinnedPool {
        let machine = sapphire_rapids_cxl_machine();
        let topo = machine.topology();
        let placement = AffinityPolicy::close().place(topo, threads).unwrap();
        PinnedPool::new(topo, &placement)
    }

    #[test]
    fn single_threaded_run_validates() {
        let mut stream = VolatileStream::new(StreamConfig::small(sz(10_000)));
        let report = stream.run(&pool(1));
        assert!(stream.validate() < 1e-12);
        assert_eq!(report.measurements().len(), 4 * 3);
        for kernel in Kernel::ALL {
            assert!(report.best_bandwidth_gbs(kernel).unwrap() > 0.0);
        }
    }

    #[test]
    fn multi_threaded_run_produces_identical_results() {
        let config = StreamConfig::small(sz(50_000));
        let mut serial = VolatileStream::new(config);
        serial.run(&pool(1));
        let mut parallel = VolatileStream::new(config);
        parallel.run(&pool(8));
        assert!(serial.validate() < 1e-12);
        assert!(parallel.validate() < 1e-12);
    }

    #[test]
    fn serial_and_parallel_runs_agree_bitwise() {
        // The partitioned in-place path must be numerically *identical* to a
        // serial run — same element-wise operations, no reassociation.
        let config = StreamConfig::small(sz(12_345));
        let mut serial = VolatileStream::new(config);
        serial.run(&pool(1));
        for threads in [2, 3, 7, 8] {
            let mut parallel = VolatileStream::new(config);
            parallel.run(&pool(threads));
            let (sa, sb, sc) = serial.arrays();
            let (pa, pb, pc) = parallel.arrays();
            for (s, p) in [(sa, pa), (sb, pb), (sc, pc)] {
                assert!(
                    s.iter()
                        .zip(p.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{threads}-thread run diverged bitwise from serial"
                );
            }
        }
    }

    #[test]
    fn validation_detects_corruption() {
        let elements = sz(1000);
        let mut stream = VolatileStream::new(StreamConfig::small(elements));
        stream.run(&pool(2));
        stream.corrupt_c(elements / 2, -1.0e9);
        assert!(stream.validate() > 1e-3);
        // A NaN compares false with everything, so it must not hide in the
        // maximum: it counts as an infinite error.
        stream.corrupt_c(elements / 2, f64::NAN);
        assert!(!stream.validate().is_finite());
    }

    #[test]
    fn attached_tracker_sees_stream_byte_accounting() {
        use std::sync::Arc;

        let elements = sz(16_384);
        let tracker = Arc::new(cxl_pmem::AccessTracker::new(
            elements as u64 * 8,
            4096, // tiering-chunk granularity, unrelated to worker windows
        ));
        let mut stream = VolatileStream::new(StreamConfig::small(elements));
        stream.set_tracker(Some(tracker.clone()));
        let report = stream.run(&pool(4));
        assert!(stream.validate() < 1e-12, "sampling must not perturb data");
        assert_eq!(report.measurements().len(), 4 * 3);
        // ntimes × ALL kernels: every byte of the span read 1 (Copy/Scale)
        // or 2 (Add/Triad) times and written once per invocation.
        let heat = tracker.heat();
        let total_read: u64 = heat.iter().map(|h| h.read_bytes).sum();
        let total_written: u64 = heat.iter().map(|h| h.write_bytes).sum();
        let span = elements as u64 * 8;
        let ntimes = 3u64;
        assert_eq!(total_read, ntimes * span * (1 + 1 + 2 + 2));
        assert_eq!(total_written, ntimes * span * 4);
        // Every chunk participated (uniform sweep → uniform heat).
        assert!(heat.iter().all(|h| h.total() > 0));
        // Detaching stops the sampling.
        stream.set_tracker(None);
        stream.run(&pool(4));
        let after: u64 = tracker.heat().iter().map(|h| h.total()).sum();
        assert_eq!(after, total_read + total_written);
    }

    #[test]
    fn awkward_sizes_are_handled() {
        // Element counts that do not divide evenly by the thread count,
        // prime counts, and fewer elements than workers.
        for (elements, threads) in [(sz(10_007), 7), (sz(9973), 8), (3, 8), (1, 4), (17, 16)] {
            let mut stream = VolatileStream::new(StreamConfig::small(elements));
            stream.run(&pool(threads));
            assert!(
                stream.validate() < 1e-12,
                "{elements} elements on {threads} threads"
            );
        }
    }
}
