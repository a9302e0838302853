//! The bridge between STREAM and the analytical machine model.
//!
//! Running 100 M-element STREAM on the host that executes this reproduction
//! would measure *that host*, not the paper's Sapphire-Rapids-plus-CXL
//! testbed. The harness therefore separates two concerns:
//!
//! * **correctness** — the functional kernels in [`crate::volatile`] and
//!   [`crate::pmem_stream`] really run (on smaller arrays) and are validated;
//! * **performance** — [`SimulatedStream`] feeds the kernel's byte counts,
//!   thread placement, data placement and access mode into the calibrated
//!   `memsim` engine via the `cxl-pmem` runtime, producing the bandwidth
//!   numbers the figures plot.

use crate::kernels::{Kernel, StreamConfig};
use cxl_pmem::{AccessMode, CxlPmemRuntime, Result as RuntimeResult};
use memsim::PhaseReport;
use numa::{NodeId, PinnedPool, ThreadPlacement};
use std::sync::Arc;

/// One point of a figure: a kernel, a thread count, a placement and the
/// simulated bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedPoint {
    /// The kernel.
    pub kernel: Kernel,
    /// Number of threads.
    pub threads: usize,
    /// NUMA node the arrays live on.
    pub data_node: NodeId,
    /// Access mode (App-Direct / Memory Mode).
    pub mode: AccessMode,
    /// Simulated bandwidth (GB/s).
    pub bandwidth_gbs: f64,
    /// Simulated elapsed time for one kernel invocation (seconds).
    pub seconds: f64,
    /// Which resource was the bottleneck.
    pub bottleneck: String,
}

/// Simulated STREAM over a `cxl-pmem` runtime.
pub struct SimulatedStream<'rt> {
    runtime: &'rt CxlPmemRuntime,
    config: StreamConfig,
}

impl<'rt> SimulatedStream<'rt> {
    /// Creates a simulated STREAM with the paper's 100 M-element configuration.
    pub fn paper(runtime: &'rt CxlPmemRuntime) -> Self {
        SimulatedStream {
            runtime,
            config: StreamConfig::paper(),
        }
    }

    /// Creates a simulated STREAM with a custom configuration.
    pub fn new(runtime: &'rt CxlPmemRuntime, config: StreamConfig) -> Self {
        SimulatedStream { runtime, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// The resident worker pool for `placement`, provisioned and owned by the
    /// underlying runtime. Pairing a functional (really-executing) STREAM run
    /// with the simulated sweep goes through the same parked workers every
    /// time — no per-run thread spawning anywhere in the harness.
    pub fn workers(&self, placement: &ThreadPlacement) -> Arc<PinnedPool> {
        self.runtime.worker_pool(placement)
    }

    /// Per-thread `(read, write)` byte counts for one invocation of `kernel`.
    fn bytes_per_thread(&self, kernel: Kernel, placement: &ThreadPlacement) -> (u64, u64) {
        let threads = placement.len().max(1) as u64;
        let read_total = self.config.elements as u64 * kernel.read_bytes_per_element();
        let write_total = self.config.elements as u64 * kernel.write_bytes_per_element();
        (read_total / threads, write_total / threads)
    }

    fn phase_label(
        &self,
        kernel: Kernel,
        placement: &ThreadPlacement,
        data_node: NodeId,
        mode: AccessMode,
    ) -> String {
        format!(
            "{} {}t node{} {}",
            kernel.name(),
            placement.len(),
            data_node,
            mode.legend_prefix()
        )
    }

    /// Simulates one kernel invocation with the given placement, data node and
    /// mode, returning the full engine report.
    pub fn simulate_report(
        &self,
        kernel: Kernel,
        placement: &ThreadPlacement,
        data_node: NodeId,
        mode: AccessMode,
    ) -> RuntimeResult<PhaseReport> {
        let (read, write) = self.bytes_per_thread(kernel, placement);
        self.runtime.simulate_stream_phase(
            &self.phase_label(kernel, placement, data_node, mode),
            placement,
            data_node,
            read,
            write,
            mode,
        )
    }

    /// Simulates one kernel invocation and returns a figure point.
    pub fn simulate(
        &self,
        kernel: Kernel,
        placement: &ThreadPlacement,
        data_node: NodeId,
        mode: AccessMode,
    ) -> RuntimeResult<SimulatedPoint> {
        let report = self.simulate_report(kernel, placement, data_node, mode)?;
        Ok(SimulatedPoint {
            kernel,
            threads: placement.len(),
            data_node,
            mode,
            bandwidth_gbs: report.bandwidth_gbs,
            seconds: report.seconds,
            bottleneck: report.bottleneck_resource,
        })
    }

    /// Simulates a whole thread sweep (1..=`max_threads`) for one kernel.
    pub fn sweep(
        &self,
        kernel: Kernel,
        placements: &[ThreadPlacement],
        data_node: NodeId,
        mode: AccessMode,
    ) -> RuntimeResult<Vec<SimulatedPoint>> {
        placements
            .iter()
            .map(|placement| self.simulate(kernel, placement, data_node, mode))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pmem::RuntimeBuilder;
    use numa::AffinityPolicy;

    fn placements(runtime: &CxlPmemRuntime, max: usize) -> Vec<ThreadPlacement> {
        (1..=max)
            .map(|t| {
                AffinityPolicy::SingleSocket(0)
                    .place(runtime.topology(), t)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn full_grid_sweep_matches_direct_simulation() {
        // The acceptance grid: 4 kernels × 10 thread counts × 3 nodes × 2
        // modes. Every swept point matches `simulate_report` bit for bit,
        // and Copy/Scale and Add/Triad, which move the same bytes, read the
        // same bandwidth.
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::paper(&runtime);
        let placements = placements(&runtime, 10);
        let mut points = Vec::new();
        for kernel in Kernel::ALL {
            for node in 0..3 {
                for mode in [AccessMode::AppDirect, AccessMode::MemoryMode] {
                    points.extend(stream.sweep(kernel, &placements, node, mode).unwrap());
                }
            }
        }
        assert_eq!(points.len(), 4 * 10 * 3 * 2);
        for point in &points {
            let report = stream
                .simulate_report(
                    point.kernel,
                    &placements[point.threads - 1],
                    point.data_node,
                    point.mode,
                )
                .unwrap();
            assert_eq!(
                report.bandwidth_gbs.to_bits(),
                point.bandwidth_gbs.to_bits(),
                "swept point diverged from direct simulation"
            );
        }
        // Points are kernel-major (Copy, Scale, Add, Triad), 60 per kernel.
        let by_kernel: Vec<&[SimulatedPoint]> = points.chunks(60).collect();
        for (a, b) in [(0, 1), (2, 3)] {
            for (p, q) in by_kernel[a].iter().zip(by_kernel[b]) {
                assert_eq!(p.bandwidth_gbs.to_bits(), q.bandwidth_gbs.to_bits());
            }
        }
    }

    #[test]
    fn functional_run_uses_the_runtime_resident_pool() {
        // The runner hands out the runtime-owned persistent pool, so the
        // functional-correctness leg and the simulated-performance leg share
        // one set of parked workers.
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::new(&runtime, StreamConfig::small(5_000));
        let placement = AffinityPolicy::SingleSocket(0)
            .place(runtime.topology(), 4)
            .unwrap();
        let workers = stream.workers(&placement);
        assert!(std::sync::Arc::ptr_eq(
            &workers,
            &stream.workers(&placement)
        ));
        let mut functional = crate::VolatileStream::new(StreamConfig::small(5_000));
        functional.run(&workers);
        assert!(functional.validate() < 1e-12);
        let point = stream
            .simulate(Kernel::Triad, &placement, 0, AccessMode::AppDirect)
            .unwrap();
        assert!(point.bandwidth_gbs > 0.0);
    }

    #[test]
    fn local_appdirect_saturates_in_the_paper_band() {
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::paper(&runtime);
        let placement = AffinityPolicy::SingleSocket(0)
            .place(runtime.topology(), 10)
            .unwrap();
        for kernel in Kernel::ALL {
            let point = stream
                .simulate(kernel, &placement, 0, AccessMode::AppDirect)
                .unwrap();
            // Paper class 1.(a): saturated around 20-22 GB/s (we accept 18-28).
            assert!(
                point.bandwidth_gbs > 18.0 && point.bandwidth_gbs < 28.0,
                "{} local App-Direct {}",
                kernel.name(),
                point.bandwidth_gbs
            );
        }
    }

    #[test]
    fn cxl_appdirect_is_roughly_half_of_remote_ddr5() {
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::paper(&runtime);
        let placement = AffinityPolicy::SingleSocket(0)
            .place(runtime.topology(), 10)
            .unwrap();
        let remote = stream
            .simulate(Kernel::Triad, &placement, 1, AccessMode::AppDirect)
            .unwrap();
        let cxl = stream
            .simulate(Kernel::Triad, &placement, 2, AccessMode::AppDirect)
            .unwrap();
        let ratio = cxl.bandwidth_gbs / remote.bandwidth_gbs;
        assert!(ratio > 0.40 && ratio < 0.75, "cxl/remote ratio {ratio}");
    }

    #[test]
    fn sweep_is_monotonic_until_saturation() {
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::paper(&runtime);
        let placements = placements(&runtime, 10);
        let points = stream
            .sweep(Kernel::Scale, &placements, 2, AccessMode::MemoryMode)
            .unwrap();
        assert_eq!(points.len(), 10);
        for pair in points.windows(2) {
            assert!(pair[1].bandwidth_gbs + 1e-9 >= pair[0].bandwidth_gbs);
        }
        // Saturated CXL Memory-Mode sits near the prototype ceiling (~10-12 GB/s).
        let last = points.last().unwrap();
        assert!(last.bandwidth_gbs > 8.0 && last.bandwidth_gbs < 13.0);
    }

    #[test]
    fn add_and_triad_move_more_bytes_than_copy_and_scale() {
        let runtime = RuntimeBuilder::setup1().build();
        let stream = SimulatedStream::new(&runtime, StreamConfig::small(1_000_000));
        let placement = AffinityPolicy::SingleSocket(0)
            .place(runtime.topology(), 4)
            .unwrap();
        let copy = stream
            .simulate_report(Kernel::Copy, &placement, 0, AccessMode::MemoryMode)
            .unwrap();
        let add = stream
            .simulate_report(Kernel::Add, &placement, 0, AccessMode::MemoryMode)
            .unwrap();
        assert!(add.payload_bytes > copy.payload_bytes);
    }
}
