//! Analytical multi-tier memory-system simulator.
//!
//! The paper's evaluation platform is physical: dual Sapphire Rapids with one
//! DDR5-4800 DIMM per socket plus a CXL-attached DDR4-1333 expander on an
//! Agilex-7 FPGA (Setup #1), and a dual Xeon Gold 5215 DDR4-2666 machine
//! (Setup #2). That hardware is not available here, so this crate substitutes a
//! calibrated **analytical model** for it: every memory device, interconnect
//! link and CPU concurrency limit is described by a small set of parameters
//! (peak bandwidth, idle latency, per-core memory-level parallelism), and a
//! traffic engine converts "thread `t` on CPU `c` moves `R` read bytes and `W`
//! written bytes to NUMA node `n`" into elapsed time by finding the bottleneck
//! resource.
//!
//! The model is deliberately simple — it is a bandwidth/latency/occupancy
//! model, not a cycle-accurate simulator — but it carries exactly the effects
//! the paper measures:
//!
//! * per-device bandwidth ceilings (DDR5 DIMM vs DDR4-1333 behind the FPGA vs
//!   published Optane DCPMM numbers),
//! * per-link ceilings and added latency (UPI between sockets, PCIe Gen5/CXL
//!   to the expander, the FPGA soft-IP pipeline),
//! * the latency-bound per-thread throughput that makes the STREAM curves ramp
//!   with thread count before they saturate,
//! * software overheads (the 10–15 % PMDK App-Direct cost is applied by the
//!   `pmem`/`cxl-pmem` layers as an overhead factor on the traffic they
//!   submit).
//!
//! Calibration constants live in [`calibration`] with the paper sentence they
//! were derived from.
//!
//! # Example
//!
//! Build the paper's Setup #1 machine, then price port contention on the
//! CXL expander (NUMA node 2): the per-host share degrades as more hosts
//! multiplex the port:
//!
//! ```
//! use memsim::{machines, Engine, PortContention};
//!
//! let engine = Engine::new(machines::sapphire_rapids_cxl_machine());
//! let port: PortContention = engine.port_contention(2).unwrap();
//!
//! assert!(port.per_host_read_gbs(8) < port.per_host_read_gbs(1));
//! // Aggregate throughput still rises with sharers, it just splits thinner.
//! assert!(port.aggregate_read_gbs(8) <= port.read_ceiling_gbs);
//! assert!(port.read_seconds(1 << 30, 8) > port.read_seconds(1 << 30, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod calibration;
pub mod contention;
pub mod device;
pub mod engine;
pub mod error;
pub mod link;
pub mod machine;
pub mod machines;
pub mod topology;
pub mod units;

pub use access::{ThreadTraffic, TrafficPhase};
pub use contention::PortContention;
pub use device::{DeviceKind, DeviceSpec};
pub use engine::{Bottleneck, Engine, PhaseReport};
pub use error::SimError;
pub use link::{LinkKind, LinkSpec, Path};
pub use machine::{Machine, MachineBuilder};
pub use topology::{TopologyDescription, TopologyError};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
