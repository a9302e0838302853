//! Compute Express Link (CXL) device and protocol model.
//!
//! The paper's prototype (§2.2) is an Intel Agilex-7 FPGA card implementing a
//! CXL 1.1/2.0 **Type-3** (memory expander) endpoint: the R-Tile hard IP
//! terminates the PCIe Gen5 x16 link and the CXL link layer, a soft-IP
//! pipeline implements the CXL.mem and CXL.io transaction layers, an HDM
//! (host-managed device memory) decoder maps host physical addresses onto the
//! two on-card DDR4-1333 modules, and the whole device shows up to Linux as a
//! CPU-less NUMA node.
//!
//! This crate rebuilds that stack in software with a *functional* data path:
//! bulk transfers really read and write bytes in a backing store. How fast
//! the card is lives elsewhere, in the Setup #1 topology text that `memsim`
//! compiles and its analytical engine simulates:
//!
//! * [`config`] — spec revisions and link configuration.
//! * [`hdm`] — HDM decoders: HPA range → device-local address, with interleave
//!   support.
//! * [`endpoint`] — the Type-3 device: HDM decoder + backing store + bulk
//!   data path + statistics.
//! * [`fpga`] — the Agilex-7 prototype as a functional card: a named Type-3
//!   endpoint behind its CXL link, and its HDM enumeration.
//! * [`switch`] — a CXL 2.0 switch with memory pooling (device → host binding,
//!   dynamic capacity).
//! * [`sharing`] — the multi-headed configuration of §2.2 where the *same*
//!   device memory is exposed to two hosts with software-managed coherence.
//!
//! # Example
//!
//! Pool two prototype cards behind a switch and carve capacity for a host;
//! the pool's accounting conserves at every step:
//!
//! ```
//! use cxl::{CxlSwitch, FpgaPrototype};
//!
//! let switch = CxlSwitch::new("rack");
//! switch.attach_device(FpgaPrototype::paper_prototype().endpoint());
//! switch.attach_device(FpgaPrototype::paper_prototype().endpoint());
//!
//! let grant = switch.allocate(0, 1 << 30).unwrap();
//! let accounting = switch.accounting();
//! assert!(accounting.conserves()); // unassigned + Σ assigned == total
//! assert_eq!(accounting.assigned.get(&0), Some(&(1 << 30)));
//!
//! switch.release(grant.id).unwrap();
//! assert_eq!(switch.accounting().assigned_total(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod endpoint;
pub mod error;
pub mod fpga;
pub mod hdm;
pub mod sharing;
pub mod sparse;
pub mod switch;
#[cfg(test)]
mod transaction;

pub use config::{CxlSpec, LinkConfig};
pub use endpoint::{DeviceStats, Type3Device};
pub use error::CxlError;
pub use fpga::FpgaPrototype;
pub use hdm::{HdmDecoder, HdmRange, InterleaveSet};
pub use sharing::{CoherenceMode, SharedRegion};
pub use sparse::SparseMemory;
pub use switch::{CxlSwitch, HostId, PoolAccounting, PoolAllocation, PortId};

/// Result alias for CXL operations.
pub type Result<T> = std::result::Result<T, CxlError>;
