//! Access modes and their properties — the paper's Table 1.
//!
//! Table 1 contrasts a PMem module used "as a main memory extension"
//! (*Memory Mode*) with one used "as a direct access to persistent memory"
//! (*App-Direct*) along six axes: volatility, access, capacity, cost,
//! performance. [`ModeProperties`] reproduces that table programmatically for
//! any device the runtime manages, so the harness can *measure* the table
//! instead of merely restating it.

use memsim::calibration as cal;
use memsim::DeviceSpec;

/// How a pool (or a plain allocation) is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Direct, transactional, byte-addressable access through the PMDK-style
    /// object store (`STREAM-PMem`, `pmem#N` in the paper's legends).
    AppDirect,
    /// Cache-coherent NUMA memory expansion (`numactl --membind`, `numa#N`).
    MemoryMode,
}

impl AccessMode {
    /// Multiplicative software overhead this mode adds to raw device access.
    ///
    /// §4 class 2.(a): "PMDK overheads over CC-NUMA are 10%-15%".
    pub fn software_overhead(&self) -> f64 {
        match self {
            AccessMode::AppDirect => cal::PMDK_OVERHEAD_FACTOR,
            AccessMode::MemoryMode => 1.0,
        }
    }

    /// Whether data written in this mode survives power failure (assuming the
    /// backing device is persistence-capable).
    pub fn retains_data(&self) -> bool {
        matches!(self, AccessMode::AppDirect)
    }

    /// The paper's legend prefix for this mode (`pmem` / `numa`).
    pub fn legend_prefix(&self) -> &'static str {
        match self {
            AccessMode::AppDirect => "pmem",
            AccessMode::MemoryMode => "numa",
        }
    }
}

/// The measured properties of a device used in a given mode — one row set of
/// Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeProperties {
    /// Mode these properties describe.
    pub mode: AccessMode,
    /// Whether stored data survives power cycles.
    pub volatile: bool,
    /// Access description.
    pub access: String,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Relative cost per byte (DRAM = 1.0).
    pub relative_cost: f64,
    /// Effective bandwidth (GB/s) after mode overhead.
    pub effective_bandwidth_gbs: f64,
    /// Effective bandwidth as a fraction of local DDR5 main memory.
    pub fraction_of_main_memory: f64,
}

impl ModeProperties {
    /// Derives the properties of using `device` in `mode`, relative to a
    /// `main_memory` reference device (the local DDR5 DIMM in the paper).
    pub fn derive(mode: AccessMode, device: &DeviceSpec, main_memory: &DeviceSpec) -> Self {
        let raw_bw = device.mixed_bandwidth_gbs(2, 1); // STREAM-like 2:1 read:write mix
        let effective = raw_bw / mode.software_overhead();
        let main_bw = main_memory.mixed_bandwidth_gbs(2, 1);
        // Relative cost per byte: DRAM-class devices at parity, CXL-DDR4 cheaper
        // (the paper stresses the DDR4-behind-CXL module is "much cheaper than
        // DDR5"), DCPMM historically cheaper per byte than DRAM as well.
        let relative_cost = match device.kind {
            memsim::DeviceKind::Ddr5 => 1.0,
            memsim::DeviceKind::Ddr4 => 0.7,
            memsim::DeviceKind::CxlExpanderDram => 0.55,
            memsim::DeviceKind::Dcpmm => 0.4,
            memsim::DeviceKind::Hbm => 3.0,
            memsim::DeviceKind::BatteryBackedDram => 1.3,
        };
        ModeProperties {
            mode,
            volatile: !(mode.retains_data() && device.is_persistent()),
            access: match mode {
                AccessMode::AppDirect => "transactional byte-addressable object store".to_string(),
                AccessMode::MemoryMode => "cache-coherent memory expansion".to_string(),
            },
            capacity_bytes: device.capacity_bytes,
            relative_cost,
            effective_bandwidth_gbs: effective,
            fraction_of_main_memory: if main_bw > 0.0 {
                effective / main_bw
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::machines::{sapphire_rapids_cxl_machine, sapphire_rapids_dcpmm_machine};

    #[test]
    fn overheads_match_paper() {
        assert!(AccessMode::AppDirect.software_overhead() > 1.09);
        assert!(AccessMode::AppDirect.software_overhead() < 1.16);
        assert_eq!(AccessMode::MemoryMode.software_overhead(), 1.0);
        assert_eq!(AccessMode::AppDirect.legend_prefix(), "pmem");
        assert_eq!(AccessMode::MemoryMode.legend_prefix(), "numa");
    }

    #[test]
    fn table1_shape_for_the_cxl_expander() {
        let setup1 = sapphire_rapids_cxl_machine();
        let (ddr5, cxl) = (setup1.device(0).unwrap(), setup1.device(2).unwrap());
        let app_direct = ModeProperties::derive(AccessMode::AppDirect, cxl, ddr5);
        let memory_mode = ModeProperties::derive(AccessMode::MemoryMode, cxl, ddr5);
        // Table 1: non-volatile in direct-access mode, volatile as memory extension.
        assert!(!app_direct.volatile);
        assert!(memory_mode.volatile);
        // Performance "several factors below main memory bandwidth".
        assert!(app_direct.fraction_of_main_memory < 0.6);
        assert!(app_direct.fraction_of_main_memory > 0.2);
        // Memory-mode is faster than App-Direct on the same device (no PMDK tax).
        assert!(memory_mode.effective_bandwidth_gbs > app_direct.effective_bandwidth_gbs);
        // Cheaper than the main memory.
        assert!(app_direct.relative_cost < 1.0);
    }

    #[test]
    fn dcpmm_is_volatile_never() {
        let baseline = sapphire_rapids_dcpmm_machine();
        let (ddr5, dcpmm) = (baseline.device(0).unwrap(), baseline.device(2).unwrap());
        let props = ModeProperties::derive(AccessMode::AppDirect, dcpmm, ddr5);
        assert!(!props.volatile);
        assert!(props.fraction_of_main_memory < 0.25);
    }

    #[test]
    fn ddr5_memory_mode_is_the_reference() {
        let setup1 = sapphire_rapids_cxl_machine();
        let ddr5 = setup1.device(0).unwrap();
        let props = ModeProperties::derive(AccessMode::MemoryMode, ddr5, ddr5);
        assert!((props.fraction_of_main_memory - 1.0).abs() < 1e-9);
        assert!(props.volatile); // memory-mode DDR5 is volatile
    }
}
