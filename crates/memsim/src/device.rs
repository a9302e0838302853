//! Memory device models: DDR4/DDR5 DIMMs, the CXL-attached expander's backing
//! store, Optane DCPMM and HBM.

use crate::calibration as cal;
use crate::units::GIB;

/// The technology class of a memory device. Determines default behaviour such
/// as persistence and read/write asymmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// DDR4 DRAM DIMMs.
    Ddr4,
    /// DDR5 DRAM DIMMs.
    Ddr5,
    /// DRAM behind a CXL Type-3 expander (the FPGA prototype's DDR4-1333).
    CxlExpanderDram,
    /// Intel Optane DC Persistent Memory Module.
    Dcpmm,
    /// High-Bandwidth Memory stacks.
    Hbm,
    /// Battery-backed DRAM (classic NVDIMM-N style persistent memory).
    BatteryBackedDram,
}

impl DeviceKind {
    /// Whether data on the device survives power loss (possibly via battery).
    pub fn is_persistent(&self) -> bool {
        matches!(
            self,
            DeviceKind::Dcpmm | DeviceKind::BatteryBackedDram | DeviceKind::CxlExpanderDram
        )
        // The paper's argument (§1.4): the CXL expander sits outside the node
        // and can be battery-backed once for all hosts, so it is treated as a
        // persistence-capable device class.
    }

    /// Whether the device is byte-addressable (all modelled devices are).
    pub fn is_byte_addressable(&self) -> bool {
        true
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Ddr4 => "DDR4",
            DeviceKind::Ddr5 => "DDR5",
            DeviceKind::CxlExpanderDram => "CXL-DDR4",
            DeviceKind::Dcpmm => "DCPMM",
            DeviceKind::Hbm => "HBM",
            DeviceKind::BatteryBackedDram => "BBU-DRAM",
        }
    }
}

/// A concrete memory device: bandwidth ceilings, idle latency and capacity.
///
/// Bandwidths are *sustained streaming* ceilings in decimal GB/s (what STREAM
/// could reach with unlimited cores), not pin-rate maxima.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. "DDR5-4800 1DPC socket0".
    pub name: String,
    /// Technology class.
    pub kind: DeviceKind,
    /// Sustained read bandwidth ceiling (GB/s).
    pub read_bw_gbs: f64,
    /// Sustained write bandwidth ceiling (GB/s).
    pub write_bw_gbs: f64,
    /// Idle load-to-use latency (ns) measured from a core on the same socket,
    /// excluding any interconnect hops (those are added by the path model).
    pub idle_latency_ns: f64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of independent channels/interleave ways feeding the device.
    pub channels: u32,
}

impl DeviceSpec {
    /// One DDR5-4800 DIMM as installed per socket in the paper's Setup #1.
    pub fn ddr5_4800_single_dimm(name: impl Into<String>) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::Ddr5,
            read_bw_gbs: cal::DDR5_LOCAL_CEILING_GBS,
            write_bw_gbs: cal::DDR5_LOCAL_CEILING_GBS,
            idle_latency_ns: cal::DDR5_LOCAL_LATENCY_NS,
            capacity_bytes: 64 * GIB,
            channels: 1,
        }
    }

    /// The two DDR4-1333 modules on the Agilex-7 FPGA card, as seen *behind*
    /// the CXL endpoint (i.e. already constrained by the prototype's soft-IP
    /// implementation ceiling, §2.2).
    pub fn cxl_prototype_ddr4_1333(name: impl Into<String>) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::CxlExpanderDram,
            read_bw_gbs: cal::CXL_PROTOTYPE_CEILING_GBS,
            write_bw_gbs: cal::CXL_PROTOTYPE_CEILING_GBS,
            idle_latency_ns: 110.0,
            capacity_bytes: 16 * GIB,
            channels: 1,
        }
    }

    /// A single Optane DCPMM module with the published bandwidth figures the
    /// paper compares against (6.6 GB/s read, 2.3 GB/s write).
    pub fn dcpmm_single_module(name: impl Into<String>) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::Dcpmm,
            read_bw_gbs: cal::DCPMM_READ_GBS,
            write_bw_gbs: cal::DCPMM_WRITE_GBS,
            idle_latency_ns: cal::DCPMM_READ_LATENCY_NS,
            capacity_bytes: 128 * GIB,
            channels: 1,
        }
    }

    /// An HBM2e stack, included for the hybrid-architecture ablations suggested
    /// in the paper's future-work section.
    pub fn hbm2e_stack(name: impl Into<String>) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::Hbm,
            read_bw_gbs: 400.0,
            write_bw_gbs: 400.0,
            idle_latency_ns: 120.0,
            capacity_bytes: 16 * GIB,
            channels: 8,
        }
    }

    /// A battery-backed DRAM DIMM (the "previous battery-backed DIMMs" the
    /// paper mentions as the classic PMem realisation).
    pub fn battery_backed_dimm(name: impl Into<String>, capacity_bytes: u64) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::BatteryBackedDram,
            read_bw_gbs: cal::DDR4_2666_CHANNEL_PEAK_GBS * cal::DDR_STREAM_EFFICIENCY,
            write_bw_gbs: cal::DDR4_2666_CHANNEL_PEAK_GBS * cal::DDR_STREAM_EFFICIENCY,
            idle_latency_ns: cal::DDR4_LOCAL_LATENCY_NS,
            capacity_bytes,
            channels: 1,
        }
    }

    /// Effective bandwidth for a mix of `read_bytes` and `write_bytes`.
    ///
    /// A device with asymmetric read/write ceilings (DCPMM most prominently)
    /// serves a mixed stream at the harmonic combination of the two ceilings.
    pub fn mixed_bandwidth_gbs(&self, read_bytes: u64, write_bytes: u64) -> f64 {
        let total = read_bytes + write_bytes;
        if total == 0 {
            return self.read_bw_gbs;
        }
        let read_frac = read_bytes as f64 / total as f64;
        let write_frac = write_bytes as f64 / total as f64;
        let denom = read_frac / self.read_bw_gbs + write_frac / self.write_bw_gbs;
        if denom <= 0.0 {
            self.read_bw_gbs
        } else {
            1.0 / denom
        }
    }

    /// Whether the device retains data across power loss.
    pub fn is_persistent(&self) -> bool {
        self.kind.is_persistent()
    }

    /// Scales the bandwidth ceilings by a factor (used by ablations, e.g.
    /// upgrading the FPGA card to DDR4-3200 or DDR5-5600 per the paper §2.2).
    pub fn scaled_bandwidth(mut self, factor: f64) -> Self {
        self.read_bw_gbs *= factor;
        self.write_bw_gbs *= factor;
        self
    }

    /// Returns a copy with a different channel count, scaling bandwidth
    /// linearly (the paper suggests going from one to four FPGA DDR channels).
    pub fn with_channels(mut self, channels: u32) -> Self {
        if self.channels > 0 && channels > 0 {
            let factor = channels as f64 / self.channels as f64;
            self.read_bw_gbs *= factor;
            self.write_bw_gbs *= factor;
        }
        self.channels = channels.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ddr5_device_matches_calibration() {
        let d = DeviceSpec::ddr5_4800_single_dimm("ddr5");
        assert_eq!(d.kind, DeviceKind::Ddr5);
        assert!((d.read_bw_gbs - cal::DDR5_LOCAL_CEILING_GBS).abs() < 1e-9);
        assert!(!d.is_persistent());
        assert_eq!(d.capacity_bytes, 64 * GIB);
    }

    #[test]
    fn dcpmm_is_persistent_and_asymmetric() {
        let d = DeviceSpec::dcpmm_single_module("pmem");
        assert!(d.is_persistent());
        assert!(d.read_bw_gbs > d.write_bw_gbs);
        assert!((d.read_bw_gbs - 6.6).abs() < 1e-9);
        assert!((d.write_bw_gbs - 2.3).abs() < 1e-9);
    }

    #[test]
    fn cxl_dram_counts_as_persistence_capable() {
        // The paper's whole premise: the expander sits off-node and can be
        // battery-backed, so it is treated as a PMem-capable device class.
        let d = DeviceSpec::cxl_prototype_ddr4_1333("cxl");
        assert!(d.is_persistent());
        assert_eq!(d.kind.label(), "CXL-DDR4");
    }

    #[test]
    fn mixed_bandwidth_between_read_and_write_ceilings() {
        let d = DeviceSpec::dcpmm_single_module("pmem");
        let mixed = d.mixed_bandwidth_gbs(1_000_000, 1_000_000);
        assert!(mixed < d.read_bw_gbs);
        assert!(mixed > d.write_bw_gbs);
        // Pure read equals the read ceiling; zero traffic defaults to read.
        assert!((d.mixed_bandwidth_gbs(123, 0) - d.read_bw_gbs).abs() < 1e-9);
        assert!((d.mixed_bandwidth_gbs(0, 0) - d.read_bw_gbs).abs() < 1e-9);
    }

    #[test]
    fn channel_scaling_is_linear() {
        let one = DeviceSpec::cxl_prototype_ddr4_1333("cxl");
        let four = one.clone().with_channels(4);
        assert!((four.read_bw_gbs / one.read_bw_gbs - 4.0).abs() < 1e-9);
        assert_eq!(four.channels, 4);
    }

    #[test]
    fn bandwidth_scaling_factor_applies() {
        let base = DeviceSpec::cxl_prototype_ddr4_1333("cxl");
        let faster = base.clone().scaled_bandwidth(1.5);
        assert!((faster.read_bw_gbs - base.read_bw_gbs * 1.5).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_mixed_bandwidth_is_bounded(read in 0u64..1_000_000_000, write in 0u64..1_000_000_000) {
            let d = DeviceSpec::dcpmm_single_module("pmem");
            let bw = d.mixed_bandwidth_gbs(read, write);
            prop_assert!(bw <= d.read_bw_gbs + 1e-9);
            prop_assert!(bw >= d.write_bw_gbs - 1e-9);
        }

        #[test]
        fn prop_more_write_fraction_never_speeds_up_dcpmm(read in 1u64..1_000_000, extra_write in 0u64..1_000_000) {
            let d = DeviceSpec::dcpmm_single_module("pmem");
            let base = d.mixed_bandwidth_gbs(read, 0);
            let with_writes = d.mixed_bandwidth_gbs(read, extra_write);
            prop_assert!(with_writes <= base + 1e-9);
        }
    }
}
