//! Memory device models: DDR4/DDR5 DIMMs, the CXL-attached expander's backing
//! store, Optane DCPMM and HBM. The reference machines declare their devices
//! in the committed topology texts ([`crate::topology::reference`]).

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
    use crate::calibration as cal;
    use crate::machines::{sapphire_rapids_cxl_machine, sapphire_rapids_dcpmm_machine};
    use crate::units::GIB;
    use proptest::prelude::*;

    /// Node 2 of the DCPMM baseline: one Optane module.
    fn dcpmm() -> DeviceSpec {
        sapphire_rapids_dcpmm_machine().device(2).unwrap().clone()
    }

    /// Node 2 of Setup #1: the FPGA card behind the CXL endpoint.
    fn cxl_card() -> DeviceSpec {
        sapphire_rapids_cxl_machine().device(2).unwrap().clone()
    }

    #[test]
    fn ddr5_device_matches_calibration() {
        let m = sapphire_rapids_cxl_machine();
        let d = m.device(0).unwrap();
        assert_eq!(d.kind, DeviceKind::Ddr5);
        assert!((d.read_bw_gbs - cal::DDR5_LOCAL_CEILING_GBS).abs() < 1e-9);
        assert!(!d.is_persistent());
        assert_eq!(d.capacity_bytes, 64 * GIB);
    }

    #[test]
    fn dcpmm_is_persistent_and_asymmetric() {
        let d = dcpmm();
        assert!(d.is_persistent());
        assert!(d.read_bw_gbs > d.write_bw_gbs);
        assert!((d.read_bw_gbs - 6.6).abs() < 1e-9);
        assert!((d.write_bw_gbs - 2.3).abs() < 1e-9);
    }

    #[test]
    fn cxl_dram_counts_as_persistence_capable() {
        // The paper's whole premise: the expander sits off-node and can be
        // battery-backed, so it is treated as a PMem-capable device class.
        let d = cxl_card();
        assert!(d.is_persistent());
        assert_eq!(d.kind.label(), "CXL-DDR4");
    }

    #[test]
    fn mixed_bandwidth_between_read_and_write_ceilings() {
        let d = dcpmm();
        let mixed = d.mixed_bandwidth_gbs(1_000_000, 1_000_000);
        assert!(mixed < d.read_bw_gbs);
        assert!(mixed > d.write_bw_gbs);
        // Pure read equals the read ceiling; zero traffic defaults to read.
        assert!((d.mixed_bandwidth_gbs(123, 0) - d.read_bw_gbs).abs() < 1e-9);
        assert!((d.mixed_bandwidth_gbs(0, 0) - d.read_bw_gbs).abs() < 1e-9);
    }

    #[test]
    fn channel_scaling_is_linear() {
        let one = cxl_card();
        let four = one.clone().with_channels(4);
        assert!((four.read_bw_gbs / one.read_bw_gbs - 4.0).abs() < 1e-9);
        assert_eq!(four.channels, 4);
    }

    #[test]
    fn bandwidth_scaling_factor_applies() {
        let base = cxl_card();
        let faster = base.clone().scaled_bandwidth(1.5);
        assert!((faster.read_bw_gbs - base.read_bw_gbs * 1.5).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_mixed_bandwidth_is_bounded(read in 0u64..1_000_000_000, write in 0u64..1_000_000_000) {
            let d = dcpmm();
            let bw = d.mixed_bandwidth_gbs(read, write);
            prop_assert!(bw <= d.read_bw_gbs + 1e-9);
            prop_assert!(bw >= d.write_bw_gbs - 1e-9);
        }

        #[test]
        fn prop_more_write_fraction_never_speeds_up_dcpmm(read in 1u64..1_000_000, extra_write in 0u64..1_000_000) {
            let d = dcpmm();
            let base = d.mixed_bandwidth_gbs(read, 0);
            let with_writes = d.mixed_bandwidth_gbs(read, extra_write);
            prop_assert!(with_writes <= base + 1e-9);
        }
    }
}
