//! The Agilex-7 FPGA CXL prototype (paper §2.2) as a functional card.
//!
//! The prototype pairs the **R-Tile hard IP** (PCIe Gen5 x16 PHY + CXL link
//! layer) with a **soft-IP** pipeline in the FPGA fabric that implements the
//! CXL.io/CXL.mem transaction layers and drives two on-card DDR4-1333 modules.
//! [`FpgaPrototype`] is the card's functional side: a named Type-3 endpoint
//! behind its CXL link, and the HDM enumeration that makes it a CPU-less NUMA
//! node. The card's bandwidth and latency are not modelled here; they live
//! in the Setup #1 topology text (`crates/memsim/topologies/
//! sapphire-rapids-cxl.topo`), which the runtime compiles and simulates.

use crate::config::{CxlSpec, LinkConfig};
use crate::endpoint::Type3Device;
use crate::hdm::HdmRange;
use crate::Result;
use std::sync::Arc;

/// The functional FPGA prototype: a named Type-3 endpoint.
#[derive(Debug)]
pub struct FpgaPrototype {
    name: String,
    device: Arc<Type3Device>,
}

impl FpgaPrototype {
    /// Builds the paper's prototype: CXL 1.1/2.0 over PCIe Gen5 x16 with two
    /// 8 GiB DDR4-1333 modules, 16 GiB in all.
    pub fn paper_prototype() -> Self {
        Self::custom(
            "Agilex-7 CXL prototype",
            LinkConfig::gen5_x16(),
            16 * 1024 * 1024 * 1024,
        )
    }

    /// Builds a card named `name` with `capacity_bytes` of device memory
    /// behind `link`.
    pub fn custom(name: impl Into<String>, link: LinkConfig, capacity_bytes: u64) -> Self {
        FpgaPrototype {
            name: name.into(),
            device: Arc::new(Type3Device::new("type3-endpoint", capacity_bytes, link)),
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional Type-3 endpoint (shared handle).
    pub fn endpoint(&self) -> Arc<Type3Device> {
        Arc::clone(&self.device)
    }

    /// Capacity of the card's device memory (bytes).
    pub fn capacity_bytes(&self) -> u64 {
        self.device.capacity_bytes()
    }

    /// The spec revision negotiated on the link.
    pub fn spec(&self) -> CxlSpec {
        self.device.link().spec
    }

    /// "Enumerates" the device as the host BIOS/OS would: programs a linear HDM
    /// decoder covering the whole capacity at `hpa_base`, which maps the card
    /// into the host as a CPU-less NUMA node. Returns the HPA range exposed.
    pub fn enumerate(&self, hpa_base: u64) -> Result<(u64, u64)> {
        let capacity = self.capacity_bytes();
        self.device
            .program_hdm(HdmRange::linear(hpa_base, capacity, 0))?;
        Ok((hpa_base, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::calibration as cal;
    use memsim::link::LinkKind;
    use memsim::machines::{sapphire_rapids_cxl_machine, sapphire_rapids_cxl_upgraded};
    use memsim::AccessPattern;

    /// Setup #1's sequential ceiling from socket 0 to the card (GB/s).
    fn card_ceiling_gbs(machine: &memsim::Machine) -> f64 {
        machine
            .path_ceiling_gbs(0, 2, 1, 1, AccessPattern::Sequential)
            .unwrap()
    }

    #[test]
    fn paper_prototype_matches_section_2_2() {
        let fpga = FpgaPrototype::paper_prototype();
        assert_eq!(fpga.capacity_bytes(), 16 * 1024 * 1024 * 1024);
        assert_eq!(fpga.spec(), CxlSpec::V2_0);
        // The simulated card's ceiling sits around 11-12 GB/s, well below the
        // 64 GB/s link.
        let setup1 = sapphire_rapids_cxl_machine();
        let bw = card_ceiling_gbs(&setup1);
        assert!(bw > 9.0 && bw < 13.0, "prototype bandwidth {bw}");
        // Fabric latency in the 250-450 ns band.
        let latency = setup1.path(0, 2).unwrap().added_latency_ns();
        assert!(
            latency > 250.0 && latency < 450.0,
            "fabric latency {latency}"
        );
    }

    #[test]
    fn enumeration_makes_memory_accessible() {
        let fpga = FpgaPrototype::paper_prototype();
        let endpoint = fpga.endpoint();
        assert_eq!(endpoint.mapped_bytes(), 0);
        let (base, len) = fpga.enumerate(0x2_0000_0000).unwrap();
        assert_eq!(base, 0x2_0000_0000);
        assert_eq!(len, fpga.capacity_bytes());
        assert_eq!(endpoint.mapped_bytes(), fpga.capacity_bytes());
    }

    #[test]
    fn memsim_views_are_consistent() {
        // The functional card and the Setup #1 text's node-2 device describe
        // the same 16 GiB expander.
        let fpga = FpgaPrototype::paper_prototype();
        let setup1 = sapphire_rapids_cxl_machine();
        let device = setup1.device(2).unwrap();
        assert_eq!(device.kind, memsim::DeviceKind::CxlExpanderDram);
        assert_eq!(device.capacity_bytes, fpga.capacity_bytes());
        let path = setup1.path(0, 2).unwrap();
        assert!(path.crosses(LinkKind::PcieGen5x16));
        assert!(path.crosses(LinkKind::FpgaCxlController));
        assert!(path.added_latency_ns() > 250.0);
    }

    #[test]
    fn upgrades_increase_bandwidth_up_to_the_link_limit() {
        let base = card_ceiling_gbs(&sapphire_rapids_cxl_machine());
        // DDR5-5600 on four channels: several times the prototype, but
        // never beyond what PCIe Gen5 x16 carries.
        let big = card_ceiling_gbs(&sapphire_rapids_cxl_upgraded(5600.0 / 1333.0, 4));
        assert!(big > 3.0 * base, "upgraded {big} vs base {base}");
        assert!(big <= cal::PCIE_GEN5_X16_GBS + 1e-9);
    }

    #[test]
    fn channel_peak_bandwidth_formula() {
        // One DDR4-1333 module: 1333 MT/s x 8 B.
        assert!((1333.0 * 8.0 / 1000.0 - cal::DDR4_1333_MODULE_PEAK_GBS).abs() < 1e-9);
        // The card's two modules would stream more than the Setup #1 card
        // delivers: the soft-IP pipeline, not the DDR, is the ceiling.
        let ddr = 2.0 * cal::DDR4_1333_MODULE_PEAK_GBS * cal::DDR_STREAM_EFFICIENCY;
        assert!(card_ceiling_gbs(&sapphire_rapids_cxl_machine()) < ddr);
    }
}
