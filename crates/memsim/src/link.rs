//! Interconnect links and socket→memory paths.
//!
//! Three path shapes exist on the paper's machines:
//!
//! * socket → local DIMMs: no link (the integrated memory controller only),
//! * socket → remote socket's DIMMs: one **UPI** hop,
//! * socket → CXL expander: the **PCIe Gen5 x16 / CXL** link plus the FPGA
//!   controller pipeline.

/// The kind of interconnect a link models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Intel Ultra Path Interconnect between sockets.
    Upi,
    /// PCIe Gen5 x16 physical layer carrying CXL.io/CXL.mem.
    PcieGen5x16,
    /// PCIe Gen6 x16 (CXL 3.0), for descriptions of newer machines
    /// (`kind = "pcie6"`).
    PcieGen6x16,
    /// The FPGA CXL controller pipeline (R-Tile hard IP + soft IP).
    FpgaCxlController,
    /// A generic fabric hop (CXL switch, retimer...).
    Fabric,
}

impl LinkKind {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            LinkKind::Upi => "UPI",
            LinkKind::PcieGen5x16 => "PCIe5x16",
            LinkKind::PcieGen6x16 => "PCIe6x16",
            LinkKind::FpgaCxlController => "FPGA-CXL-IP",
            LinkKind::Fabric => "fabric",
        }
    }
}

/// One interconnect link: a per-direction bandwidth ceiling plus added latency.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable name, e.g. "UPI socket0<->socket1".
    pub name: String,
    /// Link technology.
    pub kind: LinkKind,
    /// Sustained bandwidth ceiling per direction (GB/s).
    pub bandwidth_gbs: f64,
    /// Latency added by traversing the link once (ns).
    pub latency_ns: f64,
}

/// A path from a socket to a memory device: an ordered list of links.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Path {
    /// Links traversed, in order from the core to the device.
    pub links: Vec<LinkSpec>,
}

impl Path {
    /// A direct path (integrated memory controller only).
    pub fn direct() -> Self {
        Path { links: Vec::new() }
    }

    /// A path through the given links.
    pub fn through(links: Vec<LinkSpec>) -> Self {
        Path { links }
    }

    /// Total latency added by the path (ns).
    pub fn added_latency_ns(&self) -> f64 {
        self.links.iter().map(|l| l.latency_ns).sum()
    }

    /// The narrowest bandwidth ceiling along the path (GB/s); `None` for a
    /// direct path (no link constrains it).
    pub fn min_bandwidth_gbs(&self) -> Option<f64> {
        self.links
            .iter()
            .map(|l| l.bandwidth_gbs)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a| a.min(b)))
            })
    }

    /// Whether the path crosses a given link kind (e.g. "does it use UPI?").
    pub fn crosses(&self, kind: LinkKind) -> bool {
        self.links.iter().any(|l| l.kind == kind)
    }

    /// Human-readable rendering, e.g. `IMC -> UPI -> DDR5`.
    pub fn render(&self) -> String {
        if self.links.is_empty() {
            return "IMC (direct)".to_string();
        }
        let hops: Vec<&str> = self.links.iter().map(|l| l.kind.label()).collect();
        format!("IMC -> {}", hops.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration as cal;
    use crate::machines::sapphire_rapids_cxl_machine;

    /// Setup #1's path from socket 0 to the CXL card.
    fn cxl_path() -> Path {
        sapphire_rapids_cxl_machine().path(0, 2).unwrap().clone()
    }

    #[test]
    fn direct_path_adds_nothing() {
        let p = Path::direct();
        assert_eq!(p.added_latency_ns(), 0.0);
        assert_eq!(p.min_bandwidth_gbs(), None);
        assert_eq!(p.render(), "IMC (direct)");
    }

    #[test]
    fn cxl_path_is_constrained_by_fpga_controller_not_pcie() {
        let p = cxl_path();
        let min = p.min_bandwidth_gbs().unwrap();
        assert!((min - cal::CXL_PROTOTYPE_CEILING_GBS).abs() < 1e-9);
        assert!(min < cal::PCIE_GEN5_X16_GBS);
        assert!(p.crosses(LinkKind::PcieGen5x16));
        assert!(!p.crosses(LinkKind::Upi));
    }

    #[test]
    fn cxl_path_latency_matches_calibration() {
        let p = cxl_path();
        assert!((p.added_latency_ns() - cal::CXL_FABRIC_LATENCY_NS).abs() < 1e-9);
    }

    #[test]
    fn upi_path_is_cheaper_than_cxl_path() {
        let upi = sapphire_rapids_cxl_machine().path(0, 1).unwrap().clone();
        assert!(upi.crosses(LinkKind::Upi));
        assert!(upi.added_latency_ns() < cxl_path().added_latency_ns());
    }

    #[test]
    fn render_lists_hops_in_order() {
        assert_eq!(cxl_path().render(), "IMC -> PCIe5x16 -> FPGA-CXL-IP");
    }
}
