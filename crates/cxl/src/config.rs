//! CXL specification revisions and link configuration.
//!
//! These name what a port negotiated, not how fast it is: the link's speed
//! lives in the compiled topology text (`[link.pcie-gen5-x16] gbs = 64` in
//! Setup #1), which `memsim` simulates.

/// CXL specification revision a device or link complies with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CxlSpec {
    /// CXL 1.1 — point-to-point device attachment below a root port.
    V1_1,
    /// CXL 2.0 — adds switches, memory pooling, persistent-memory support.
    V2_0,
    /// CXL 3.0 — PCIe 6.0 PHY, fabrics, enhanced sharing.
    V3_0,
}

/// Physical link configuration of a CXL port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Specification revision negotiated on the link.
    pub spec: CxlSpec,
    /// Number of PCIe lanes (x4, x8, x16).
    pub lanes: u8,
}

impl LinkConfig {
    /// The paper's link: CXL 1.1/2.0 over PCIe Gen5 x16.
    pub fn gen5_x16() -> Self {
        LinkConfig {
            spec: CxlSpec::V2_0,
            lanes: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_capabilities_are_monotonic() {
        // Revisions order by release: each adds to the one before it.
        assert!(CxlSpec::V1_1 < CxlSpec::V2_0 && CxlSpec::V2_0 < CxlSpec::V3_0);
    }
}
