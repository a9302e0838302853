//! CXL specification revisions and link configuration.

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

impl CxlSpec {
    /// Transfer rate per lane in GT/s (§1.3 of the paper: 32 GT/s for 1.1/2.0,
    /// 64 GT/s for 3.0).
    pub fn transfer_rate_gts(&self) -> f64 {
        match self {
            CxlSpec::V1_1 | CxlSpec::V2_0 => 32.0,
            CxlSpec::V3_0 => 64.0,
        }
    }
}

/// Physical link configuration of a CXL port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Specification revision negotiated on the link.
    pub spec: CxlSpec,
    /// Number of PCIe lanes (x4, x8, x16).
    pub lanes: u8,
    /// Flit efficiency: fraction of raw link bandwidth available to payload
    /// after protocol framing (68-byte flits on Gen5, ~0.92 typical).
    pub flit_efficiency: f64,
}

impl LinkConfig {
    /// The paper's link: CXL 1.1/2.0 over PCIe Gen5 x16.
    pub fn gen5_x16() -> Self {
        LinkConfig {
            spec: CxlSpec::V2_0,
            lanes: 16,
            flit_efficiency: 0.92,
        }
    }

    /// Raw unidirectional bandwidth in GB/s: `GT/s × lanes / 8` (PCIe encoding
    /// overhead is negligible at Gen5+ thanks to 128b/130b and FLIT modes).
    pub fn raw_bandwidth_gbs(&self) -> f64 {
        self.spec.transfer_rate_gts() * self.lanes as f64 / 8.0
    }

    /// Payload bandwidth after flit framing (GB/s).
    pub fn effective_bandwidth_gbs(&self) -> f64 {
        self.raw_bandwidth_gbs() * self.flit_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_capabilities_are_monotonic() {
        // Each revision runs at least as fast as the one before it.
        assert!(CxlSpec::V1_1 < CxlSpec::V2_0 && CxlSpec::V2_0 < CxlSpec::V3_0);
        assert!(CxlSpec::V1_1.transfer_rate_gts() <= CxlSpec::V2_0.transfer_rate_gts());
        assert!(CxlSpec::V2_0.transfer_rate_gts() < CxlSpec::V3_0.transfer_rate_gts());
    }

    #[test]
    fn gen5_x16_matches_paper_numbers() {
        // §1.3: "32 GT/s for transfers up to 64 GB/s in each direction via a
        // 16-lane link".
        let link = LinkConfig::gen5_x16();
        assert!((link.raw_bandwidth_gbs() - 64.0).abs() < 1e-9);
        assert!(link.effective_bandwidth_gbs() < 64.0);
        assert_eq!(link.spec.transfer_rate_gts(), 32.0);
    }

    #[test]
    fn gen6_doubles_gen5() {
        // §1.3: CXL 3.0 doubles the per-lane rate to 64 GT/s.
        let g5 = CxlSpec::V2_0.transfer_rate_gts();
        let g6 = CxlSpec::V3_0.transfer_rate_gts();
        assert!((g6 - 2.0 * g5).abs() < 1e-9);
        assert_eq!(g6, 64.0);
    }

    #[test]
    fn type3_is_a_mem_device_without_cache_protocol() {
        // The Type-3 expander's link carries CXL.mem payload at its flit
        // efficiency: framing costs bandwidth, never adds it.
        let link = LinkConfig::gen5_x16();
        let framed = link.raw_bandwidth_gbs() * link.flit_efficiency;
        assert!((link.effective_bandwidth_gbs() - framed).abs() < 1e-9);
        assert!(link.flit_efficiency > 0.0 && link.flit_efficiency < 1.0);
    }
}
