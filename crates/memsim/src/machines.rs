//! The paper's two physical setups and the DCPMM baseline as ready-made
//! machine models, plus the upgraded-card ablation.
//!
//! Each preset compiles one committed description from
//! [`crate::topology::reference`] (the `.topo` files under
//! `crates/memsim/topologies/`). Those texts are the only source of the
//! reference machines: the runtime's presets start from the same machines the
//! calibration gate checks, and a test pins every bandwidth, latency, channel
//! count and MLP in them to the [`crate::calibration`] constants.

use crate::device::DeviceSpec;
use crate::link::LinkKind;
use crate::machine::Machine;
use crate::topology::{reference, TopologyDescription};

/// Parses and compiles a committed reference description.
fn compile(text: &str) -> Machine {
    TopologyDescription::parse(text)
        .and_then(|description| description.compile())
        .expect("committed reference descriptions parse and compile")
}

/// **Setup #1** (paper §2.1, Figure 2): dual Sapphire Rapids, one DDR5-4800
/// DIMM per socket, CXL-attached DDR4-1333 expander on an Agilex-7 FPGA behind
/// PCIe Gen5 x16, exposed as CPU-less NUMA node 2.
pub fn sapphire_rapids_cxl_machine() -> Machine {
    compile(reference::SPR_FPGA_CXL)
}

/// **Setup #2** (paper §2.1, Figure 3): dual Xeon Gold 5215 with six DDR4-2666
/// channels per socket and no CXL device.
pub fn xeon_gold_ddr4_machine() -> Machine {
    compile(reference::XEON_GOLD_DDR4)
}

/// A DCPMM-equipped variant of Setup #1 used for the headline comparison
/// against published Optane numbers: node 2 is a single Optane DCPMM module on
/// the local DDR-T bus of socket 0 instead of the CXL expander.
pub fn sapphire_rapids_dcpmm_machine() -> Machine {
    compile(reference::SPR_DCPMM)
}

/// An ablation variant of Setup #1 where the FPGA card is upgraded per the
/// paper's §2.2 suggestions: `ddr_speed_factor` scales the on-card memory
/// bandwidth (e.g. 3200/1333 ≈ 2.4 for DDR4-3200, 5600/1333 ≈ 4.2 for
/// DDR5-5600) and `channels` multiplies the independent DDR channels.
pub fn sapphire_rapids_cxl_upgraded(ddr_speed_factor: f64, channels: u32) -> Machine {
    let base = sapphire_rapids_cxl_machine();
    let card = base
        .device(2)
        .expect("setup #1 backs node 2 with the CXL card");
    let upgraded_device = DeviceSpec {
        name: format!("CXL DDR x{channels}ch speed x{ddr_speed_factor:.1} (upgraded)"),
        ..card.clone()
    }
    .scaled_bandwidth(ddr_speed_factor)
    .with_channels(channels);
    // A faster card also needs a faster controller ceiling: scale the soft-IP
    // link proportionally but never beyond the PCIe Gen5 link in front of it.
    let mut path = base
        .path(0, 2)
        .expect("setup #1 reaches node 2 from socket 0")
        .clone();
    let pcie_gbs = path
        .links
        .iter()
        .filter(|link| link.kind == LinkKind::PcieGen5x16)
        .map(|link| link.bandwidth_gbs)
        .fold(f64::INFINITY, f64::min);
    for link in &mut path.links {
        if link.kind == LinkKind::FpgaCxlController {
            link.bandwidth_gbs =
                (link.bandwidth_gbs * ddr_speed_factor * channels as f64).min(pcie_gbs);
        }
    }
    base.with_device(2, upgraded_device)
        .expect("node 2 exists")
        .with_path(0, 2, path.clone())
        .with_path(1, 2, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration as cal;

    #[test]
    fn setup1_has_three_nodes_and_cxl_device() {
        let m = sapphire_rapids_cxl_machine();
        assert_eq!(m.devices().len(), 3);
        assert_eq!(
            m.device(2).unwrap().kind,
            crate::DeviceKind::CxlExpanderDram
        );
        assert!(m.path(0, 2).unwrap().crosses(crate::LinkKind::PcieGen5x16));
        assert!(m.path(0, 1).unwrap().crosses(crate::LinkKind::Upi));
    }

    #[test]
    fn setup2_has_two_symmetric_nodes() {
        let m = xeon_gold_ddr4_machine();
        assert_eq!(m.devices().len(), 2);
        let (d0, d1) = (m.device(0).unwrap(), m.device(1).unwrap());
        assert_eq!(d0.kind, d1.kind);
        assert!((d0.read_bw_gbs - d1.read_bw_gbs).abs() < 1e-9);
        assert!((m.core_mlp() - cal::XEON_GOLD_CORE_MLP).abs() < 1e-9);
    }

    #[test]
    fn dcpmm_machine_is_local_to_socket0() {
        let m = sapphire_rapids_dcpmm_machine();
        assert!(m.path(0, 2).unwrap().links.is_empty());
        assert!(!m.path(1, 2).unwrap().links.is_empty());
        assert_eq!(m.device(2).unwrap().kind, crate::DeviceKind::Dcpmm);
    }

    #[test]
    fn upgraded_cxl_card_is_faster() {
        let base = sapphire_rapids_cxl_machine();
        let upgraded = sapphire_rapids_cxl_upgraded(2.4, 4);
        let base_ceiling = base.path_ceiling_gbs(0, 2, 1 << 30, 1 << 30).unwrap();
        let upgraded_ceiling = upgraded.path_ceiling_gbs(0, 2, 1 << 30, 1 << 30).unwrap();
        assert!(upgraded_ceiling > 2.0 * base_ceiling);
        // But never beyond what PCIe Gen5 x16 can carry.
        assert!(upgraded_ceiling <= cal::PCIE_GEN5_X16_GBS + 1e-9);
    }

    #[test]
    fn cxl_per_thread_bandwidth_is_a_few_gbs() {
        let m = sapphire_rapids_cxl_machine();
        let bw = m.per_thread_bandwidth_gbs(0, 2).unwrap();
        assert!(bw > 1.0 && bw < 4.0, "per-thread CXL bandwidth {bw}");
    }

    fn assert_close(what: &str, actual: f64, expected: f64) {
        assert!(
            ((actual - expected) / expected).abs() <= 1e-9,
            "{what}: text says {actual}, calibration says {expected}"
        );
    }

    #[test]
    fn reference_texts_match_the_calibration_constants() {
        let ddr5 = (
            cal::DDR5_LOCAL_CEILING_GBS,
            cal::DDR5_LOCAL_CEILING_GBS,
            cal::DDR5_LOCAL_LATENCY_NS,
            1,
        );
        let ddr4_six = 6.0 * cal::DDR4_2666_CHANNEL_PEAK_GBS * cal::DDR_STREAM_EFFICIENCY;
        let ddr4 = (ddr4_six, ddr4_six, cal::DDR4_LOCAL_LATENCY_NS, 6);
        // The card's 110 ns on-card latency and the PCIe link's 95 ns are
        // not calibration constants, so they are stated here; the soft-IP
        // pipeline carries the rest of the CXL fabric latency.
        let card = (
            cal::CXL_PROTOTYPE_CEILING_GBS,
            cal::CXL_PROTOTYPE_CEILING_GBS,
            110.0,
            1,
        );
        let pcie = (cal::PCIE_GEN5_X16_GBS, 95.0);
        let soft_ip = (
            cal::CXL_PROTOTYPE_CEILING_GBS,
            cal::CXL_FABRIC_LATENCY_NS - pcie.1,
        );
        let dcpmm = (
            cal::DCPMM_READ_GBS,
            cal::DCPMM_WRITE_GBS,
            cal::DCPMM_READ_LATENCY_NS,
            1,
        );
        let upi_spr = (cal::UPI_SPR_EFFECTIVE_GBS, cal::UPI_HOP_LATENCY_NS);
        let upi_xeon = (
            cal::UPI_XEON_GOLD_EFFECTIVE_GBS,
            cal::UPI_HOP_LATENCY_NS + 5.0,
        );
        let cases = [
            (
                reference::SPR_FPGA_CXL,
                cal::SPR_CORE_MLP,
                vec![
                    ("ddr5-socket0", ddr5),
                    ("ddr5-socket1", ddr5),
                    ("cxl-fpga", card),
                ],
                vec![
                    ("upi", upi_spr),
                    ("pcie-gen5-x16", pcie),
                    ("cxl-soft-ip", soft_ip),
                ],
            ),
            (
                reference::XEON_GOLD_DDR4,
                cal::XEON_GOLD_CORE_MLP,
                vec![("ddr4-socket0", ddr4), ("ddr4-socket1", ddr4)],
                vec![("upi", upi_xeon)],
            ),
            (
                reference::SPR_DCPMM,
                cal::SPR_CORE_MLP,
                vec![
                    ("ddr5-socket0", ddr5),
                    ("ddr5-socket1", ddr5),
                    ("dcpmm", dcpmm),
                ],
                vec![("upi", upi_spr)],
            ),
        ];
        for (text, core_mlp, devices, links) in cases {
            let d = TopologyDescription::parse(text).unwrap();
            assert_close(&format!("{} core_mlp", d.name), d.core_mlp, core_mlp);
            let specs: Vec<&DeviceSpec> = d.devices.iter().map(|x| &x.spec).collect();
            let names: Vec<&str> = specs.iter().map(|x| x.name.as_str()).collect();
            let expected: Vec<&str> = devices.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, expected, "{} devices", d.name);
            for (spec, (_, (read, write, latency, channels))) in specs.iter().zip(&devices) {
                let what = format!("{} {}", d.name, spec.name);
                assert_close(&format!("{what} read"), spec.read_bw_gbs, *read);
                assert_close(&format!("{what} write"), spec.write_bw_gbs, *write);
                assert_close(&format!("{what} latency"), spec.idle_latency_ns, *latency);
                assert_eq!(spec.channels, *channels, "{what} channels");
            }
            let names: Vec<&str> = d.links.iter().map(|x| x.name.as_str()).collect();
            let expected: Vec<&str> = links.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, expected, "{} links", d.name);
            for (decl, (_, (gbs, latency))) in d.links.iter().zip(&links) {
                let what = format!("{} {}", d.name, decl.name);
                assert_close(&format!("{what} GB/s"), decl.bandwidth_gbs, *gbs);
                assert_close(&format!("{what} latency"), decl.latency_ns, *latency);
            }
        }
    }

    #[test]
    fn preset_topologies_match_the_numa_presets() {
        // §2.1: both setups are dual-socket, 10 cores per socket with
        // Hyper-Threading. Setup #1 has 64 GiB of DDR5 per socket plus the
        // 16 GiB CXL card as CPU-less node 2; Setup #2 has 96 GiB of DDR4 per
        // socket and no CXL device.
        use crate::units::GIB;
        let setups = [
            (
                sapphire_rapids_cxl_machine(),
                vec![
                    (64 * GIB, "DDR5-4800 socket0"),
                    (64 * GIB, "DDR5-4800 socket1"),
                    (16 * GIB, "CXL DDR4-1333 expander (Agilex-7 FPGA)"),
                ],
                vec![2],
            ),
            (
                xeon_gold_ddr4_machine(),
                vec![
                    (96 * GIB, "DDR4-2666 x6 socket0"),
                    (96 * GIB, "DDR4-2666 x6 socket1"),
                ],
                vec![],
            ),
        ];
        for (machine, nodes, cpuless) in setups {
            let topo = machine.topology();
            assert_eq!(topo.sockets().len(), 2, "{}", topo.name);
            for socket in topo.sockets() {
                assert_eq!(socket.cores.len(), 10, "{} socket {}", topo.name, socket.id);
            }
            assert_eq!(topo.smt(), 2, "{}", topo.name);
            assert_eq!(topo.num_hw_threads(), 40, "{}", topo.name);
            let actual: Vec<(u64, &str)> = topo
                .nodes()
                .iter()
                .map(|node| (node.mem_bytes, node.label.as_str()))
                .collect();
            assert_eq!(actual, nodes, "{}", topo.name);
            let memory_only: Vec<usize> = topo.memory_only_nodes().map(|node| node.id).collect();
            assert_eq!(memory_only, cpuless, "{}", topo.name);
        }
    }
}
