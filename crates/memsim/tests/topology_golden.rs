//! Golden-file tests for the topology ingest path: the fixture descriptions
//! under `tests/golden/` must keep parsing into the declarations and
//! compiling into exactly the machine pinned here, and the malformed fixtures
//! must keep failing with their *typed* errors — never a panic.

use memsim::topology::TopologyError;
use memsim::{DeviceKind, TopologyDescription};

const TWO_SOCKET_ASYMMETRIC: &str = include_str!("golden/two-socket-asymmetric.topo");
const FOUR_WAY_INTERLEAVE: &str = include_str!("golden/four-way-interleave.topo");
const BAD_DUPLICATE_NODE: &str = include_str!("golden/bad-duplicate-node.topo");
const BAD_DANGLING_LINK: &str = include_str!("golden/bad-dangling-link.topo");
const BAD_ZERO_BANDWIDTH: &str = include_str!("golden/bad-zero-bandwidth.topo");
const BAD_ZERO_BANDWIDTH_LINK: &str = include_str!("golden/bad-zero-bandwidth-link.topo");
const BAD_DANGLING_WINDOW_TARGET: &str = include_str!("golden/bad-dangling-window-target.topo");

const GIB: u64 = 1 << 30;

#[test]
fn asymmetric_fixture_compiles_into_the_expected_device_graph() {
    let description = TopologyDescription::parse(TWO_SOCKET_ASYMMETRIC).unwrap();
    assert_eq!(description.name, "golden-asymmetric");
    assert_eq!(description.smt, 1);
    assert_eq!(description.core_mlp, 8.0);
    assert_eq!(
        description.distances,
        Some(vec![vec![10, 21], vec![21, 10]])
    );

    assert!(description.windows.is_empty());

    let machine = description.compile().unwrap();
    assert_eq!(machine.topology().nodes().len(), 2);
    assert_eq!(machine.topology().sockets().len(), 2);

    let fast = machine.device(0).unwrap();
    assert_eq!(fast.name, "ddr5-fast");
    assert_eq!(fast.kind, DeviceKind::Ddr5);
    assert_eq!(fast.read_bw_gbs, 38.4);
    assert_eq!(fast.write_bw_gbs, 32.0);
    assert_eq!(fast.capacity_bytes, 32 * GIB);
    assert_eq!(fast.channels, 2);

    let slow = machine.device(1).unwrap();
    assert_eq!(slow.name, "ddr4-slow");
    assert_eq!(slow.kind, DeviceKind::Ddr4);
    assert_eq!(slow.write_bw_gbs, 25.6); // write defaults to read
    assert_eq!(slow.channels, 1);

    // Local access = device latency; remote adds both declared UPI hops.
    assert_eq!(machine.access_latency_ns(0, 0).unwrap(), 90.0);
    assert_eq!(
        machine.access_latency_ns(0, 1).unwrap(),
        105.0 + 35.0 + 40.0
    );
}

#[test]
fn four_way_fixture_compiles_the_window_and_aggregate_device() {
    let description = TopologyDescription::parse(FOUR_WAY_INTERLEAVE).unwrap();
    assert_eq!(description.windows.len(), 1);
    let window = &description.windows[0];
    assert_eq!(window.name, "cfmws0");
    assert_eq!(window.node, 2);
    assert_eq!(window.granularity, 256);
    assert_eq!(window.hpa_base, 0x40_0000_0000);
    assert_eq!(window.targets, vec!["card-0", "card-1", "card-2", "card-3"]);
    // Four ways of 8 GiB each.
    for target in &window.targets {
        let way = description
            .devices
            .iter()
            .find(|d| &d.spec.name == target)
            .unwrap();
        assert_eq!(way.spec.capacity_bytes, 8 * GIB, "{target}");
    }

    // The window surfaces as one CPU-less node backed by the aggregate device.
    let machine = description.compile().unwrap();
    let node = machine.topology().node(2).unwrap();
    assert!(node.is_cpuless());
    assert_eq!(node.mem_bytes, 32 * GIB);
    let aggregate = machine.device(2).unwrap();
    assert_eq!(aggregate.name, "cfmws0 (4-way interleave)");
    assert_eq!(aggregate.kind, DeviceKind::CxlExpanderDram);
    assert_eq!(aggregate.read_bw_gbs, 48.0);
    assert_eq!(aggregate.capacity_bytes, 32 * GIB);
    assert_eq!(aggregate.channels, 4);
    assert_eq!(aggregate.idle_latency_ns, 300.0);
    // Both sockets reach it through the declared PCIe port.
    assert_eq!(machine.access_latency_ns(0, 2).unwrap(), 395.0);
}

#[test]
fn duplicate_node_fixture_fails_typed() {
    let err = TopologyDescription::parse(BAD_DUPLICATE_NODE)
        .unwrap()
        .compile()
        .unwrap_err();
    assert_eq!(err, TopologyError::DuplicateNode(0));
}

#[test]
fn dangling_link_fixture_fails_typed() {
    let err = TopologyDescription::parse(BAD_DANGLING_LINK)
        .unwrap()
        .compile()
        .unwrap_err();
    assert_eq!(
        err,
        TopologyError::DanglingLink {
            socket: 0,
            node: 1,
            link: "upi-phantom".into()
        }
    );
}

#[test]
fn zero_bandwidth_fixtures_fail_typed() {
    let err = TopologyDescription::parse(BAD_ZERO_BANDWIDTH)
        .unwrap()
        .compile()
        .unwrap_err();
    assert_eq!(
        err,
        TopologyError::ZeroBandwidth {
            what: "device",
            name: "ddr-dead".into()
        }
    );
    let err = TopologyDescription::parse(BAD_ZERO_BANDWIDTH_LINK)
        .unwrap()
        .compile()
        .unwrap_err();
    assert_eq!(
        err,
        TopologyError::ZeroBandwidth {
            what: "link",
            name: "upi-dead".into()
        }
    );
}

#[test]
fn dangling_window_target_fixture_fails_typed() {
    let err = TopologyDescription::parse(BAD_DANGLING_WINDOW_TARGET)
        .unwrap()
        .compile()
        .unwrap_err();
    assert_eq!(
        err,
        TopologyError::DanglingWindowTarget {
            window: "cfmws0".into(),
            target: "card-phantom".into()
        }
    );
}

#[test]
fn malformed_fixtures_and_mutations_never_panic() {
    // Every malformed fixture reports an error through the Result channel.
    for text in [
        BAD_DUPLICATE_NODE,
        BAD_DANGLING_LINK,
        BAD_ZERO_BANDWIDTH,
        BAD_ZERO_BANDWIDTH_LINK,
        BAD_DANGLING_WINDOW_TARGET,
    ] {
        let outcome = TopologyDescription::parse(text).and_then(|d| d.compile());
        assert!(outcome.is_err());
        // Errors render a message and identify themselves as std errors.
        let err = outcome.unwrap_err();
        assert!(!err.to_string().is_empty());
    }
    // Truncating a valid description at any line boundary must error or
    // yield a description that compile() rejects — never a panic.
    let lines: Vec<&str> = FOUR_WAY_INTERLEAVE.lines().collect();
    for cut in 0..lines.len() {
        let truncated = lines[..cut].join("\n");
        let _ = TopologyDescription::parse(&truncated).and_then(|d| d.compile());
    }
    // Machine-section mutations of Setup #1 are typed errors. 2 x 600 cores
    // x 2 threads is over compile's 1024 hardware-thread bound; 2^40 cores or
    // threads would exhaust memory if compile built them.
    let setup1 = memsim::topology::reference::SPR_FPGA_CXL;
    assert!(setup1.contains("cores = 10") && setup1.contains("smt = 2\n"));
    for (from, to) in [
        ("cores = 10", "cores = 600"),
        ("cores = 10", "cores = 1099511627776"),
        ("smt = 2\n", "smt = 1099511627776\n"),
        ("smt = 2\n", "smt = 0\n"),
        ("core_mlp = 12", "core_mlp = 0"),
    ] {
        let text = setup1.replace(from, to);
        let outcome = TopologyDescription::parse(&text)
            .and_then(|d| d.compile())
            .map(|_| ());
        assert!(
            matches!(outcome, Err(TopologyError::InvalidMachine(_))),
            "{to}: {outcome:?}"
        );
    }
}
