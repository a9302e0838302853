//! The topology-ingestion scenario group: every reference machine description
//! is ingested end-to-end — text → compiled device graph → runtime → traffic.
//!
//! The sweep parses each [`memsim::topology::reference`] description once:
//! the window with the most targets gives the row's interleave ways, and
//! [`RuntimeBuilder::machine`] builds the row's runtime on the compiled machine. The near tier is measured with the paper's
//! single-socket affinity, the far tier with threads spread across every
//! socket (interleave windows aggregate cards, so saturating them takes both
//! sockets' root ports), and machines exposing a CPU-less node also provision
//! a functional pool on it. On top of the per-topology rows the report
//! carries the silicon-validated calibration table
//! ([`memsim::calibration::run_calibration`]) whose maximum relative error CI
//! gates, plus the cross-topology check that the 2-way interleave description
//! really widens the far tier over the single-card one.

use crate::tables::Table;
use cxl_pmem::{Result as RuntimeResult, RuntimeBuilder, TierPolicy};
use memsim::calibration::{calibration_json, run_calibration, CalibrationReport};
use memsim::topology::reference;
use numa::AffinityPolicy;

/// 1 GiB of per-thread reads in each measured phase (2:1 read:write).
const GIB: u64 = 1 << 30;
/// Threads used to saturate a far tier from every socket.
const SPREAD_THREADS: usize = 20;
/// Threads used on the paper's single-socket near-tier runs.
const LOCAL_THREADS: usize = 10;
/// Minimum far-tier widening the 2-way interleave description must show over
/// the single-card one.
const MIN_INTERLEAVE_SPEEDUP: f64 = 1.5;

/// One ingested reference topology, measured end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyPoint {
    /// Registry name of the description (e.g. `spr-dual-cxl-interleave`).
    pub name: String,
    /// Machine name from the description's `[machine]` section.
    pub machine: String,
    /// NUMA nodes in the compiled graph.
    pub nodes: usize,
    /// Sockets in the compiled graph.
    pub sockets: usize,
    /// Interleave ways of the widest declared window (0 = no window).
    pub interleave_ways: usize,
    /// Near-tier STREAM-mix bandwidth (GB/s), single-socket affinity.
    pub local_gbs: f64,
    /// The far node measured (CPU-less node, or the other socket's memory).
    pub far_node: usize,
    /// Far-tier STREAM-mix bandwidth (GB/s).
    pub far_gbs: f64,
    /// Idle load-to-use latency CPU 0 → far node (ns).
    pub far_latency_ns: f64,
    /// Mount of the pool provisioned on the CPU-less tier, when one exists.
    pub pool_mount: Option<String>,
    /// Whether this topology's sanity checks hold (near ≥ far bandwidth,
    /// both tiers deliver traffic, CPU-less tiers take a pool).
    pub holds: bool,
}

/// The whole sweep: per-topology rows plus the calibration verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyReport {
    /// One row per ingested reference description.
    pub points: Vec<TopologyPoint>,
    /// Far-tier bandwidth of the 2-way interleave description over the
    /// single-card one.
    pub interleave_speedup: f64,
    /// The silicon-validated calibration table (CXL-DMSim / published
    /// measurements vs the engine's predictions).
    pub calibration: CalibrationReport,
}

impl TopologyReport {
    /// The acceptance criterion CI enforces: at least three topologies ingest
    /// and hold, interleaving widens the far tier, and every calibration row
    /// sits inside [`memsim::calibration::CALIBRATION_ERROR_BOUND`].
    pub fn all_hold(&self) -> bool {
        self.points.len() >= 3
            && self.points.iter().all(|p| p.holds)
            && self.interleave_speedup >= MIN_INTERLEAVE_SPEEDUP
            && self.calibration.all_hold()
    }
}

/// Ingests and measures one reference description.
fn run_point(name: &str, text: &str) -> RuntimeResult<TopologyPoint> {
    let description = memsim::TopologyDescription::parse(text)?;
    let ways = description.windows.iter().map(|w| w.targets.len()).max();
    let compiled = description.compile()?;
    let runtime = RuntimeBuilder::new().machine(compiled).build();
    let machine = runtime.machine();
    let nodes = runtime.topology().nodes().len();
    let sockets = runtime.topology().sockets().len();
    let socket_ids: Vec<usize> = runtime.topology().sockets().iter().map(|s| s.id).collect();
    let local_node = runtime.topology().socket(0)?.local_node;
    let cpuless = runtime.topology().memory_only_nodes().next().map(|n| n.id);
    // The far tier is the CPU-less node when the machine has one, otherwise
    // the other socket's memory (the paper's remote-DRAM tier).
    let far_node = match cpuless {
        Some(node) => node,
        None => TierPolicy::RemoteDram { socket: 0 }.resolve(machine)?,
    };

    let local_placement = runtime.place(&AffinityPolicy::SingleSocket(0), LOCAL_THREADS)?;
    let local = runtime.simulate_stream_phase(
        "near",
        &local_placement,
        local_node,
        GIB,
        GIB / 2,
        cxl_pmem::AccessMode::AppDirect,
    )?;
    // CPU-less windows aggregate expander cards, so saturating them takes
    // both sockets' root ports; plain remote DRAM keeps the single-socket
    // affinity (spreading would make the measurement symmetric with "near").
    let far_placement = if cpuless.is_some() {
        runtime.place(
            &AffinityPolicy::Spread {
                sockets: socket_ids,
            },
            SPREAD_THREADS,
        )?
    } else {
        local_placement
    };
    let far = runtime.simulate_stream_phase(
        "far",
        &far_placement,
        far_node,
        GIB,
        GIB / 2,
        cxl_pmem::AccessMode::AppDirect,
    )?;
    let far_latency_ns = machine.access_latency_ns(0, far_node)?;

    let pool_mount = match cpuless {
        Some(_) => Some(
            runtime
                .provision_pool(&TierPolicy::CxlExpander, "topo-sweep", 8 * 1024 * 1024)?
                .mount()
                .to_string(),
        ),
        None => None,
    };

    let holds = local.bandwidth_gbs + 1e-6 >= far.bandwidth_gbs
        && far.bandwidth_gbs > 0.0
        && (cpuless.is_none() || pool_mount.is_some());

    Ok(TopologyPoint {
        name: name.to_string(),
        machine: machine.topology().name.clone(),
        nodes,
        sockets,
        interleave_ways: ways.unwrap_or(0),
        local_gbs: local.bandwidth_gbs,
        far_node,
        far_gbs: far.bandwidth_gbs,
        far_latency_ns,
        pool_mount,
        holds,
    })
}

/// Runs the sweep over every reference description.
pub fn run_topologies() -> RuntimeResult<TopologyReport> {
    let mut points = Vec::new();
    for (name, text) in reference::all() {
        points.push(run_point(name, text)?);
    }
    let far_of = |name: &str| {
        points
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.far_gbs)
            .unwrap_or(0.0)
    };
    let single = far_of("sapphire-rapids-cxl");
    let interleave_speedup = if single > 0.0 {
        far_of("spr-dual-cxl-interleave") / single
    } else {
        0.0
    };
    Ok(TopologyReport {
        points,
        interleave_speedup,
        calibration: run_calibration(),
    })
}

/// Renders an already-computed report as the topology-sweep table.
pub fn render_table(report: &TopologyReport) -> Table {
    let rows = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{} ({} nodes / {} sockets)", p.machine, p.nodes, p.sockets),
                if p.interleave_ways > 1 {
                    format!("{}-way", p.interleave_ways)
                } else {
                    "—".to_string()
                },
                format!("{:.1}", p.local_gbs),
                format!("node {} @ {:.0} ns", p.far_node, p.far_latency_ns),
                format!("{:.1}", p.far_gbs),
                p.pool_mount.clone().unwrap_or_else(|| "—".to_string()),
                (if p.holds { "holds" } else { "FAILS" }).to_string(),
            ]
        })
        .collect();
    Table {
        title: format!(
            "Topology ingestion sweep: reference descriptions compiled and driven end-to-end \
             (2-way interleave widens the far tier {:.2}x; calibration max rel. error {:.1}%)",
            report.interleave_speedup,
            report.calibration.max_rel_error() * 100.0
        ),
        headers: vec![
            "description".to_string(),
            "machine".to_string(),
            "window".to_string(),
            "near GB/s".to_string(),
            "far tier".to_string(),
            "far GB/s".to_string(),
            "pool".to_string(),
            "verdict".to_string(),
        ],
        rows,
    }
}

/// The `BENCH_calibration.json` document for an already-computed report.
pub fn report_json(report: &TopologyReport) -> String {
    calibration_json(&report.calibration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_topology_ingests_and_holds() {
        let report = run_topologies().unwrap();
        assert!(report.points.len() >= 3, "need ≥3 ingested topologies");
        for point in &report.points {
            assert!(
                point.holds,
                "{}: near {:.1} GB/s, far {:.1} GB/s",
                point.name, point.local_gbs, point.far_gbs
            );
            assert!(point.sockets >= 2);
            // Only the dual-card description declares a window.
            let ways = if point.name == "spr-dual-cxl-interleave" {
                2
            } else {
                0
            };
            assert_eq!(point.interleave_ways, ways, "{}", point.name);
        }
        assert!(
            report.interleave_speedup >= MIN_INTERLEAVE_SPEEDUP,
            "interleave speedup {:.2}",
            report.interleave_speedup
        );
        assert!(report.calibration.all_hold());
        assert!(report.all_hold());
    }

    #[test]
    fn cpuless_machines_take_a_pool_and_declare_their_window() {
        let report = run_topologies().unwrap();
        let dual = report
            .points
            .iter()
            .find(|p| p.name == "spr-dual-cxl-interleave")
            .unwrap();
        assert_eq!(dual.interleave_ways, 2);
        assert_eq!(dual.pool_mount.as_deref(), Some("/mnt/pmem2"));
        let xeon = report
            .points
            .iter()
            .find(|p| p.name == "xeon-gold-ddr4")
            .unwrap();
        assert_eq!(xeon.interleave_ways, 0);
        assert!(xeon.pool_mount.is_none());
    }

    #[test]
    fn table_and_json_render_the_verdict() {
        let report = run_topologies().unwrap();
        let md = render_table(&report).to_markdown();
        assert!(md.contains("Topology ingestion sweep"));
        assert!(md.contains("holds"));
        assert!(!md.contains("FAILS"));
        let json = report_json(&report);
        assert!(json.contains("\"schema\": \"bench-calibration-v1\""));
        assert!(json.contains("\"all_hold\": true"));
    }
}
