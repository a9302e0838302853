//! ASCII renderings of the setup and data-flow diagrams (Figures 1–4 and 9).

use crate::groups::{TestGroup, TrendSetup};
use cxl_pmem::{CxlPmemRuntime, TierPolicy};

/// Renders the machine topology of a runtime in a `numactl --hardware` style
/// (the information content of Figures 2 and 3).
pub fn render_topology(runtime: &CxlPmemRuntime) -> String {
    let mut out = runtime.topology().render();
    out.push_str("\ninterconnect paths:\n");
    let machine = runtime.machine();
    for socket in 0..runtime.topology().sockets().len() {
        for node in 0..runtime.topology().nodes().len() {
            if let Ok(path) = machine.path(socket, node) {
                out.push_str(&format!(
                    "  socket{socket} -> node{node}: {}\n",
                    path.render()
                ));
            }
        }
    }
    // The card's speed is the simulated path to the memory-only node.
    let card = runtime.fpga().and_then(|fpga| {
        let node = TierPolicy::CxlExpander.resolve(machine).ok()?;
        let gbs = machine.path_ceiling_gbs(0, node, 1, 1).ok()?;
        Some((fpga, gbs, machine.path(0, node).ok()?.added_latency_ns()))
    });
    if let Some((fpga, gbs, latency_ns)) = card {
        out.push_str(&format!(
            "\nCXL endpoint: {} ({gbs:.1} GB/s effective, {latency_ns:.0} ns fabric latency, {} GiB)\n",
            fpga.name(),
            fpga.capacity_bytes() >> 30,
        ));
    }
    out
}

/// Renders the data flow of one test group (the content of Figure 9's rows):
/// which cores are active, which memory they hit, over which links.
pub fn render_dataflow(group: TestGroup) -> String {
    let mut out = format!("{} (sub-figure {})\n", group.title(), group.subfigure());
    for trend in group.trends() {
        let runtime = trend.runtime();
        let machine = runtime.machine();
        let setup = match trend.setup {
            TrendSetup::Setup1 => "setup#1",
            TrendSetup::Setup2 => "setup#2",
        };
        // One representative placement: half the sweep's maximum.
        let threads = (group.max_threads() / 2).max(1);
        let placement = runtime
            .place(&trend.affinity, threads)
            .expect("representative placement");
        let per_socket = placement.threads_per_socket(runtime.topology());
        let sockets: Vec<String> = per_socket
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(socket, &count)| {
                let path = machine
                    .path(socket, trend.data_node)
                    .map(|p| p.render())
                    .unwrap_or_else(|_| "?".to_string());
                format!(
                    "socket{socket} ({count} threads) --[{path}]--> node{}",
                    trend.data_node
                )
            })
            .collect();
        out.push_str(&format!(
            "  {} [{}] {}:{}\n",
            trend.label,
            setup,
            trend.mode.legend_prefix(),
            trend.data_node
        ));
        for line in sockets {
            out.push_str(&format!("      {line}\n"));
        }
    }
    out
}

/// Renders the "today vs CXL future" migration sketch of Figure 1.
pub fn render_migration_overview() -> String {
    let mut out = String::new();
    out.push_str(
        "Today:        [DDR4 DIMMs]--CPU--[PMem DIMMs]      CPU--PCIe Gen4--[NVMe SSDs]\n",
    );
    out.push_str(
        "CXL future:   [DDR5 DIMMs]--CPU--PCIe Gen5/CXL--[CXL memory as PMem]  +  [NVMe SSDs]\n",
    );
    out.push_str(
        "The CXL expander sits outside the node, can be battery-backed once for all hosts,\n",
    );
    out.push_str("and is reached through the cache-coherent CXL.mem protocol.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pmem::RuntimeBuilder;

    #[test]
    fn topology_rendering_mentions_the_expander_and_paths() {
        let runtime = RuntimeBuilder::setup1().build();
        let text = render_topology(&runtime);
        assert!(text.contains("node 2"));
        assert!(text.contains("PCIe5x16"));
        assert!(text.contains("UPI"));
        assert!(text.contains("CXL endpoint"));
    }

    #[test]
    fn setup2_rendering_has_no_cxl() {
        let runtime = RuntimeBuilder::setup2().build();
        let text = render_topology(&runtime);
        assert!(!text.contains("CXL endpoint"));
        assert!(text.contains("UPI"));
    }

    #[test]
    fn dataflow_for_every_group_renders_all_trends() {
        for group in TestGroup::ALL {
            let text = render_dataflow(group);
            assert!(text.contains(group.title()));
            for trend in group.trends() {
                assert!(text.contains(&trend.label), "missing {}", trend.label);
            }
            assert!(text.contains("-->"));
        }
    }

    #[test]
    fn migration_overview_contrasts_today_and_future() {
        let text = render_migration_overview();
        assert!(text.contains("Today"));
        assert!(text.contains("CXL future"));
    }
}
