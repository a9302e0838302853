//! Figure generation: bandwidth-vs-threads series for Figures 5–8.

use crate::groups::{TestGroup, Trend};
use cxl_pmem::Result as RuntimeResult;

use stream_bench::{Kernel, SimulatedStream, StreamConfig};

/// One plotted series: a trend's bandwidth at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Legend label.
    pub label: String,
    /// Legend glyph.
    pub symbol: char,
    /// `(threads, bandwidth GB/s)` points.
    pub points: Vec<(usize, f64)>,
}

impl TrendSeries {
    /// The saturated (maximum) bandwidth of the series.
    pub fn peak_gbs(&self) -> f64 {
        self.points.iter().map(|&(_, bw)| bw).fold(0.0, f64::max)
    }
}

/// One sub-figure: a kernel × test-group sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Paper figure number (5 = Scale, 6 = Add, 7 = Copy, 8 = Triad).
    pub figure: u32,
    /// Sub-figure letter (a–e).
    pub subfigure: char,
    /// Kernel.
    pub kernel: Kernel,
    /// Group title.
    pub title: String,
    /// One series per legend trend.
    pub trends: Vec<TrendSeries>,
}

impl FigureData {
    /// Generates the sub-figure for `kernel` × `group` using the paper's
    /// 100 M-element configuration.
    pub fn generate(kernel: Kernel, group: TestGroup) -> RuntimeResult<Self> {
        Self::generate_with_config(kernel, group, StreamConfig::paper())
    }

    /// Generates with a custom STREAM configuration (smaller arrays for tests).
    pub fn generate_with_config(
        kernel: Kernel,
        group: TestGroup,
        config: StreamConfig,
    ) -> RuntimeResult<Self> {
        let trends = group.trends();
        let series: RuntimeResult<Vec<TrendSeries>> = trends
            .iter()
            .map(|trend| Self::series_for(kernel, group, trend, config))
            .collect();
        Ok(FigureData {
            figure: kernel.figure_number(),
            subfigure: group.subfigure(),
            kernel,
            title: group.title().to_string(),
            trends: series?,
        })
    }

    fn series_for(
        kernel: Kernel,
        group: TestGroup,
        trend: &Trend,
        config: StreamConfig,
    ) -> RuntimeResult<TrendSeries> {
        let runtime = trend.runtime();
        let stream = SimulatedStream::new(&runtime, config);
        let max_threads = group.max_threads().min(runtime.topology().num_cores());
        let mut points = Vec::with_capacity(max_threads);
        for threads in 1..=max_threads {
            let placement = runtime.place(&trend.affinity, threads)?;
            let point = stream.simulate(kernel, &placement, trend.data_node, trend.mode)?;
            points.push((threads, point.bandwidth_gbs));
        }
        Ok(TrendSeries {
            label: trend.label.clone(),
            symbol: trend.symbol.glyph(),
            points,
        })
    }

    /// Emits the sub-figure as CSV (`trend,threads,bandwidth_gbs`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("trend,threads,bandwidth_gbs\n");
        for trend in &self.trends {
            for &(threads, bw) in &trend.points {
                out.push_str(&format!("\"{}\",{},{:.3}\n", trend.label, threads, bw));
            }
        }
        out
    }

    /// Emits the sub-figure as a Markdown table (one column per trend).
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### Figure {}{} — {} ({})\n\n",
            self.figure,
            self.subfigure,
            self.title,
            self.kernel.name()
        );
        out.push_str("| threads |");
        for trend in &self.trends {
            out.push_str(&format!(" {} |", trend.label));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(self.trends.len()));
        out.push('\n');
        let max_points = self
            .trends
            .iter()
            .map(|t| t.points.len())
            .max()
            .unwrap_or(0);
        for row in 0..max_points {
            let threads = self.trends[0]
                .points
                .get(row)
                .map(|p| p.0)
                .unwrap_or(row + 1);
            out.push_str(&format!("| {threads} |"));
            for trend in &self.trends {
                match trend.points.get(row) {
                    Some(&(_, bw)) => out.push_str(&format!(" {bw:.2} |")),
                    None => out.push_str("  |"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StreamConfig {
        StreamConfig::small(1_000_000)
    }

    #[test]
    fn class1a_saturates_in_the_paper_band() {
        let fig =
            FigureData::generate_with_config(Kernel::Scale, TestGroup::Class1aLocalPmem, small())
                .unwrap();
        assert_eq!(fig.figure, 5);
        assert_eq!(fig.subfigure, 'a');
        assert_eq!(fig.trends.len(), 2);
        for trend in &fig.trends {
            assert_eq!(trend.points.len(), 10);
            // Paper: local App-Direct saturates around 20-22 GB/s (window 18-28).
            let peak = trend.peak_gbs();
            assert!(peak > 18.0 && peak < 28.0, "{} peak {peak}", trend.label);
        }
    }

    #[test]
    fn class1b_cxl_is_about_half_of_remote_ddr5() {
        let fig =
            FigureData::generate_with_config(Kernel::Triad, TestGroup::Class1bRemotePmem, small())
                .unwrap();
        let remote = fig
            .trends
            .iter()
            .find(|t| t.label.contains("remote DDR5"))
            .unwrap();
        let cxl = fig.trends.iter().find(|t| t.label.contains("CXL")).unwrap();
        let ratio = cxl.peak_gbs() / remote.peak_gbs();
        assert!(ratio > 0.4 && ratio < 0.75, "cxl/remote peak ratio {ratio}");
        assert_eq!(cxl.symbol, '×');
        assert_eq!(remote.symbol, '●');
    }

    #[test]
    fn class1c_close_and_spread_converge_at_full_core_count() {
        let fig =
            FigureData::generate_with_config(Kernel::Copy, TestGroup::Class1cAffinity, small())
                .unwrap();
        assert_eq!(fig.trends.len(), 4);
        let close_cxl = fig
            .trends
            .iter()
            .find(|t| t.label.contains("CXL") && t.label.contains("close"))
            .unwrap();
        let spread_cxl = fig
            .trends
            .iter()
            .find(|t| t.label.contains("CXL") && t.label.contains("spread"))
            .unwrap();
        // At 20 threads both affinities use all cores, so they converge.
        let last_close = close_cxl.points.last().unwrap().1;
        let last_spread = spread_cxl.points.last().unwrap().1;
        assert!((last_close - last_spread).abs() / last_close < 0.05);
    }

    #[test]
    fn class2a_has_a_setup2_ddr4_trend_comparable_to_cxl() {
        let fig =
            FigureData::generate_with_config(Kernel::Add, TestGroup::Class2aRemoteNuma, small())
                .unwrap();
        assert_eq!(fig.trends.len(), 3);
        let cxl = fig.trends.iter().find(|t| t.symbol == '×').unwrap();
        let ddr4 = fig.trends.iter().find(|t| t.symbol == '▲').unwrap();
        // Paper §4 2.(a): comparable figures with gaps of a few GB/s.
        let gap = (cxl.peak_gbs() - ddr4.peak_gbs()).abs();
        assert!(gap < 6.0, "gap {gap} between CXL and on-node DDR4");
    }

    #[test]
    fn csv_and_markdown_outputs_contain_every_trend() {
        let fig =
            FigureData::generate_with_config(Kernel::Scale, TestGroup::Class1bRemotePmem, small())
                .unwrap();
        let csv = fig.to_csv();
        let md = fig.to_markdown();
        for trend in &fig.trends {
            assert!(csv.contains(&trend.label));
            assert!(md.contains(&trend.label));
        }
        assert!(csv.lines().count() > 10);
        assert!(md.contains("Figure 5b"));
    }
}
