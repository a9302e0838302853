//! Reproduce the paper's figures from the command line.
//!
//! Generates the Triad sub-figures (Figure 8a–8e), the headline bandwidth
//! table and the §4 analysis, printing everything as Markdown. This is the
//! same machinery the `streamer` CLI drives.
//!
//! Run with: `cargo run --example stream_sweep --release`

use streamer_repro::stream::Kernel;
use streamer_repro::streamer::figures::FigureData;
use streamer_repro::streamer::groups::TestGroup;
use streamer_repro::streamer::{analysis::Analysis, headline_table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# Figure 8 (TRIAD) — all five test groups\n");
    for group in TestGroup::ALL {
        let figure = FigureData::generate(Kernel::Triad, group)?;
        println!("{}", figure.to_markdown());
        // Also point out the saturation value of every trend, which is what
        // the paper's prose discusses.
        for trend in &figure.trends {
            println!("  peak of `{}`: {:.1} GB/s", trend.label, trend.peak_gbs());
        }
        println!();
    }

    println!("{}", headline_table()?.to_markdown());

    let analysis = Analysis::compute()?;
    println!("{}", analysis.to_markdown());
    if analysis.all_hold() {
        println!("All §4 claims hold in this reproduction.");
    } else {
        println!("WARNING: some §4 claims do not hold — inspect the table above.");
    }
    Ok(())
}
