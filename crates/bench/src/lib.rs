//! Shared helpers for the benchmark harness.
//!
//! Every Criterion target regenerates one of the paper's tables or figures:
//! it prints the series/rows (so the numbers are inspectable in the bench log
//! captured into `bench_output.txt`) and then times the generation itself so
//! `cargo bench` gives the usual statistical output.

#![forbid(unsafe_code)]

use stream_bench::Kernel;
use streamer::figures::FigureData;
use streamer::groups::TestGroup;

/// Generates and prints every sub-figure of a paper figure (5–8) for `kernel`,
/// returning the data so callers can also benchmark or assert on it.
pub fn print_figure(kernel: Kernel) -> Vec<FigureData> {
    let mut figures = Vec::new();
    for group in TestGroup::ALL {
        let figure = FigureData::generate(kernel, group).expect("figure generation");
        println!("{}", figure.to_markdown());
        figures.push(figure);
    }
    figures
}

/// Generates one sub-figure without printing (the timed body of the benches).
pub fn generate_subfigure(kernel: Kernel, group: TestGroup) -> FigureData {
    FigureData::generate(kernel, group).expect("figure generation")
}

/// The measuring host as a JSON object: worker threads available, compiler
/// and source revision (`"unknown"` where a tool is missing). Wall-clock
/// `BENCH_*.json` documents record it, so a number travels with its host.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| {
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .replace('"', "'")
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        output("rustc", &["-V"]),
        output("git", &["rev-parse", "--short", "HEAD"])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subfigure_generation_works_for_every_kernel_and_group() {
        // Smoke test with the small config path exercised through the public API.
        let figure = generate_subfigure(Kernel::Scale, TestGroup::Class1bRemotePmem);
        assert_eq!(figure.figure, 5);
        assert!(!figure.trends.is_empty());
    }
}
