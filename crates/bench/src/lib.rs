//! Shared helpers for the wall-clock benches.
//!
//! Two `harness = false` benches time the functional code and write the
//! documents CI floors: the STREAM hot path (`stream_hotpath`, which writes
//! `BENCH_stream.json`) and the tiering tracker and migrator
//! (`tiering_hotpath`, `BENCH_tiering.json`). Run one with
//! `cargo bench -p repro-bench --bench NAME`. Neither prints a paper figure
//! or table or writes a virtual-time BENCH document: `streamer` emits those.
//! Every other wall-clock number comes from `perfbench`.

#![forbid(unsafe_code)]

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
