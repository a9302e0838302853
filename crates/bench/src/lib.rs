//! Shared helpers for the benchmark harness.
//!
//! The Criterion targets time the code itself: the STREAM hot path
//! (`stream_hotpath`, which writes `BENCH_stream.json`), the tiering tracker
//! and migrator (`tiering_hotpath`, `BENCH_tiering.json`), admission and the
//! fleet scenario (`fleet_serving`), the object store (`object_store`) and
//! topology ingest (`calibration`). None prints a paper figure or table or
//! writes a virtual-time BENCH document: `streamer` emits those.

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
