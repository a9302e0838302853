//! `repro-analyze` CLI.
//!
//! ```text
//! repro-analyze check [--root DIR] [--config PATH] [--json PATH] [--quiet]
//! repro-analyze lints
//! ```
//!
//! `check` scans the workspace under `--root` (default: current directory)
//! with the policy in `--config` (default: `<root>/analyzer.toml`), prints
//! `file:line` diagnostics with fix hints, writes the machine-readable report
//! to `--json` (default: `<root>/ANALYSIS.json`) and exits 0 only when the
//! tree is clean. Exit codes: 0 clean, 1 findings (or stale waivers or
//! policy paths), 2 usage/config/io error.

use std::path::PathBuf;
use std::process::ExitCode;

use repro_analyze::{analyze_workspace, AnalyzerError, Config, LINTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("repro-analyze: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, AnalyzerError> {
    match args.first().map(|s| s.as_str()) {
        Some("check") => check(&args[1..]),
        Some("lints") => {
            for lint in LINTS {
                println!("{:<18} {}", lint.id, lint.description);
            }
            Ok(true)
        }
        Some(other) => Err(AnalyzerError::Usage(format!(
            "unknown command `{other}` (expected `check` or `lints`)"
        ))),
        None => Err(AnalyzerError::Usage(
            "repro-analyze check [--root DIR] [--config PATH] [--json PATH] [--quiet]".to_string(),
        )),
    }
}

fn check(args: &[String]) -> Result<bool, AnalyzerError> {
    let mut root = PathBuf::from(".");
    let mut config_path = None;
    let mut json_path = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(next_value(&mut it, "--root")?),
            "--config" => config_path = Some(PathBuf::from(next_value(&mut it, "--config")?)),
            "--json" => json_path = Some(PathBuf::from(next_value(&mut it, "--json")?)),
            "--quiet" => quiet = true,
            other => {
                return Err(AnalyzerError::Usage(format!(
                    "unknown flag `{other}` for check"
                )))
            }
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("analyzer.toml"));
    let json_path = json_path.unwrap_or_else(|| root.join("ANALYSIS.json"));

    let policy = std::fs::read_to_string(&config_path)
        .map_err(|e| AnalyzerError::Io(format!("{}: {e}", config_path.display())))?;
    let cfg = Config::from_toml(&policy)?;
    let report = analyze_workspace(&root, &cfg)?;

    let lint_table: Vec<(&str, &str)> = LINTS.iter().map(|l| (l.id, l.description)).collect();
    std::fs::write(&json_path, report.to_json(&lint_table))
        .map_err(|e| AnalyzerError::Io(format!("{}: {e}", json_path.display())))?;

    if !quiet {
        for f in &report.findings {
            println!("{f}");
        }
        for (lint, file, contains) in &report.stale_allows {
            println!(
                "analyzer.toml: stale [[allow]] entry: lint `{lint}`, file `{file}`, \
                 contains `{contains}` matched nothing\n    fix: remove the waiver (the \
                 finding it covered is gone) or update `contains`"
            );
        }
        for (key, path) in &report.stale_paths {
            println!(
                "analyzer.toml: stale policy path: `{key}` names `{path}`, which matches no \
                 scanned file\n    fix: remove the entry (the module is gone) or correct the path"
            );
        }
        println!(
            "repro-analyze: {} finding(s), {} waived, {} stale waiver(s), {} stale path(s) across {} files ({} lints)",
            report.findings.len(),
            report.waived.len(),
            report.stale_allows.len(),
            report.stale_paths.len(),
            report.files_scanned,
            LINTS.len(),
        );
    }
    Ok(report.is_clean())
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, AnalyzerError> {
    it.next()
        .ok_or_else(|| AnalyzerError::Usage(format!("{flag} needs a value")))
}
