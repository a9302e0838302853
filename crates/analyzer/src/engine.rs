//! The analysis engine: walk the workspace, run every lint, apply waivers.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::findings::{Finding, Report};
use crate::lints::{zone_matches, LINTS};
use crate::source::SourceFile;
use crate::AnalyzerError;

/// Runs every lint over one in-memory source file under `cfg`.
///
/// This is the unit the fixtures drive; [`analyze_workspace`] is the same
/// thing fed from disk. Waivers are *not* applied here — golden tests want
/// the raw findings.
pub fn analyze_source(path: &str, text: &str, cfg: &Config) -> Vec<Finding> {
    let file = SourceFile::parse(path, text);
    let mut findings = Vec::new();
    for lint in LINTS {
        findings.extend((lint.run)(&file, cfg));
    }
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    // One diagnostic per (line, lint, message): three dynamic indexes on one
    // line are one audit to write, not three findings to count.
    findings.dedup_by(|a, b| a.line == b.line && a.lint == b.lint && a.message == b.message);
    findings
}

/// Convenience for doctests and quick checks: analyzes a snippet with a
/// config that puts the snippet in every zone (so each lint is live).
pub fn analyze_snippet(path: &str, text: &str) -> Vec<Finding> {
    // `unsafe_audited` stays empty: any `unsafe` in a snippet fires.
    let cfg = Config {
        persist_zones: vec![path.to_string()],
        panic_free_zones: vec![path.to_string()],
        ..Config::default()
    };
    analyze_source(path, text, &cfg)
}

/// Walks the configured scan roots, analyzes every `.rs` file under a `src`
/// tree and applies the `[[allow]]` waivers. Paths in the report are
/// `/`-separated and relative to `root`. A policy path (zone, crate root,
/// audited module or pinned file) that matches no scanned file is reported
/// as stale, like a waiver that matches nothing.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Report, AnalyzerError> {
    let mut files = Vec::new();
    for scan in &cfg.scan {
        collect_rs_files(&root.join(scan), root, cfg, &mut files)?;
    }
    files.sort();

    let mut report = Report {
        files_scanned: files.len(),
        stale_paths: policy_paths(cfg)
            .filter(|(_, path)| !files.iter().any(|f| zone_matches(f, path)))
            .map(|(key, path)| (key.to_string(), path.to_string()))
            .collect(),
        ..Report::default()
    };
    let mut allow_hits = vec![0usize; cfg.allows.len()];
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))
            .map_err(|e| AnalyzerError::Io(format!("{rel}: {e}")))?;
        for mut f in analyze_source(rel, &text, cfg) {
            let waiver = cfg.allows.iter().enumerate().find(|(_, a)| {
                a.lint == f.lint && a.file == f.file && f.snippet.contains(&a.contains)
            });
            match waiver {
                Some((idx, a)) => {
                    allow_hits[idx] += 1;
                    f.waived = Some(a.justification.clone());
                    report.waived.push(f);
                }
                None => report.findings.push(f),
            }
        }
    }
    for (idx, hits) in allow_hits.iter().enumerate() {
        if *hits == 0 {
            let a = &cfg.allows[idx];
            report
                .stale_allows
                .push((a.lint.clone(), a.file.clone(), a.contains.clone()));
        }
    }
    Ok(report)
}

/// Every file or directory path the policy names, with the key naming it.
fn policy_paths(cfg: &Config) -> impl Iterator<Item = (&'static str, &str)> {
    [
        ("persist_ordering.zones", &cfg.persist_zones),
        ("panic_free.zones", &cfg.panic_free_zones),
        ("unsafe_audit.forbid", &cfg.unsafe_forbid),
        ("unsafe_audit.deny", &cfg.unsafe_deny),
        ("unsafe_audit.audited", &cfg.unsafe_audited),
    ]
    .into_iter()
    .flat_map(|(key, paths)| paths.iter().map(move |p| (key, p.as_str())))
    .chain(
        cfg.pinned_atomics
            .iter()
            .map(|p| ("atomic_ordering.pinned", p.file.as_str())),
    )
}

/// Recursively collects `.rs` files under `dir` that live in a `src` tree and
/// are not under a skip prefix. Missing scan roots are an error: a policy
/// pointing at nothing is a policy typo.
fn collect_rs_files(
    dir: &Path,
    root: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> Result<(), AnalyzerError> {
    let entries =
        fs::read_dir(dir).map_err(|e| AnalyzerError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzerError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        let rel = relative(&path, root);
        if cfg.skip.iter().any(|s| rel.starts_with(s.as_str())) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, root, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") && in_src_tree(&rel) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Only `src` trees are scanned: integration tests, benches and examples are
/// allowed to unwrap, index and stringify to their heart's content.
fn in_src_tree(rel: &str) -> bool {
    rel.starts_with("src/") || rel.contains("/src/")
}

fn relative(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    // Normalise to `/` so analyzer.toml is platform-independent.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
