//! The workspace ships clean under its own policy: this is the same check CI
//! runs (`cargo run -p repro-analyze -- check`), as a plain test so a plain
//! `cargo test` catches a regression before the static-analysis job does.

use std::fs;
use std::path::{Path, PathBuf};

use repro_analyze::{analyze_workspace, Config, PinnedAtomics, LINTS};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean_under_its_own_policy() {
    let root = workspace_root();
    let toml = fs::read_to_string(root.join("analyzer.toml")).expect("analyzer.toml at repo root");
    let cfg = Config::from_toml(&toml).expect("analyzer.toml parses");
    let report = analyze_workspace(&root, &cfg).expect("workspace scan succeeds");

    assert!(
        report.files_scanned >= 40,
        "suspiciously small scan ({} files) — did a scan root move?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "the tree has unwaived findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale [[allow]] entries: {:?}",
        report.stale_allows
    );
    assert!(
        report.stale_paths.is_empty(),
        "stale policy paths: {:?}",
        report.stale_paths
    );
    assert!(report.is_clean());

    // Every waiver that matched carries its mandatory justification.
    for f in &report.waived {
        let j = f.waived.as_deref().unwrap_or_default();
        assert!(
            j.trim().len() >= 20,
            "waiver without a real justification: {f}"
        );
    }

    // The committed ANALYSIS.json is the one this tree produces.
    let lints: Vec<(&str, &str)> = LINTS.iter().map(|l| (l.id, l.description)).collect();
    let committed = fs::read_to_string(root.join("ANALYSIS.json")).expect("ANALYSIS.json at root");
    assert_eq!(
        committed,
        report.to_json(&lints),
        "ANALYSIS.json is stale — rerun `cargo run -p repro-analyze -- check`"
    );
}

#[test]
fn a_policy_path_that_names_no_scanned_file_fails_the_run() {
    let root = workspace_root();
    let toml = fs::read_to_string(root.join("analyzer.toml")).expect("analyzer.toml at repo root");
    let mut cfg = Config::from_toml(&toml).expect("analyzer.toml parses");
    let gone = |name: &str| format!("crates/pmem/src/{name}.rs");
    cfg.persist_zones.push(gone("persist_gone"));
    cfg.panic_free_zones.push(gone("panic_gone"));
    cfg.unsafe_forbid.push(gone("forbid_gone"));
    cfg.unsafe_deny.push(gone("deny_gone"));
    cfg.unsafe_audited.push(gone("audited_gone"));
    cfg.pinned_atomics.push(PinnedAtomics {
        file: gone("pinned_gone"),
        allowed: vec!["Relaxed".to_string()],
    });
    // A directory entry matches every file under it, so it is not stale.
    cfg.panic_free_zones.push("crates/pmem/src/".to_string());
    cfg.panic_free_zones.push("crates/pmem/gone/".to_string());
    let report = analyze_workspace(&root, &cfg).expect("workspace scan succeeds");

    assert!(!report.is_clean());
    let stale: Vec<(&str, &str)> = report
        .stale_paths
        .iter()
        .map(|(key, path)| (key.as_str(), path.as_str()))
        .collect();
    assert_eq!(
        stale,
        [
            ("persist_ordering.zones", "crates/pmem/src/persist_gone.rs"),
            ("panic_free.zones", "crates/pmem/src/panic_gone.rs"),
            ("panic_free.zones", "crates/pmem/gone/"),
            ("unsafe_audit.forbid", "crates/pmem/src/forbid_gone.rs"),
            ("unsafe_audit.deny", "crates/pmem/src/deny_gone.rs"),
            ("unsafe_audit.audited", "crates/pmem/src/audited_gone.rs"),
            ("atomic_ordering.pinned", "crates/pmem/src/pinned_gone.rs"),
        ]
    );
}
