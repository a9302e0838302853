//! The artifact list and the CLI that reads it.
//!
//! The virtual-time BENCH documents are seeded results in plain IEEE
//! arithmetic, so the list must rebuild the committed files byte for byte. A
//! moved byte is a behaviour change and is committed together with its cause.
//! The wall-clock `BENCH_stream.json` and `BENCH_tiering.json` stay out.

use std::process::Command;
use streamer::artifacts::{Artifact, ARTIFACTS};

/// Picks one of the names an artifact is known by.
type Pick = fn(&Artifact) -> Option<&'static str>;

fn names(pick: Pick) -> Vec<&'static str> {
    ARTIFACTS.iter().filter_map(pick).collect()
}

/// The committed virtual-time documents, by file name.
const COMMITTED: [(&str, &str); 3] = [
    (
        "BENCH_fleet.json",
        include_str!("../../../BENCH_fleet.json"),
    ),
    (
        "BENCH_objects.json",
        include_str!("../../../BENCH_objects.json"),
    ),
    (
        "BENCH_calibration.json",
        include_str!("../../../BENCH_calibration.json"),
    ),
];

#[test]
fn virtual_time_documents_match_the_committed_files() {
    let mut built = Vec::new();
    for artifact in ARTIFACTS.iter().filter(|a| a.scenario.is_some()) {
        let output = artifact.build().unwrap();
        if let Some((file, bytes)) = output.document {
            built.push(file);
            let (_, committed) = COMMITTED
                .iter()
                .find(|(name, _)| *name == file)
                .unwrap_or_else(|| panic!("{file} is not committed"));
            assert!(
                bytes == *committed,
                "{file} moved; rerun `streamer scenario {}` and commit it with its cause",
                artifact.scenario.unwrap_or_default()
            );
        }
    }
    built.sort_unstable();
    let mut committed: Vec<&str> = COMMITTED.iter().map(|(name, _)| *name).collect();
    committed.sort_unstable();
    assert_eq!(built, committed);
}

#[test]
fn every_cli_name_is_unique() {
    let picks: [Pick; 3] = [|a| Some(a.name), |a| a.table, |a| a.scenario];
    for pick in picks {
        let mut names = names(pick);
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed, "a name is listed twice: {names:?}");
    }
}

#[test]
fn error_paths_exit_1_with_usage() {
    for args in [
        &["figure", "--kernel", "bogus"][..],
        &["group", "9z"],
        &["table", "nope"],
        &["scenario", "nope"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_streamer"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        let table = format!("\n  streamer table <{}>\n", names(|a| a.table).join("|"));
        let scenario = format!(
            "\n  streamer scenario <{}>\n",
            names(|a| a.scenario).join("|")
        );
        assert!(stderr.contains("\n\nusage:\n"), "{args:?}: {stderr}");
        assert!(stderr.contains(&table), "{args:?}: {stderr}");
        assert!(stderr.contains(&scenario), "{args:?}: {stderr}");
    }
}
