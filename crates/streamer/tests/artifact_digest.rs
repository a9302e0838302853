//! Pins the modelled paper artifacts to one digest.
//!
//! Figures 5–8, Tables 1 and 2, the headline table, the §4 analysis and the
//! topology renderings are pure functions of the machine model: they are
//! the modelled content of `streamer all` and `streamer topology`. Their
//! FNV-1a digest must equal the constant recorded here.
//!
//! A refactor of the model must leave the constant unchanged. An intended
//! model change updates it in the same change.

use cxl_pmem::RuntimeBuilder;
use stream_bench::Kernel;
use streamer::{analysis::Analysis, dataflow, headline_table, table1, table2};
use streamer::{FigureData, TestGroup};

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn modelled_artifacts_are_pinned() {
    let mut artifacts: Vec<(String, String)> = Vec::new();
    for kernel in Kernel::ALL {
        for group in TestGroup::ALL {
            let figure = FigureData::generate(kernel, group).unwrap();
            let name = format!(
                "figure{}{}_{}",
                figure.figure,
                figure.subfigure,
                kernel.name()
            );
            artifacts.push((format!("{name}.csv"), figure.to_csv()));
            artifacts.push((format!("{name}.md"), figure.to_markdown()));
        }
    }
    let setup1 = RuntimeBuilder::setup1().build();
    artifacts.push(("table1".into(), table1(&setup1).unwrap().to_markdown()));
    artifacts.push(("table2".into(), table2().unwrap().to_markdown()));
    artifacts.push(("headline".into(), headline_table().unwrap().to_markdown()));
    artifacts.push((
        "analysis".into(),
        Analysis::compute().unwrap().to_markdown(),
    ));
    artifacts.push(("overview".into(), dataflow::render_migration_overview()));
    for (setup, builder) in [
        ("1", RuntimeBuilder::setup1()),
        ("2", RuntimeBuilder::setup2()),
        ("dcpmm", RuntimeBuilder::dcpmm_baseline()),
    ] {
        let topology = dataflow::render_topology(&builder.build());
        artifacts.push((format!("topology-{setup}"), topology));
    }
    assert_eq!(artifacts.len(), 4 * 5 * 2 + 4 + 1 + 3);

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (name, content) in &artifacts {
        assert!(!content.is_empty(), "{name} is empty");
        // The name and the length frame each artifact, so content cannot
        // move between neighbours without changing the digest.
        digest = fnv1a(digest, name.as_bytes());
        digest = fnv1a(digest, &(content.len() as u64).to_le_bytes());
        digest = fnv1a(digest, content.as_bytes());
    }
    assert_eq!(
        digest, 0x1d4b_c227_7534_29c1,
        "modelled artifacts moved: {digest:#018x}"
    );
}
