//! The artifact list: every table, scenario gate and BENCH document the
//! `streamer` CLI emits, each built by one entry of [`ARTIFACTS`].
//!
//! `streamer table NAME` prints an entry's markdown. `streamer scenario NAME`
//! and `streamer analysis` print it too, write its BENCH document into the
//! current directory and exit 1 when its gate fails. `streamer all --out DIR`
//! writes every entry's markdown to `DIR/<name>.md` and exits 1 when any gate
//! fails.
//!
//! ```
//! use streamer::artifacts::ARTIFACTS;
//!
//! let headline = ARTIFACTS.iter().find(|a| a.table == Some("headline")).unwrap();
//! let output = headline.build().unwrap();
//! assert!(output.markdown.starts_with("### Headline comparison"));
//! assert!(output.gate.is_none() && output.document.is_none());
//! ```

use crate::analysis::Analysis;
use crate::objects::ObjectsConfig;
use crate::tables::{self, Table};
use crate::{fleet, objects, scenarios, tiering, topo};
use cxl_pmem::{ClusterError, RuntimeBuilder, RuntimeError};
use std::fmt;

/// One artifact: the names the CLI knows it by and the code that builds it.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// Its name: `streamer all --out DIR` writes `DIR/<name>.md`.
    pub name: &'static str,
    /// The name `streamer table` prints it under, if that command does.
    pub table: Option<&'static str>,
    /// The name `streamer scenario` checks its gate under, if that command
    /// does.
    pub scenario: Option<&'static str>,
    build: fn() -> Result<Output, ArtifactError>,
}

impl Artifact {
    /// Runs whatever the artifact renders and builds its output.
    pub fn build(&self) -> Result<Output, ArtifactError> {
        (self.build)()
    }
}

/// A built artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The markdown every command prints or writes.
    pub markdown: String,
    /// Text a gated run prints after the markdown (the calibration table).
    pub extra: Option<String>,
    /// The BENCH document a gated run writes: its file name and bytes.
    pub document: Option<(&'static str, String)>,
    /// The gate, for an artifact that has one.
    pub gate: Option<Gate>,
}

/// A gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Whether the gate holds.
    pub holds: bool,
    /// The line a gated run prints when it holds, or its error when not.
    pub verdict: String,
}

/// Why an artifact could not be built.
#[derive(Debug)]
pub enum ArtifactError {
    /// The runtime or the machine model failed.
    Runtime(RuntimeError),
    /// A cluster scenario failed.
    Cluster(ClusterError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Runtime(e) => e.fmt(f),
            ArtifactError::Cluster(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<RuntimeError> for ArtifactError {
    fn from(e: RuntimeError) -> Self {
        ArtifactError::Runtime(e)
    }
}

impl From<ClusterError> for ArtifactError {
    fn from(e: ClusterError) -> Self {
        ArtifactError::Cluster(e)
    }
}

/// Every artifact, in the order `streamer all` writes them.
pub static ARTIFACTS: [Artifact; 10] = [
    entry("table1", Some("1"), None, || {
        table(tables::table1(&RuntimeBuilder::setup1().build())?)
    }),
    entry("table2", Some("2"), None, || table(tables::table2()?)),
    entry("headline", Some("headline"), None, || {
        table(tables::headline_table()?)
    }),
    entry(
        "disaggregation",
        Some("disaggregation"),
        Some("restart"),
        restart,
    ),
    entry("tiering", Some("tiering"), Some("tiering"), tiering_sweep),
    entry("fleet", Some("fleet"), Some("fleet"), fleet_serving),
    entry("objects", Some("objects"), Some("objects"), object_store),
    entry(
        "topology",
        Some("topology"),
        Some("topology"),
        topology_sweep,
    ),
    entry("analysis", None, None, paper_claims),
    entry("ablation", Some("ablation"), None, || {
        table(tables::ablation_table()?)
    }),
];

const fn entry(
    name: &'static str,
    table: Option<&'static str>,
    scenario: Option<&'static str>,
    build: fn() -> Result<Output, ArtifactError>,
) -> Artifact {
    Artifact {
        name,
        table,
        scenario,
        build,
    }
}

fn table(table: Table) -> Result<Output, ArtifactError> {
    Ok(Output {
        markdown: table.to_markdown(),
        extra: None,
        document: None,
        gate: None,
    })
}

fn gated(markdown: String, holds: bool, pass: String, fail: &str) -> Output {
    Output {
        markdown,
        extra: None,
        document: None,
        gate: Some(Gate {
            holds,
            verdict: if holds { pass } else { fail.to_string() },
        }),
    }
}

fn restart() -> Result<Output, ArtifactError> {
    let report = scenarios::run_all()?;
    Ok(gated(
        scenarios::render_table(&report).to_markdown(),
        report.all_hold(),
        "all disaggregated-restart scenarios hold".to_string(),
        "a disaggregated-restart scenario failed — see the table above",
    ))
}

fn tiering_sweep() -> Result<Output, ArtifactError> {
    let report = tiering::run_sweep()?;
    Ok(gated(
        tiering::render_table(&report).to_markdown(),
        report.all_hold(),
        "adaptive tiering matches or beats static spill at every dataset size".to_string(),
        "the adaptive policy lost to static spill at a dataset size — see the table",
    ))
}

fn fleet_serving() -> Result<Output, ArtifactError> {
    let report = fleet::run_fleet()?;
    Ok(Output {
        document: Some(("BENCH_fleet.json", fleet::report_json(&report))),
        ..gated(
            fleet::render_table(&report).to_markdown(),
            report.all_hold(),
            "fleet serving holds: checkpoint tail protected, overload rejected".to_string(),
            "the fleet-serving gate failed — see the table above",
        )
    })
}

fn object_store() -> Result<Output, ArtifactError> {
    let report = objects::run_objects(&ObjectsConfig::full())?;
    Ok(Output {
        document: Some(("BENCH_objects.json", objects::report_json(&report))),
        ..gated(
            objects::render_table(&report).to_markdown(),
            report.all_hold(),
            format!(
                "object store holds: {} objects on {} hosts, {} tear cells recovered bit-exact, scan overload rejected",
                report.objects, report.hosts, report.crash_cells
            ),
            "the object-store gate failed — see the table above",
        )
    })
}

fn topology_sweep() -> Result<Output, ArtifactError> {
    let report = topo::run_topologies()?;
    Ok(Output {
        extra: Some(report.calibration.render()),
        document: Some(("BENCH_calibration.json", topo::report_json(&report))),
        ..gated(
            topo::render_table(&report).to_markdown(),
            report.all_hold(),
            format!(
                "topology ingestion holds: {} descriptions compiled, calibration max rel. error {:.1}% (bound {:.0}%)",
                report.points.len(),
                report.calibration.max_rel_error() * 100.0,
                memsim::calibration::CALIBRATION_ERROR_BOUND * 100.0
            ),
            "the topology-ingestion gate failed — see the tables above",
        )
    })
}

fn paper_claims() -> Result<Output, ArtifactError> {
    let analysis = Analysis::compute()?;
    Ok(gated(
        analysis.to_markdown(),
        analysis.all_hold(),
        "all paper claims hold in the reproduction".to_string(),
        "some paper claims do not hold — see the table above",
    ))
}
