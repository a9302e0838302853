//! Disaggregated-restart scenarios: the paper's federation story end-to-end.
//!
//! Figures 5–8 measure bandwidth; this module exercises the *availability*
//! claim of §1.3/§2.2 — a compute node checkpoints into switch-pooled CXL far
//! memory, fails mid-commit, and a different node attaches, acquires and
//! restores the last committed epoch. Each [`RestartScenario`] is one cell of
//! that story; [`run_all`] drives every cell and [`render_table`] renders the
//! result as a table next to the paper's bandwidth tables.

use crate::tables::Table;
use cxl_pmem::cluster::{CheckpointRegion, CoherenceMode, Crash, PmemPool, SharedRegionBackend};
use cxl_pmem::{ClusterError, CxlPmemRuntime, DisaggregatedCluster, HostSegment, RuntimeBuilder};
use std::sync::Arc;

/// Snapshot payload each scenario checkpoints (bytes).
const DATA_LEN: u64 = 128 * 1024;
/// Persist granularity (bytes).
const CHUNK_LEN: u64 = 8 * 1024;
/// Epochs host A commits before the injected failure.
const EPOCHS: u64 = 3;
/// Chunks per image.
const CHUNKS: u64 = DATA_LEN / CHUNK_LEN;

/// The scenario group: every cross-host restart cell the harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestartScenario {
    /// Host A dies mid-commit (torn commit record); host B acquires and
    /// restores the last committed epoch bit-exact.
    FailoverMidCommit,
    /// Host B restores without acquiring first — the software-coherence
    /// discipline must refuse with a typed error, not return stale data.
    StaleReadRefused,
    /// Host A dies during its *first* commit, before ever publishing; any
    /// reader must get a typed never-published error.
    UnpublishedReadRefused,
    /// Hardware back-invalidation (CXL 3.0 style): the same failover works
    /// with no explicit acquire.
    HardwareCoherenceFailover,
}

impl RestartScenario {
    /// All scenarios, in narrative order.
    pub const ALL: [RestartScenario; 4] = [
        RestartScenario::FailoverMidCommit,
        RestartScenario::StaleReadRefused,
        RestartScenario::UnpublishedReadRefused,
        RestartScenario::HardwareCoherenceFailover,
    ];

    /// Human-readable title.
    pub fn title(&self) -> &'static str {
        match self {
            RestartScenario::FailoverMidCommit => "Failover after a mid-commit crash",
            RestartScenario::StaleReadRefused => "Restore without acquire is refused",
            RestartScenario::UnpublishedReadRefused => "Unpublished segment read is refused",
            RestartScenario::HardwareCoherenceFailover => "Failover under hardware coherence",
        }
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Which scenario ran.
    pub scenario: RestartScenario,
    /// Whether the scenario's claim held.
    pub holds: bool,
    /// What happened, one line.
    pub detail: String,
}

/// Aggregate report of the whole scenario group.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartReport {
    /// Pooled expander cards behind the switch.
    pub devices: usize,
    /// Total pooled capacity (GiB).
    pub pooled_capacity_gib: f64,
    /// Per-scenario outcomes, in [`RestartScenario::ALL`] order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl RestartReport {
    /// Whether every scenario's claim held.
    pub fn all_hold(&self) -> bool {
        self.outcomes.iter().all(|o| o.holds)
    }
}

fn image(epoch: u64) -> Vec<u8> {
    (0..DATA_LEN as usize)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(epoch as u8))
        .collect()
}

fn cluster(runtime: &CxlPmemRuntime, mode: CoherenceMode) -> DisaggregatedCluster {
    runtime.disaggregated_cluster(2, mode)
}

/// Runs host 0's attempt to commit `epoch` on a pool of its own over a
/// crash-wrapped backend, the host dying at the attempt's call `at` (whole,
/// or torn when `torn`). The attempt opens the region, so it first
/// validates the target slot: its header, and its chunks when it holds an
/// image. Returns why the crash missed, if it did: the attempt ran to its
/// end before call `at`, or failed for another reason.
fn crash_attempt(
    a: &HostSegment,
    epoch: u64,
    at: u64,
    torn: bool,
) -> Result<Option<String>, ClusterError> {
    let crash = Crash::new();
    let backend = Arc::new(SharedRegionBackend::new(a.region(), a.host()));
    let pool = PmemPool::open_with_backend(crash.wrap(backend), a.name())?;
    let mut region = CheckpointRegion::open_root(&pool)?;
    crash.arm(at, torn);
    Ok(match region.checkpoint(&image(epoch)) {
        Err(e) if e.is_injected_crash() => None,
        Err(e) => Some(format!("host 0 failed before its crash at call {at}: {e}")),
        Ok(stats) => Some(format!(
            "host 0 committed epoch {} before its crash at call {at}",
            stats.epoch
        )),
    })
}

/// Commits [`EPOCHS`] epochs as host 0, then dies mid-commit of the next one
/// with its commit record in flight: after validating the target slot
/// (its header and every chunk), a write and a flush per chunk, the slot
/// header's write and persist, and the record's first eight calls, on the
/// clear of its undo log. Returns why the crash missed, if it did.
fn commit_then_crash(
    cluster: &DisaggregatedCluster,
    name: &str,
) -> Result<Option<String>, ClusterError> {
    let mut a = cluster.host(0).create_segment(name, DATA_LEN, CHUNK_LEN)?;
    for epoch in 1..=EPOCHS {
        a.checkpoint(&image(epoch))?;
    }
    crash_attempt(&a, EPOCHS + 1, 1 + CHUNKS + 2 * CHUNKS + 2 + 8, false)
}

fn run_scenario(
    runtime: &CxlPmemRuntime,
    scenario: RestartScenario,
) -> Result<ScenarioOutcome, ClusterError> {
    let outcome = |holds: bool, detail: String| {
        Ok(ScenarioOutcome {
            scenario,
            holds,
            detail,
        })
    };
    match scenario {
        RestartScenario::FailoverMidCommit => {
            let cluster = cluster(runtime, CoherenceMode::SoftwareManaged);
            if let Some(missed) = commit_then_crash(&cluster, "stencil")? {
                return outcome(false, missed);
            }
            let mut b = cluster.host(1).attach_segment("stencil")?;
            b.acquire()?;
            let mut out = vec![0u8; DATA_LEN as usize];
            let epoch = b.restore(&mut out)?;
            let bit_exact = out == image(epoch);
            outcome(
                epoch == EPOCHS && bit_exact,
                format!(
                    "host 1 restored epoch {epoch}/{EPOCHS} ({}) after host 0's torn commit",
                    if bit_exact { "bit-exact" } else { "CORRUPT" }
                ),
            )
        }
        RestartScenario::StaleReadRefused => {
            let cluster = cluster(runtime, CoherenceMode::SoftwareManaged);
            if let Some(missed) = commit_then_crash(&cluster, "stencil")? {
                return outcome(false, missed);
            }
            let mut b = cluster.host(1).attach_segment("stencil")?;
            let mut out = vec![0u8; DATA_LEN as usize];
            match b.restore(&mut out) {
                Err(ClusterError::NotAcquired { host, .. }) => outcome(
                    host == 1,
                    "restore before acquire refused with NotAcquired".to_string(),
                ),
                Err(e) => outcome(false, format!("wrong error: {e}")),
                Ok(epoch) => outcome(false, format!("stale restore of epoch {epoch} succeeded")),
            }
        }
        RestartScenario::UnpublishedReadRefused => {
            let cluster = cluster(runtime, CoherenceMode::SoftwareManaged);
            {
                // Host 0 dies tearing the slot header of its first commit:
                // after the empty target slot's header read and a write and
                // a flush per chunk.
                let a = cluster
                    .host(0)
                    .create_segment("fresh", DATA_LEN, CHUNK_LEN)?;
                if let Some(missed) = crash_attempt(&a, 1, 1 + 2 * CHUNKS, true)? {
                    return outcome(false, missed);
                }
            }
            let mut b = cluster.host(1).attach_segment("fresh")?;
            b.acquire()?;
            let mut out = vec![0u8; DATA_LEN as usize];
            match b.restore(&mut out) {
                Err(ClusterError::NeverPublished { .. }) => outcome(
                    true,
                    "read of a never-published segment refused with NeverPublished".to_string(),
                ),
                Err(e) => outcome(false, format!("wrong error: {e}")),
                Ok(epoch) => outcome(false, format!("epoch {epoch} restored without publication")),
            }
        }
        RestartScenario::HardwareCoherenceFailover => {
            let cluster = cluster(runtime, CoherenceMode::HardwareBackInvalidate);
            if let Some(missed) = commit_then_crash(&cluster, "stencil")? {
                return outcome(false, missed);
            }
            let mut b = cluster.host(1).attach_segment("stencil")?;
            let mut out = vec![0u8; DATA_LEN as usize];
            let epoch = b.restore(&mut out)?;
            let bit_exact = out == image(epoch);
            outcome(
                epoch == EPOCHS && bit_exact,
                format!("epoch {epoch} restored with no explicit acquire (back-invalidation)"),
            )
        }
    }
}

/// Runs the whole scenario group on the paper's Setup #1 runtime.
pub fn run_all() -> Result<RestartReport, ClusterError> {
    let runtime = RuntimeBuilder::setup1().build();
    let probe = cluster(&runtime, CoherenceMode::SoftwareManaged);
    let devices = probe.ports();
    let pooled_capacity_gib = probe.total_capacity() as f64 / (1u64 << 30) as f64;
    let outcomes = RestartScenario::ALL
        .iter()
        .map(|&s| run_scenario(&runtime, s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RestartReport {
        devices,
        pooled_capacity_gib,
        outcomes,
    })
}

/// Renders a computed report as the disaggregated-restart table: one row per
/// scenario plus the pool shape, next to the paper's bandwidth tables.
pub fn render_table(report: &RestartReport) -> Table {
    let mut rows = vec![vec![
        "Pooled far memory".to_string(),
        format!(
            "{} expander cards behind one CXL 2.0 switch",
            report.devices
        ),
        format!("{:.0} GiB shared pool", report.pooled_capacity_gib),
    ]];
    rows.extend(report.outcomes.iter().map(|o| {
        vec![
            o.scenario.title().to_string(),
            (if o.holds { "holds" } else { "FAILS" }).to_string(),
            o.detail.clone(),
        ]
    }));
    Table {
        title: "Disaggregated restart: cross-host checkpoint/restart over pooled CXL memory"
            .to_string(),
        headers: vec![
            "Scenario".to_string(),
            "Verdict".to_string(),
            "Detail".to_string(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_holds() {
        let report = run_all().unwrap();
        assert_eq!(report.outcomes.len(), RestartScenario::ALL.len());
        for outcome in &report.outcomes {
            assert!(
                outcome.holds,
                "{}: {}",
                outcome.scenario.title(),
                outcome.detail
            );
        }
        assert!(report.all_hold());
        assert_eq!(report.devices, 2);
        assert!(report.pooled_capacity_gib > 0.0);
    }

    #[test]
    fn a_crash_armed_past_the_commit_is_reported_not_panicked() {
        let runtime = RuntimeBuilder::setup1().build();
        let cluster = cluster(&runtime, CoherenceMode::SoftwareManaged);
        let mut a = cluster
            .host(0)
            .create_segment("late", DATA_LEN, CHUNK_LEN)
            .unwrap();
        a.checkpoint(&image(1)).unwrap();
        // The attempt makes far fewer calls than this: it runs to its end.
        let missed = crash_attempt(&a, 2, 10_000, false).unwrap();
        let missed = missed.expect("a crash past the commit's end misses");
        assert!(missed.contains("committed epoch 2"), "{missed}");
        // Armed inside the commit, the crash fires.
        assert_eq!(crash_attempt(&a, 3, 0, false).unwrap(), None);
    }

    #[test]
    fn table_renders_all_scenarios() {
        let table = render_table(&run_all().unwrap());
        assert_eq!(table.rows.len(), 1 + RestartScenario::ALL.len());
        let md = table.to_markdown();
        assert!(md.contains("Disaggregated restart"));
        assert!(md.contains("holds"));
        assert!(!md.contains("FAILS"));
        assert!(table.to_csv().contains("Scenario"));
    }
}
