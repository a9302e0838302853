//! The fleet-serving scenario: hundreds of concurrent checkpoint/restore
//! streams with QoS admission control and tail-latency accounting.
//!
//! The pooling papers in PAPERS.md study the *contended* regime — many hosts
//! multiplexing one switch, noisy neighbours, fairness — and ROADMAP's fleet
//! subsystem is that regime made executable. This scenario has two legs:
//!
//! 1. **Functional** — a real [`DisaggregatedCluster`](cxl_pmem::DisaggregatedCluster)
//!    served by many OS
//!    threads at once: each simulated host creates a segment, checkpoints,
//!    restores and releases, while pool accounting must conserve
//!    (`unassigned + Σ assigned == total`) in every mid-flight snapshot.
//!    The `CxlSwitch` keeps that sum under one lock.
//! 2. **Performance** — ≥ 200 streams across ≥ 16 hosts sharing a handful
//!    of expander cards, run through the [`sim`] kernel: every stream passes
//!    the [`AdmissionController`] front door (token buckets per
//!    [`QosClass`], bounded queues, typed rejection), granted streams are
//!    steered to the least-loaded pooled card, and service is priced by the
//!    [`PortContention`](memsim::PortContention) model. Latency = admission
//!    wait + service; the report carries p50/p99/p999 per class.
//!
//! The verdict the CI gate enforces ([`FleetReport::all_hold`]): under
//! deliberate Background overload, **Checkpoint p99 stays within 2× its
//! uncontended latency** while Background traffic is **rejected with typed
//! errors** instead of degrading everyone — the serving-stack shape:
//! throughput for the paying class, graceful rejection for the scavenger.
//!
//! Everything is virtual-time and seeded, so every run (test, CI, bench)
//! reproduces bit-identically; [`report_json`] serialises the distribution
//! into `BENCH_fleet.json`.

use crate::sim::{self, ClassStats, Load, Shape};
use crate::tables::{json_number, Table};
use cxl_pmem::admission::{AdmissionController, ClassConfig, QosClass};
use cxl_pmem::cluster::CoherenceMode;
use cxl_pmem::{ClusterError, RuntimeBuilder};

const MIB: u64 = 1024 * 1024;

/// Pooled expander cards behind the switch (simulation ports).
pub const CARDS: usize = 4;
/// Simulated hosts submitting the streams. Pooling steers every granted
/// stream to the least-loaded card, so the sending host does not enter the
/// simulation.
pub const HOSTS: usize = 24;
/// Checkpoint streams (writes) driven through the fleet.
pub const CHECKPOINT_STREAMS: usize = 140;
/// Restore streams (reads).
pub const RESTORE_STREAMS: usize = 84;
/// Background scrub streams (reads) — the deliberate overload.
pub const BACKGROUND_STREAMS: usize = 56;
/// Checkpoint/restore payload (bytes).
const PAYLOAD: u64 = 64 * MIB;
/// Background scrub payload (bytes).
const SCRUB_PAYLOAD: u64 = 128 * MIB;

/// The simulation's shape: four cards, a 2 s arrival window, 0.5 ms ticks.
const SHAPE: Shape = Shape {
    seed: 0x5eed_f1ee_7ca5_0001,
    cards: CARDS,
    window_s: 2.0,
    tick_s: 0.0005,
};

/// The stream population, one load per class in [`QosClass::ALL`] order.
const LOADS: [Load; 3] = [
    Load {
        name: "checkpoint",
        class: QosClass::Checkpoint,
        count: CHECKPOINT_STREAMS,
        bytes: PAYLOAD,
    },
    Load {
        name: "restore",
        class: QosClass::Restore,
        count: RESTORE_STREAMS,
        bytes: PAYLOAD,
    },
    Load {
        name: "background",
        class: QosClass::Background,
        count: BACKGROUND_STREAMS,
        bytes: SCRUB_PAYLOAD,
    },
];

/// Aggregate report of the fleet scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Simulated hosts.
    pub hosts: usize,
    /// Pooled expander cards (ports).
    pub cards: usize,
    /// Whether pool accounting conserved in every snapshot of the
    /// functional concurrent-serving leg.
    pub pool_conserved: bool,
    /// Per-class stats, in [`QosClass::ALL`] order.
    pub classes: Vec<ClassStats>,
    /// `checkpoint p99 / checkpoint uncontended` — the gated tail ratio.
    pub checkpoint_p99_ratio: f64,
    /// Typed rejection messages observed (deduplicated), for the table.
    pub sample_rejections: Vec<String>,
}

impl FleetReport {
    /// Total streams driven through the admission front door.
    pub fn total_streams(&self) -> usize {
        self.classes.iter().map(|c| c.submitted).sum()
    }

    /// Stats of one class.
    pub fn class(&self, class: QosClass) -> &ClassStats {
        self.classes
            .iter()
            .find(|c| c.class == class)
            .expect("all classes present")
    }

    /// The acceptance criteria CI enforces:
    ///
    /// * scale — ≥ 200 streams across ≥ 16 hosts;
    /// * conservation — the functional leg never broke pool accounting;
    /// * isolation — Checkpoint p99 ≤ 2× its uncontended latency despite the
    ///   Background overload;
    /// * graceful rejection — Background overload produced typed rejections,
    ///   and nothing was silently dropped (`served + rejected == submitted`
    ///   for every class).
    pub fn all_hold(&self) -> bool {
        self.total_streams() >= 200
            && self.hosts >= 16
            && self.pool_conserved
            && self.checkpoint_p99_ratio <= 2.0
            && self.class(QosClass::Background).rejected > 0
            && self
                .classes
                .iter()
                .all(|c| c.served + c.rejected == c.submitted)
            && self
                .classes
                .iter()
                .filter(|c| c.served > 0)
                .all(|c| c.p50_ms > 0.0 && c.p999_ms >= c.p99_ms && c.p99_ms >= c.p50_ms)
    }
}

/// The scenario's admission configuration: Checkpoint and Restore sized for
/// their offered load; Background deliberately throttled far below its
/// demand so the overload surfaces as typed rejections.
fn admission() -> AdmissionController {
    AdmissionController::new([
        // Checkpoint: 12 GB/s sustained, 1 GiB burst, queue of 32.
        ClassConfig {
            rate_bytes_per_sec: 12e9,
            burst_bytes: 1024 * MIB,
            queue_depth: 32,
        },
        // Restore: 8 GB/s sustained, 1 GiB burst, queue of 16.
        ClassConfig {
            rate_bytes_per_sec: 8e9,
            burst_bytes: 1024 * MIB,
            queue_depth: 16,
        },
        // Background: 128 MiB/s against ~3.5 GiB/s of offered scrub load —
        // the bounded queue overflows and most scrubs are refused.
        ClassConfig {
            rate_bytes_per_sec: 128.0 * MIB as f64,
            burst_bytes: 256 * MIB,
            queue_depth: 4,
        },
    ])
}

/// The functional leg: many OS threads serve a real cluster concurrently;
/// every mid-flight accounting snapshot must conserve and the pool must
/// drain clean. Returns whether conservation held throughout.
fn concurrent_serving_conserves() -> Result<bool, ClusterError> {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 16;
    const ROUNDS: usize = 2;
    const DATA: u64 = 64 * 1024;
    const CHUNK: u64 = 4096;

    let runtime = RuntimeBuilder::setup1().build();
    let cluster = runtime.disaggregated_cluster(CARDS, CoherenceMode::SoftwareManaged);
    let total = cluster.total_capacity();
    let conserved = AtomicBool::new(true);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Auditor: snapshots taken *during* the storm must conserve.
        let auditor = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if !cluster.accounting().conserves() {
                    conserved.store(false, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        let mut workers = Vec::new();
        for host in 0..THREADS {
            let cluster = &cluster;
            let conserved = &conserved;
            workers.push(scope.spawn(move || {
                let image: Vec<u8> = (0..DATA as usize)
                    .map(|i| (i as u8).wrapping_mul(31).wrapping_add(host as u8))
                    .collect();
                for round in 0..ROUNDS {
                    let name = format!("fleet-h{host}-r{round}");
                    let outcome = (|| -> Result<(), ClusterError> {
                        let mut seg = cluster.host(host).create_segment(&name, DATA, CHUNK)?;
                        seg.checkpoint(&image)?;
                        let mut out = vec![0u8; DATA as usize];
                        seg.restore(&mut out)?;
                        if out != image {
                            return Err(ClusterError::UnknownSegment(format!(
                                "{name}: restore was not bit-exact"
                            )));
                        }
                        drop(seg);
                        cluster.release_segment(&name)
                    })();
                    if outcome.is_err() {
                        conserved.store(false, Ordering::Relaxed);
                    }
                }
            }));
        }
        // Join the serving threads before raising the auditor's stop flag,
        // so the auditor also samples the fully-drained pool at least once.
        for worker in workers {
            worker.join().expect("serving thread panicked");
        }
        done.store(true, Ordering::Relaxed);
        auditor.join().expect("auditor thread panicked");
    });

    let acct = cluster.accounting();
    Ok(conserved.load(Ordering::Relaxed)
        && acct.conserves()
        && acct.unassigned == total
        && acct.assigned_total() == 0)
}

/// Runs the whole fleet scenario on the paper's Setup #1 model: the
/// functional concurrent-serving leg, then the stream population through
/// the [`sim`] kernel.
pub fn run_fleet() -> Result<FleetReport, ClusterError> {
    let port = sim::expander_port()?;
    let pool_conserved = concurrent_serving_conserves()?;
    let outcome = sim::run(SHAPE, &admission(), &port, &LOADS);
    let ckpt = outcome
        .classes
        .iter()
        .find(|c| c.class == QosClass::Checkpoint)
        .expect("checkpoint load present");
    let checkpoint_p99_ratio = ckpt.p99_ms / ckpt.uncontended_ms;

    Ok(FleetReport {
        hosts: HOSTS,
        cards: CARDS,
        pool_conserved,
        classes: outcome.classes,
        checkpoint_p99_ratio,
        sample_rejections: outcome.rejections,
    })
}

/// Renders a computed report as the fleet-serving table.
pub fn render_table(report: &FleetReport) -> Table {
    let mut rows = vec![vec![
        "Fleet shape".to_string(),
        format!(
            "{} streams · {} hosts · {} pooled cards",
            report.total_streams(),
            report.hosts,
            report.cards
        ),
        String::new(),
    ]];
    for c in &report.classes {
        rows.push(vec![
            format!("{} ({} streams)", c.class, c.submitted),
            format!("{} served · {} rejected", c.served, c.rejected),
            format!(
                "p50 {:.2} ms · p99 {:.2} ms · p999 {:.2} ms (solo {:.2} ms)",
                c.p50_ms, c.p99_ms, c.p999_ms, c.uncontended_ms
            ),
        ]);
    }
    rows.push(vec![
        "Checkpoint p99 vs uncontended".to_string(),
        format!("{:.2}x (budget 2.0x)", report.checkpoint_p99_ratio),
        (if report.checkpoint_p99_ratio <= 2.0 {
            "holds"
        } else {
            "FAILS"
        })
        .to_string(),
    ]);
    rows.push(vec![
        "Background overload".to_string(),
        format!(
            "{} typed rejections",
            report.class(QosClass::Background).rejected
        ),
        report
            .sample_rejections
            .first()
            .cloned()
            .unwrap_or_default(),
    ]);
    rows.push(vec![
        "Pool conservation (concurrent serving)".to_string(),
        (if report.pool_conserved {
            "holds"
        } else {
            "FAILS"
        })
        .to_string(),
        "unassigned + Σ assigned == total in every snapshot".to_string(),
    ]);
    Table {
        title: "Fleet serving: QoS admission + tail latency over the pooled CXL tier".to_string(),
        headers: vec![
            "Metric".to_string(),
            "Value".to_string(),
            "Detail".to_string(),
        ],
        rows,
    }
}

/// Serialises a report as the `BENCH_fleet.json` document the CI perf gate
/// reads: per-class latency distributions plus the gated ratio.
pub fn report_json(report: &FleetReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"streams\": {},\n  \"hosts\": {},\n  \"cards\": {},\n  \"pool_conserved\": {},\n  \"checkpoint_p99_over_uncontended\": {},\n  \"classes\": {{\n",
        report.total_streams(),
        report.hosts,
        report.cards,
        report.pool_conserved,
        json_number(report.checkpoint_p99_ratio),
    ));
    for (i, c) in report.classes.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"submitted\": {},\n      \"served\": {},\n      \"rejected\": {},\n      \"p50_ms\": {},\n      \"p99_ms\": {},\n      \"p999_ms\": {},\n      \"uncontended_ms\": {}\n    }}{}\n",
            c.name,
            c.submitted,
            c.served,
            c.rejected,
            json_number(c.p50_ms),
            json_number(c.p99_ms),
            json_number(c.p999_ms),
            json_number(c.uncontended_ms),
            if i + 1 < report.classes.len() { "," } else { "" },
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_meets_every_acceptance_gate() {
        let report = run_fleet().unwrap();
        assert!(report.total_streams() >= 200, "{}", report.total_streams());
        assert!(report.hosts >= 16);
        assert!(report.pool_conserved, "pool accounting broke mid-serving");
        assert!(
            report.checkpoint_p99_ratio <= 2.0,
            "checkpoint p99 blew its tail budget: {:.2}x",
            report.checkpoint_p99_ratio
        );
        let bg = report.class(QosClass::Background);
        assert!(bg.rejected > 0, "the overload never produced a rejection");
        assert!(
            report
                .sample_rejections
                .iter()
                .any(|r| r.contains("back off")),
            "rejections were not the typed overload error: {:?}",
            report.sample_rejections
        );
        for c in &report.classes {
            assert_eq!(c.served + c.rejected, c.submitted, "{} lost work", c.class);
        }
        assert!(report.all_hold());
    }

    #[test]
    fn checkpoint_class_is_protected_and_background_throttled() {
        let report = run_fleet().unwrap();
        let ckpt = report.class(QosClass::Checkpoint);
        let bg = report.class(QosClass::Background);
        // Every checkpoint was served — the paying class is never shed.
        assert_eq!(ckpt.rejected, 0, "checkpoints were shed");
        assert_eq!(ckpt.served, ckpt.submitted);
        // Background took the hit instead: most scrubs refused.
        assert!(
            bg.rejected * 2 > bg.submitted,
            "overloaded Background mostly admitted? {}/{}",
            bg.rejected,
            bg.submitted
        );
        // Latency ordering is sane: contended tails sit at or above solo.
        for c in &report.classes {
            if c.served > 0 {
                assert!(c.p99_ms + 1e-9 >= c.uncontended_ms, "{}", c.class);
            }
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_fleet().unwrap();
        let b = run_fleet().unwrap();
        assert_eq!(a.classes, b.classes);
        assert_eq!(
            a.checkpoint_p99_ratio.to_bits(),
            b.checkpoint_p99_ratio.to_bits()
        );
    }

    #[test]
    fn table_and_json_render_the_distribution() {
        let report = run_fleet().unwrap();
        let md = render_table(&report).to_markdown();
        assert!(md.contains("Fleet serving"));
        assert!(md.contains("Checkpoint"));
        assert!(md.contains("p999"));
        assert!(!md.contains("FAILS"));
        let json = report_json(&report);
        assert!(json.contains("\"checkpoint\""));
        assert!(json.contains("\"p999_ms\""));
        assert!(json.contains("\"checkpoint_p99_over_uncontended\""));
        // Well-formed enough for the CI python gate: one top-level object.
        assert_eq!(json.matches("\"classes\"").count(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(sim::percentile(&data, 0.5), 3.0);
        assert_eq!(sim::percentile(&data, 0.99), 5.0);
        assert_eq!(sim::percentile(&data, 0.001), 1.0);
        assert_eq!(sim::percentile(&[], 0.5), 0.0);
    }
}
