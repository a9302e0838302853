//! The versioned-object-store scenario: a KV-style mixed reader/writer
//! workload over shared far memory, with QoS admission and tail accounting.
//!
//! The tentpole subsystem under test is `pmem::ObjectStore` served through
//! [`cxl_pmem::HostStore`]: a durable directory of epoch-versioned objects
//! inside one shared far-memory segment, single writer per object, many
//! readers on other hosts through the publish/acquire software-coherence
//! protocol. This scenario has the same two-leg shape as [`crate::fleet`]:
//!
//! 1. **Functional** — a real [`DisaggregatedCluster`](cxl_pmem::DisaggregatedCluster):
//!    one writer host creates a store, populates ≥ 100k small objects (full
//!    config) through the admission-classed KV ops, and reader hosts
//!    acquire + spot-check committed bytes. The mixed phase interleaves
//!    writer updates and deletes with reader rounds; the coherence
//!    discipline is asserted (a stale reader gets a typed
//!    [`ClusterError::NotAcquired`], never stale or torn bytes). Then the
//!    crash leg: the writer host dies at eight chosen calls of a put and a
//!    commit (`CRASH_CELLS`), its attempt running on a pool of its own
//!    over a crash-wrapped backend, and a *different* host runs recovery and
//!    must read the old-or-new committed version bit-exact, with the
//!    directory conserving (`live + free == capacity`) in every cell.
//! 2. **Performance** — batched KV ops through the [`sim`] kernel and its
//!    [`AdmissionController`] front door: `put_commit` batches
//!    spend the write ceiling as [`QosClass::Checkpoint`] traffic, `get`
//!    batches the read ceiling as [`QosClass::Restore`], and whole-store
//!    `scan`s arrive as deliberately-throttled [`QosClass::Background`]
//!    overload that must surface as typed rejections. Latency = admission
//!    wait + port service (processor sharing, calibrated arbitration
//!    shave); the report carries per-op-class p50/p99.
//!
//! Everything is virtual-time and seeded, so every run reproduces
//! bit-identically; [`report_json`] serialises the verdict into
//! `BENCH_objects.json` for the CI perf gate.

use crate::sim::{self, ClassStats, Load, Shape};
use crate::tables::{json_number, Table};
use cxl_pmem::admission::{AdmissionController, ClassConfig, QosClass};
use cxl_pmem::cluster::{CoherenceMode, Crash, ObjectStore, PmemPool, SharedRegionBackend};
use cxl_pmem::{ClusterError, HostStore, RuntimeBuilder};
use std::sync::Arc;

const MIB: u64 = 1024 * 1024;
/// Pooled expander cards behind the switch.
const CARDS: usize = 2;
/// The simulation's shape: two cards, a 50 ms arrival window, 0.2 ms ticks.
const SHAPE: Shape = Shape {
    seed: 0x000b_1ec7_5eed_0001,
    cards: CARDS,
    window_s: 0.05,
    tick_s: 0.0002,
};
/// Bytes a commit record spends at admission (directory-entry sized).
const COMMIT_BYTES: u64 = 64;
/// Payload bytes per object version.
const VALUE_LEN: u64 = 64;
/// The mixed phase updates (and the delete wave deletes) every k-th id.
const UPDATE_EVERY: u64 = 8;
/// Objects per simulated put/get batch.
const BATCH: u64 = 256;
/// Objects per simulated scan.
const SCAN_BATCH: u64 = 4_096;

/// The crash leg's cells: whether the writer dies in the commit (else in
/// the put), at which of the op's calls, and whether that write is torn. A
/// put is the entry read (0), the slot write (1) and its flush (2). A
/// commit's record writes the directory entry at 7, clears its undo log at
/// 11 and persists the clear at 12, its last call: from that persist on the
/// record is durable, and a commit armed at 13 runs to its end.
const CRASH_CELLS: [(bool, u64, bool); 8] = [
    (false, 0, false),
    (false, 1, false),
    (false, 1, true),
    (false, 2, false),
    (true, 7, false),
    (true, 11, false),
    (true, 12, false),
    (true, 13, false),
];
/// Backend calls of a commit: a commit armed at this call runs to its end.
const COMMIT_CALLS: u64 = 13;

/// Shape of one objects-scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectsConfig {
    /// Hosts on the cluster (1 writer + `hosts - 1` readers); ≥ 2.
    pub hosts: usize,
    /// Objects the store is created for — and fully populated with.
    pub objects: u64,
    /// Committed-byte spot checks per reader host in the functional leg.
    pub read_samples: u64,
    /// Simulated `put_commit` batch ops ([`QosClass::Checkpoint`]).
    pub writer_ops: usize,
    /// Simulated `get` batch ops ([`QosClass::Restore`]).
    pub reader_ops: usize,
    /// Simulated whole-store `scan` ops ([`QosClass::Background`] overload).
    pub scan_ops: usize,
}

impl ObjectsConfig {
    /// The full-scale shape the CI gate runs: ≥ 100k objects, 4 hosts.
    pub fn full() -> Self {
        ObjectsConfig {
            hosts: 4,
            objects: 120_000,
            read_samples: 2_048,
            writer_ops: 600,
            reader_ops: 900,
            scan_ops: 300,
        }
    }

    /// A debug-friendly shape with the same invariants at toy scale.
    pub fn smoke() -> Self {
        ObjectsConfig {
            hosts: 2,
            objects: 2_048,
            read_samples: 256,
            writer_ops: 120,
            reader_ops: 180,
            scan_ops: 60,
        }
    }
}

/// Aggregate report of the objects scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectsReport {
    /// Hosts the functional leg drove (writer + readers).
    pub hosts: usize,
    /// Objects populated, spot-checked and audited in the store.
    pub objects: u64,
    /// Payload bytes per object version.
    pub value_len: u64,
    /// Highest committed epoch the directory audit observed.
    pub committed_versions: u64,
    /// Crash cells exercised cross-host (calls of a put and a commit).
    pub crash_cells: usize,
    /// Every cell recovered to an exact old-or-new committed version on a
    /// *different* host, never torn bytes.
    pub crash_survived: bool,
    /// The directory audit conserved (`live + free == capacity`, checksums
    /// valid) after population, updates, deletes and every crash cell.
    pub store_conserved: bool,
    /// A stale reader was refused with the typed coherence error.
    pub coherence_enforced: bool,
    /// Every reader spot check returned the exact committed bytes.
    pub reads_exact: bool,
    /// Per-op-class stats, `put_commit` / `get` / `scan` order.
    pub classes: Vec<ClassStats>,
}

impl ObjectsReport {
    /// Stats of one op class.
    pub fn class(&self, class: QosClass) -> &ClassStats {
        self.classes
            .iter()
            .find(|c| c.class == class)
            .expect("all op classes present")
    }

    /// The scale-independent invariants (what the smoke tests assert):
    ///
    /// * crash discipline — every injected tear recovered bit-exact on
    ///   another host, and the directory conserved throughout;
    /// * coherence — the stale reader got a typed refusal; every sanctioned
    ///   read was bit-exact;
    /// * accounting — `served + rejected == submitted` for every op class,
    ///   the paying classes were never shed, the Background scan overload
    ///   produced typed rejections;
    /// * distribution sanity — `p99 ≥ p50 > 0` for every served class.
    pub fn holds_invariants(&self) -> bool {
        self.crash_survived
            && self.store_conserved
            && self.coherence_enforced
            && self.reads_exact
            && self.crash_cells >= 8
            && self.committed_versions >= 2
            && self
                .classes
                .iter()
                .all(|c| c.served + c.rejected == c.submitted)
            && self.class(QosClass::Checkpoint).rejected == 0
            && self.class(QosClass::Restore).rejected == 0
            && self.class(QosClass::Background).rejected > 0
            && self
                .classes
                .iter()
                .filter(|c| c.served > 0)
                .all(|c| c.p50_ms > 0.0 && c.p99_ms >= c.p50_ms)
    }

    /// The acceptance criteria CI enforces: the invariants at full scale —
    /// ≥ 100k objects across ≥ 2 hosts.
    pub fn all_hold(&self) -> bool {
        self.holds_invariants() && self.objects >= 100_000 && self.hosts >= 2
    }
}

/// Deterministic bytes of object `id` at committed epoch `epoch`.
fn value_bytes(id: u64, epoch: u64) -> Vec<u8> {
    let seed = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(epoch.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (0..VALUE_LEN)
        .map(|i| (seed.wrapping_add(i.wrapping_mul(0xFF51_AFD7_ED55_8CCD)) >> 32) as u8)
        .collect()
}

/// Outcome of the functional leg.
struct Functional {
    committed_versions: u64,
    crash_cells: usize,
    crash_survived: bool,
    store_conserved: bool,
    coherence_enforced: bool,
    reads_exact: bool,
}

/// A front door generous enough that sanctioned KV traffic is never shed —
/// the functional leg proves the *routing*, the simulation prices the
/// contention.
fn generous_door() -> Arc<AdmissionController> {
    Arc::new(AdmissionController::new([
        ClassConfig {
            rate_bytes_per_sec: 64e9,
            burst_bytes: 1 << 30,
            queue_depth: 1024,
        },
        ClassConfig {
            rate_bytes_per_sec: 64e9,
            burst_bytes: 1 << 30,
            queue_depth: 1024,
        },
        ClassConfig::closed(),
    ]))
}

/// The functional leg: a real cluster, one writer host, reader hosts, the
/// coherence discipline, and the cross-host tear matrix.
fn functional_leg(cfg: &ObjectsConfig) -> Result<Functional, ClusterError> {
    let runtime = RuntimeBuilder::setup1().build();
    let cluster = runtime.disaggregated_cluster(CARDS, CoherenceMode::SoftwareManaged);
    let door = generous_door();
    let mut clock = 0.0f64;
    let mut tick = move || {
        clock += 1e-6;
        clock
    };

    let mut writer = cluster
        .host(0)
        .create_store("objects", cfg.objects, VALUE_LEN)?;
    writer.set_front_door(Arc::clone(&door));

    // 1. Populate every object at epoch 1 through the admission-classed ops.
    for id in 0..cfg.objects {
        writer.put_classed(id, &value_bytes(id, 1), tick())?;
        writer.commit_classed(id, tick())?;
    }

    // 2. Reader hosts acquire the publication and spot-check committed bytes.
    let mut reads_exact = true;
    let mut readers: Vec<HostStore> = Vec::new();
    for host in 1..cfg.hosts {
        let mut reader = cluster.host(host).open_store("objects")?;
        reader.acquire()?;
        let stride = (cfg.objects / cfg.read_samples).max(1);
        let mut id = (host as u64) % stride;
        while id < cfg.objects {
            if reader.get_classed(id, tick())? != value_bytes(id, 1) {
                reads_exact = false;
            }
            id += stride;
        }
        readers.push(reader);
    }

    // 3. Coherence discipline: the writer republishes; a reader still on the
    //    old acquisition must get the typed refusal, then sees the new
    //    version after re-acquiring.
    writer.put_classed(0, &value_bytes(0, 2), tick())?;
    writer.commit_classed(0, tick())?;
    let stale = &mut readers[0];
    let coherence_enforced = matches!(stale.get(0), Err(ClusterError::NotAcquired { .. }));
    stale.acquire()?;
    if stale.get(0)? != value_bytes(0, 2) {
        reads_exact = false;
    }

    // 4. Mixed phase: update every k-th object (epoch 2), delete + reinsert
    //    every 2k-th (epoch restarts at 1 after a delete), readers re-acquire
    //    and verify the exact post-round bytes.
    for id in (0..cfg.objects).step_by(UPDATE_EVERY as usize) {
        if id == 0 {
            continue; // already at epoch 2 from the coherence probe
        }
        writer.put_classed(id, &value_bytes(id, 2), tick())?;
        writer.commit_classed(id, tick())?;
    }
    for id in (0..cfg.objects).step_by(2 * UPDATE_EVERY as usize) {
        writer.delete(id)?;
        writer.put_classed(id, &value_bytes(id, 3), tick())?;
        writer.commit_classed(id, tick())?;
    }
    for (slot, reader) in readers.iter_mut().enumerate() {
        let host = slot + 1;
        reader.acquire()?;
        let stride = (cfg.objects / cfg.read_samples).max(1);
        let mut id = (host as u64) % stride;
        while id < cfg.objects {
            let epoch = if id.is_multiple_of(2 * UPDATE_EVERY) {
                3
            } else if id.is_multiple_of(UPDATE_EVERY) {
                2
            } else {
                1
            };
            if reader.get_classed(id, tick())? != value_bytes(id, epoch) {
                reads_exact = false;
            }
            id += stride;
        }
    }
    drop(readers);

    // 5. The cross-host tear matrix: the writer host dies at each of the
    //    CRASH_CELLS calls, its attempt running on a pool of its own over a
    //    crash-wrapped backend. A different host opens the store (undo
    //    recovery runs there), and must read an exact old-or-new committed
    //    version while the directory conserves.
    let mut crash_survived = true;
    let mut store_conserved = true;
    for (cell, &(in_commit, at, torn)) in CRASH_CELLS.iter().enumerate() {
        let id = 1 + cell as u64; // ids not touched by the delete wave
        let old_epoch = if id.is_multiple_of(UPDATE_EVERY) {
            2
        } else {
            1
        };
        let old = value_bytes(id, old_epoch);
        let new = value_bytes(id, 90 + cell as u64);
        let crash = Crash::new();
        let backend = Arc::new(SharedRegionBackend::new(writer.region(), writer.host()));
        let pool = PmemPool::open_with_backend(crash.wrap(backend), writer.name())?;
        let mut store = ObjectStore::open_root(&pool)?;
        if in_commit {
            store.put(id, &new)?;
        }
        crash.arm(at, torn);
        let result = if in_commit {
            store.commit(id).map(drop)
        } else {
            store.put(id, &new)
        };
        // Only a commit armed past its last call runs to its end, and its
        // commit ends in a publish; every other cell must kill the writer.
        let committed_anyway = result.is_ok();
        if committed_anyway != (in_commit && at == COMMIT_CALLS) {
            crash_survived = false;
        }
        if committed_anyway {
            writer.region().attach(writer.host()).publish();
        }
        drop(store);
        drop(pool);
        // The spare host takes over: open (recovery), acquire, audit.
        let mut spare = cluster.host(cfg.hosts - 1).open_store("objects")?;
        spare.acquire()?;
        let got = spare.get(id)?;
        if got != old && got != new {
            crash_survived = false;
        }
        let check = spare.verify()?;
        if check.live + check.free != cfg.objects {
            store_conserved = false;
        }
        // A slot-write tear must never surface (the committed version is
        // untouched by construction), and a landed commit must read back
        // as exactly the new version.
        if !in_commit && got != old {
            crash_survived = false;
        }
        if committed_anyway && got != new {
            crash_survived = false;
        }
        drop(spare);
        // The writer host reboots its handle and repairs determinism:
        // whatever the cell left behind, recommit the old bytes.
        writer = cluster.host(0).open_store("objects")?;
        writer.set_front_door(Arc::clone(&door));
        writer.put_classed(id, &old, tick())?;
        writer.commit_classed(id, tick())?;
    }
    let crash_cells = CRASH_CELLS.len();

    // 6. Final audit on the writer's view.
    let check = writer.verify()?;
    if check.live + check.free != cfg.objects || check.live != cfg.objects {
        store_conserved = false;
    }

    Ok(Functional {
        committed_versions: check.max_epoch,
        crash_cells,
        crash_survived,
        store_conserved,
        coherence_enforced,
        reads_exact,
    })
}

/// The simulation's admission shape: the KV classes sized for their offered
/// load; Background scans throttled far below demand so the overload
/// surfaces as typed rejections.
fn sim_admission() -> AdmissionController {
    AdmissionController::new([
        // put_commit batches: 192 MB/s sustained, 1 MiB burst, deep queue.
        ClassConfig {
            rate_bytes_per_sec: 192e6,
            burst_bytes: MIB,
            queue_depth: 1024,
        },
        // get batches: 144 MB/s sustained, 1 MiB burst, deep queue.
        ClassConfig {
            rate_bytes_per_sec: 144e6,
            burst_bytes: MIB,
            queue_depth: 1024,
        },
        // scans: 2 MB/s against tens of MB of offered load — the bounded
        // queue overflows and most scans are refused.
        ClassConfig {
            rate_bytes_per_sec: 2e6,
            burst_bytes: 512 * 1024,
            queue_depth: 8,
        },
    ])
}

/// The batched-op population: `put_commit` batches spend the write ceiling
/// as Checkpoint traffic, `get` batches and whole-store `scan`s the read
/// ceiling as Restore and Background traffic.
fn loads(cfg: &ObjectsConfig) -> [Load; 3] {
    [
        Load {
            name: "put_commit",
            class: QosClass::Checkpoint,
            count: cfg.writer_ops,
            bytes: BATCH * (VALUE_LEN + COMMIT_BYTES),
        },
        Load {
            name: "get",
            class: QosClass::Restore,
            count: cfg.reader_ops,
            bytes: BATCH * VALUE_LEN,
        },
        Load {
            name: "scan",
            class: QosClass::Background,
            count: cfg.scan_ops,
            bytes: SCAN_BATCH * VALUE_LEN,
        },
    ]
}

/// Runs the whole objects scenario: the functional cluster leg, then the
/// deterministic performance simulation.
pub fn run_objects(cfg: &ObjectsConfig) -> Result<ObjectsReport, ClusterError> {
    let port = sim::expander_port()?;
    let functional = functional_leg(cfg)?;
    let classes = sim::run(SHAPE, &sim_admission(), &port, &loads(cfg)).classes;

    Ok(ObjectsReport {
        hosts: cfg.hosts,
        objects: cfg.objects,
        value_len: VALUE_LEN,
        committed_versions: functional.committed_versions,
        crash_cells: functional.crash_cells,
        crash_survived: functional.crash_survived,
        store_conserved: functional.store_conserved,
        coherence_enforced: functional.coherence_enforced,
        reads_exact: functional.reads_exact,
        classes,
    })
}

/// Renders a computed report as the object-serving table.
pub fn render_table(report: &ObjectsReport) -> Table {
    let mut rows = vec![
        vec![
            "Store shape".to_string(),
            format!(
                "{} objects x {} B · {} hosts",
                report.objects, report.value_len, report.hosts
            ),
            format!("max committed epoch {}", report.committed_versions),
        ],
        vec![
            "Crash matrix (cross-host)".to_string(),
            format!("{} tear cells", report.crash_cells),
            (if report.crash_survived {
                "old-or-new bit-exact, never torn"
            } else {
                "FAILS"
            })
            .to_string(),
        ],
        vec![
            "Directory conservation".to_string(),
            (if report.store_conserved {
                "holds"
            } else {
                "FAILS"
            })
            .to_string(),
            "live + free == capacity in every audit".to_string(),
        ],
        vec![
            "Coherence discipline".to_string(),
            (if report.coherence_enforced && report.reads_exact {
                "holds"
            } else {
                "FAILS"
            })
            .to_string(),
            "stale readers refused (typed); sanctioned reads bit-exact".to_string(),
        ],
    ];
    for c in &report.classes {
        rows.push(vec![
            format!("{} ({} ops)", c.name, c.submitted),
            format!("{} served · {} rejected", c.served, c.rejected),
            format!("p50 {:.3} ms · p99 {:.3} ms", c.p50_ms, c.p99_ms),
        ]);
    }
    Table {
        title: "Versioned objects: mixed readers/writers over shared far memory".to_string(),
        headers: vec![
            "Metric".to_string(),
            "Value".to_string(),
            "Detail".to_string(),
        ],
        rows,
    }
}

/// Serialises a report as the `BENCH_objects.json` document the CI perf gate
/// reads: the functional verdicts plus per-op-class p50/p99.
pub fn report_json(report: &ObjectsReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"objects\": {},\n  \"hosts\": {},\n  \"value_len\": {},\n  \"committed_versions\": {},\n  \"crash_cells\": {},\n  \"crash_survived\": {},\n  \"store_conserved\": {},\n  \"coherence_enforced\": {},\n  \"reads_exact\": {},\n  \"classes\": {{\n",
        report.objects,
        report.hosts,
        report.value_len,
        report.committed_versions,
        report.crash_cells,
        report.crash_survived,
        report.store_conserved,
        report.coherence_enforced,
        report.reads_exact,
    ));
    for (i, c) in report.classes.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"submitted\": {},\n      \"served\": {},\n      \"rejected\": {},\n      \"p50_ms\": {},\n      \"p99_ms\": {}\n    }}{}\n",
            c.name,
            c.submitted,
            c.served,
            c.rejected,
            json_number(c.p50_ms),
            json_number(c.p99_ms),
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
    fn smoke_run_meets_every_invariant() {
        let report = run_objects(&ObjectsConfig::smoke()).unwrap();
        assert!(report.crash_survived, "a tear cell surfaced torn bytes");
        assert!(report.store_conserved, "the directory audit broke");
        assert!(report.coherence_enforced, "stale reader was not refused");
        assert!(report.reads_exact, "a sanctioned read was not bit-exact");
        assert_eq!(report.crash_cells, 8);
        assert!(report.hosts >= 2);
        for c in &report.classes {
            assert_eq!(c.served + c.rejected, c.submitted, "{} lost work", c.name);
        }
        assert_eq!(report.class(QosClass::Checkpoint).rejected, 0);
        assert_eq!(report.class(QosClass::Restore).rejected, 0);
        assert!(report.class(QosClass::Background).rejected > 0);
        assert!(report.holds_invariants());
    }

    #[test]
    fn latency_distribution_is_sane_and_deterministic() {
        let a = run_objects(&ObjectsConfig::smoke()).unwrap();
        let b = run_objects(&ObjectsConfig::smoke()).unwrap();
        assert_eq!(a, b, "the scenario must reproduce bit-identically");
        for c in &a.classes {
            if c.served > 0 {
                assert!(c.p50_ms > 0.0, "{}", c.name);
                assert!(c.p99_ms >= c.p50_ms, "{}", c.name);
            }
        }
    }

    #[test]
    fn table_and_json_render_the_verdict() {
        let report = run_objects(&ObjectsConfig::smoke()).unwrap();
        let md = render_table(&report).to_markdown();
        assert!(md.contains("Versioned objects"));
        assert!(md.contains("put_commit"));
        assert!(md.contains("Crash matrix"));
        assert!(!md.contains("FAILS"));
        let json = report_json(&report);
        assert!(json.contains("\"crash_survived\": true"));
        assert!(json.contains("\"put_commit\""));
        assert!(json.contains("\"scan\""));
        assert!(json.contains("\"p99_ms\""));
        assert_eq!(json.matches("\"classes\"").count(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(sim::percentile(&data, 0.5), 3.0);
        assert_eq!(sim::percentile(&data, 0.99), 5.0);
        assert_eq!(sim::percentile(&[], 0.5), 0.0);
    }
}
