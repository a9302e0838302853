//! STREAMer — the automated evaluation harness.
//!
//! The paper open-sources its benchmarking methodology as "an easy-to-use and
//! automated tool named STREAMer" (§1.4). This crate is that tool for the
//! reproduction: it encodes the five test groups of §3.2, sweeps thread
//! counts, drives the simulated STREAM/STREAM-PMem runs through the
//! `cxl-pmem` runtime, and emits every figure and table of the evaluation:
//!
//! * [`groups`] — classes 1.(a)–2.(b): which cores run, which memory is
//!   targeted, in which mode, under which affinity.
//! * [`figures`] — Figures 5–8 (Scale, Add, Copy, Triad): one series per
//!   trend, bandwidth vs thread count, emitted as CSV/Markdown.
//! * [`tables`] — Table 1 (PMem modes), Table 2 (CXL vs NVRAM), the
//!   headline peak-bandwidth comparison against published DCPMM numbers, and
//!   the §6 card-upgrade ablation.
//! * [`analysis`] — the §4 derived claims (remote −30 %, CXL −50 %, 2–3 GB/s
//!   fabric cost, 10–15 % PMDK overhead) recomputed from the model.
//! * [`scenarios`] — the disaggregated-restart scenario group: cross-host
//!   checkpoint/restart over switch-pooled far memory, with the
//!   software-coherence discipline enforced (§1.3 pooling + §2.2 sharing).
//! * [`tiering`] — the adaptive-tiering scenario group: the 16→76 GiB
//!   expansion sweep under static-spill vs adaptive chunk-placement policies,
//!   with the "adaptive matches or beats static at every size" verdict CI
//!   enforces.
//! * [`fleet`] — the fleet-serving scenario: hundreds of concurrent
//!   checkpoint/restore streams through QoS admission control over the
//!   contended pool, reporting p50/p99/p999 per class into
//!   `BENCH_fleet.json`.
//! * [`objects`] — the versioned-object-store scenario: a KV-style mixed
//!   reader/writer workload over shared far memory — ≥ 100k epoch-versioned
//!   objects, cross-host tear matrix, publish/acquire coherence discipline,
//!   and per-op-class p50/p99 through QoS admission into
//!   `BENCH_objects.json`.
//! * [`sim`] — the one scenario tick-simulation kernel under `fleet` and
//!   `objects`: seeded class-tagged transfers through QoS admission onto
//!   least-loaded pooled cards, processor-shared under port contention.
//! * [`topo`] — the topology-ingestion scenario group: every reference
//!   `.topo` description ingested end-to-end (text → device graph → runtime →
//!   traffic), plus the silicon-validated calibration table CI gates through
//!   `BENCH_calibration.json`.
//! * [`dataflow`] — ASCII renderings of the setup/data-flow diagrams
//!   (Figures 1–4 and 9).
//! * [`artifacts`] — the one list of every table, scenario gate and BENCH
//!   document the `streamer` CLI emits; `table`, `scenario`, `analysis` and
//!   `all` read it.
//!
//! # Example
//!
//! Drive the fleet-serving scenario — 280 streams through QoS admission over
//! the contended pool — and check the gated verdict:
//!
//! ```
//! use streamer::fleet;
//!
//! let report = fleet::run_fleet().unwrap();
//! assert!(report.total_streams() >= 200);
//! assert!(report.all_hold()); // tail budget + typed rejection + conservation
//! let json = fleet::report_json(&report); // the BENCH_fleet.json document
//! assert!(json.contains("\"checkpoint_p99_over_uncontended\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod artifacts;
pub mod dataflow;
pub mod figures;
pub mod fleet;
pub mod groups;
pub mod objects;
pub mod scenarios;
pub mod sim;
pub mod tables;
pub mod tiering;
pub mod topo;

pub use analysis::Analysis;
pub use figures::{FigureData, TrendSeries};
pub use fleet::FleetReport;
pub use groups::{TestGroup, Trend};
pub use objects::{ObjectsConfig, ObjectsReport};
pub use scenarios::{RestartReport, RestartScenario};
pub use sim::ClassStats;
pub use tables::{headline_table, table1, table2};
pub use tiering::{TieringPoint, TieringReport};
pub use topo::{TopologyPoint, TopologyReport};
