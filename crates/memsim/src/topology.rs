//! Topology ingestion: a CEDT/SRAT-shaped machine description that compiles
//! into the `memsim` device graph.
//!
//! Firmware describes real CXL machines with ACPI tables: SRAT processor and
//! memory affinity entries, a SLIT distance matrix, and CEDT CXL Fixed Memory
//! Window Structures (CFMWS) that interleave host-physical ranges across
//! expander targets. This module mirrors that shape in a plain-text format so
//! arbitrary machines can be *ingested* instead of hand-wired in Rust:
//!
//! * `[machine]` — name, SMT width, per-core memory-level parallelism;
//! * `[processor.N]` — one SRAT-style processor-affinity entry per socket;
//! * `[memory.N]` — one SRAT-style memory-affinity entry per NUMA node;
//! * `[slit]` — an optional SLIT distance matrix (`node.N = [..]` rows);
//! * `[device.NAME]` — the memory device backing a node (or, unattached, a
//!   CXL expander available as a window target);
//! * `[link.NAME]` — an interconnect link (links shared by name share
//!   bandwidth in the engine, exactly like the hand-built machines);
//! * `[path.SOCKET.NODE]` — the ordered list of links a socket crosses to
//!   reach a node (a socket's local node defaults to a direct path);
//! * `[window.NAME]` — a CEDT CFMWS: a host-physical window interleaved
//!   across ≥1 unattached CXL devices, exposed as one CPU-less node.
//!
//! [`TopologyDescription::parse`] reads the format (typed
//! [`TopologyError`]s, never panics), and [`TopologyDescription::compile`]
//! validates the graph and returns the [`Machine`] it describes, in which
//! each window is its node's aggregate device. The named reference machines
//! live in [`mod@reference`]: the runtime's presets compile them, and the
//! calibration gate checks them.
//!
//! # Example
//!
//! Parse a two-socket machine with **two CXL expanders interleaved behind one
//! CFMWS-style window**, compile it, and price traffic against the window:
//!
//! ```
//! use memsim::{Engine, ThreadTraffic, TopologyDescription, TrafficPhase};
//!
//! let text = r#"
//! [machine]
//! name = "two-socket-two-expander"
//! smt = 1
//! core_mlp = 12
//!
//! [processor.0]
//! model = "Sapphire Rapids"
//! base_ghz = 2.1
//! cores = 8
//! node = 0
//!
//! [processor.1]
//! model = "Sapphire Rapids"
//! base_ghz = 2.1
//! cores = 8
//! node = 1
//!
//! [memory.0]
//! bytes = "64GiB"
//! label = "DDR5 socket0"
//!
//! [memory.1]
//! bytes = "64GiB"
//! label = "DDR5 socket1"
//!
//! [device.ddr5-0]
//! node = 0
//! kind = "ddr5"
//! read_gbs = 30
//! latency_ns = 95
//! capacity = "64GiB"
//!
//! [device.ddr5-1]
//! node = 1
//! kind = "ddr5"
//! read_gbs = 30
//! latency_ns = 95
//! capacity = "64GiB"
//!
//! [device.cxl-a]
//! kind = "cxl"
//! read_gbs = 11.5
//! latency_ns = 305
//! capacity = "16GiB"
//!
//! [device.cxl-b]
//! kind = "cxl"
//! read_gbs = 11.5
//! latency_ns = 305
//! capacity = "16GiB"
//!
//! [link.upi]
//! kind = "upi"
//! gbs = 18
//! latency_ns = 70
//!
//! [link.pcie]
//! kind = "pcie5"
//! gbs = 64
//! latency_ns = 95
//!
//! [path.0.1]
//! links = ["upi"]
//!
//! [path.1.0]
//! links = ["upi"]
//!
//! [path.0.2]
//! links = ["pcie"]
//!
//! [path.1.2]
//! links = ["pcie"]
//!
//! [window.ilv0]
//! node = 2
//! label = "2x CXL expander interleave"
//! granularity = "4KiB"
//! targets = ["cxl-a", "cxl-b"]
//! "#;
//!
//! let description = TopologyDescription::parse(text).unwrap();
//! assert_eq!(description.windows.len(), 1);
//! assert_eq!(description.windows[0].targets.len(), 2);
//!
//! // The window aggregates both expanders behind node 2: the engine sees
//! // ~23 GB/s where a single card would cap at 11.5.
//! let engine = Engine::new(description.compile().unwrap());
//! let phase = TrafficPhase::from_threads(
//!     "interleaved stream",
//!     (0..16).map(|t| ThreadTraffic::sequential(t, 2, 1 << 30, 0)),
//! );
//! let report = engine.simulate(&phase).unwrap();
//! assert!(report.bandwidth_gbs > 20.0);
//! ```

use crate::calibration as cal;
use crate::device::{DeviceKind, DeviceSpec};
use crate::error::SimError;
use crate::link::{LinkKind, LinkSpec, Path};
use crate::machine::Machine;
use numa::{DistanceMatrix, NumaError, Topology};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Smallest CFMWS interleave granularity the CXL spec allows (256 B).
pub const MIN_INTERLEAVE_GRANULARITY: u64 = 256;

/// Largest CFMWS interleave granularity the CXL spec allows (16 KiB).
pub const MAX_INTERLEAVE_GRANULARITY: u64 = 16 * 1024;

/// Most hardware threads (cores × SMT) a machine may declare. 1024 matches
/// glibc's `CPU_SETSIZE` and bounds the memory of the engine's per-CPU tables.
const MAX_HW_THREADS: usize = 1024;

/// Typed errors from parsing or compiling a topology description.
///
/// Malformed input is always reported through one of these variants — the
/// parser and compiler never panic.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The text is not well-formed at `line`.
    Parse {
        /// 1-based line number of the offending input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The description declares no `[processor.N]` sections.
    NoProcessors,
    /// The description declares neither `[memory.N]` nor `[window.*]` nodes.
    NoMemory,
    /// A machine-level parameter is out of range (e.g. non-positive MLP).
    InvalidMachine(String),
    /// Two sections declare the same NUMA node id.
    DuplicateNode(usize),
    /// Node ids are not dense: this id is missing from `0..len`.
    MissingNodeId(usize),
    /// Two `[device.*]` sections share a name.
    DuplicateDevice(String),
    /// Two `[link.*]` sections share a name.
    DuplicateLink(String),
    /// Two `[window.*]` sections share a name.
    DuplicateWindow(String),
    /// Two `[path.S.N]` sections describe the same socket→node pair.
    DuplicatePath {
        /// Source socket.
        socket: usize,
        /// Destination node.
        node: usize,
    },
    /// A section references a NUMA node that is never declared.
    UnknownNode {
        /// The referencing section (`processor`, `device`, `path`).
        referrer: String,
        /// The undeclared node id.
        node: usize,
    },
    /// A `[path.S.N]` section references a socket that is never declared.
    UnknownSocket {
        /// The referencing path.
        referrer: String,
        /// The undeclared socket id.
        socket: usize,
    },
    /// Two devices (or a device and a window) claim the same node.
    NodeAlreadyBacked {
        /// The doubly-claimed node id.
        node: usize,
    },
    /// A `[memory.N]` node has no `[device.*]` attached to it.
    MissingDevice {
        /// The unbacked node id.
        node: usize,
    },
    /// A socket has no path (and no default direct path) to a node.
    MissingPath {
        /// Source socket.
        socket: usize,
        /// Unreachable node.
        node: usize,
    },
    /// A path references a link name that is never declared.
    DanglingLink {
        /// Source socket of the path.
        socket: usize,
        /// Destination node of the path.
        node: usize,
        /// The undeclared link name.
        link: String,
    },
    /// A window targets a device name that is never declared.
    DanglingWindowTarget {
        /// The window.
        window: String,
        /// The undeclared target device name.
        target: String,
    },
    /// A window targets a device that is already attached to a node (or
    /// already consumed by another window).
    TargetAlreadyAttached {
        /// The window.
        window: String,
        /// The doubly-used device name.
        target: String,
    },
    /// A window targets a device that is not a CXL expander.
    WindowTargetNotCxl {
        /// The window.
        window: String,
        /// The non-CXL device name.
        target: String,
    },
    /// A window declares no targets.
    EmptyWindow(String),
    /// A window's geometry is invalid (ways, granularity, capacity).
    InvalidWindow {
        /// The window.
        window: String,
        /// What is wrong with it.
        message: String,
    },
    /// A device or link port declares a non-positive bandwidth ceiling.
    ZeroBandwidth {
        /// `"device"` or `"link"`.
        what: &'static str,
        /// The offending port's name.
        name: String,
    },
    /// The NUMA topology layer rejected the compiled description.
    Numa(NumaError),
    /// The machine layer rejected the compiled description.
    Sim(SimError),
    /// An invariant of the compiler itself was violated — cross-validation
    /// above should make this unreachable, but the compile path claims never
    /// to panic, so the claim is surfaced as a typed error instead of an
    /// `expect`.
    Internal(&'static str),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TopologyError::NoProcessors => write!(f, "no [processor.N] sections declared"),
            TopologyError::NoMemory => write!(f, "no [memory.N] or [window.*] sections declared"),
            TopologyError::InvalidMachine(msg) => write!(f, "invalid [machine] section: {msg}"),
            TopologyError::DuplicateNode(node) => {
                write!(f, "node {node} is declared more than once")
            }
            TopologyError::MissingNodeId(node) => {
                write!(f, "node ids must be dense: node {node} is missing")
            }
            TopologyError::DuplicateDevice(name) => {
                write!(f, "device {name:?} is declared more than once")
            }
            TopologyError::DuplicateLink(name) => {
                write!(f, "link {name:?} is declared more than once")
            }
            TopologyError::DuplicateWindow(name) => {
                write!(f, "window {name:?} is declared more than once")
            }
            TopologyError::DuplicatePath { socket, node } => {
                write!(f, "path {socket}->{node} is declared more than once")
            }
            TopologyError::UnknownNode { referrer, node } => {
                write!(f, "{referrer} references undeclared node {node}")
            }
            TopologyError::UnknownSocket { referrer, socket } => {
                write!(f, "{referrer} references undeclared socket {socket}")
            }
            TopologyError::NodeAlreadyBacked { node } => {
                write!(f, "node {node} is backed by more than one device")
            }
            TopologyError::MissingDevice { node } => {
                write!(f, "memory node {node} has no device attached")
            }
            TopologyError::MissingPath { socket, node } => {
                write!(f, "socket {socket} has no path to node {node}")
            }
            TopologyError::DanglingLink { socket, node, link } => {
                write!(
                    f,
                    "path {socket}->{node} references undeclared link {link:?}"
                )
            }
            TopologyError::DanglingWindowTarget { window, target } => {
                write!(f, "window {window:?} targets undeclared device {target:?}")
            }
            TopologyError::TargetAlreadyAttached { window, target } => {
                write!(f, "window {window:?} target {target:?} is already in use")
            }
            TopologyError::WindowTargetNotCxl { window, target } => {
                write!(
                    f,
                    "window {window:?} target {target:?} is not a CXL expander"
                )
            }
            TopologyError::EmptyWindow(name) => write!(f, "window {name:?} has no targets"),
            TopologyError::InvalidWindow { window, message } => {
                write!(f, "window {window:?} is invalid: {message}")
            }
            TopologyError::ZeroBandwidth { what, name } => {
                write!(f, "{what} {name:?} declares a zero-bandwidth port")
            }
            TopologyError::Numa(e) => write!(f, "topology rejected: {e}"),
            TopologyError::Sim(e) => write!(f, "machine rejected: {e}"),
            TopologyError::Internal(what) => {
                write!(f, "internal compiler invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<NumaError> for TopologyError {
    fn from(e: NumaError) -> Self {
        TopologyError::Numa(e)
    }
}

impl From<SimError> for TopologyError {
    fn from(e: SimError) -> Self {
        TopologyError::Sim(e)
    }
}

/// Result alias for topology ingestion.
pub type TopologyResult<T> = std::result::Result<T, TopologyError>;

/// An SRAT-style processor-affinity entry: one socket and its local node.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorDecl {
    /// CPU model string (display only).
    pub model: String,
    /// Base clock in GHz (display only).
    pub base_ghz: f64,
    /// Physical cores on the socket.
    pub cores: usize,
    /// The socket's local NUMA node.
    pub node: usize,
}

/// An SRAT-style memory-affinity entry: one NUMA node's capacity and label.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDecl {
    /// NUMA node id.
    pub node: usize,
    /// Installed bytes.
    pub bytes: u64,
    /// Human-readable label.
    pub label: String,
}

/// A memory device: either attached to a node or (for CXL expanders) left
/// unattached as a window target.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDecl {
    /// Node the device backs; `None` leaves it available to a window.
    pub node: Option<usize>,
    /// The device as the engine models it. Its name is the section's and
    /// doubles as the engine's resource name.
    pub spec: DeviceSpec,
}

/// The ordered links a socket crosses to reach a node.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDecl {
    /// Source socket.
    pub socket: usize,
    /// Destination node.
    pub node: usize,
    /// Link names in hop order; empty means a direct (on-package) path.
    pub links: Vec<String>,
}

/// A CEDT CFMWS-style window: a host-physical range interleaved across CXL
/// expander targets and exposed as one CPU-less NUMA node.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDecl {
    /// Unique window name.
    pub name: String,
    /// The CPU-less node the window surfaces as.
    pub node: usize,
    /// Human-readable node label.
    pub label: String,
    /// Host-physical base address of the window.
    pub hpa_base: u64,
    /// Interleave granularity in bytes (power of two, 256 B – 16 KiB).
    pub granularity: u64,
    /// Target device names, in interleave-position order.
    pub targets: Vec<String>,
}

/// A parsed (or programmatically built) machine description.
///
/// See the [module docs](self) for the text format.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyDescription {
    /// Machine name.
    pub name: String,
    /// Hardware threads per core.
    pub smt: usize,
    /// Per-core memory-level parallelism (outstanding 64 B lines).
    pub core_mlp: f64,
    /// Socket declarations in socket-id order.
    pub processors: Vec<ProcessorDecl>,
    /// Memory-node declarations.
    pub memories: Vec<MemoryDecl>,
    /// Optional SLIT distance matrix (row per node).
    pub distances: Option<Vec<Vec<u32>>>,
    /// Device declarations.
    pub devices: Vec<DeviceDecl>,
    /// Link declarations. Paths name links, and paths that name the same
    /// link share its bandwidth in the engine.
    pub links: Vec<LinkSpec>,
    /// Path declarations.
    pub paths: Vec<PathDecl>,
    /// Interleave-window declarations.
    pub windows: Vec<WindowDecl>,
}

impl TopologyDescription {
    /// An empty description with defaults (SMT 1, Sapphire Rapids MLP).
    pub fn new(name: impl Into<String>) -> Self {
        TopologyDescription {
            name: name.into(),
            smt: 1,
            core_mlp: cal::SPR_CORE_MLP,
            processors: Vec::new(),
            memories: Vec::new(),
            distances: None,
            devices: Vec::new(),
            links: Vec::new(),
            paths: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Parses the plain-text description format.
    ///
    /// Returns a typed [`TopologyError::Parse`] (with the offending line) on
    /// malformed input; never panics.
    pub fn parse(text: &str) -> TopologyResult<Self> {
        let sections = tokenize(text)?;
        let mut description: Option<TopologyDescription> = None;
        let mut processors: Vec<(usize, usize, ProcessorDecl)> = Vec::new();
        let mut memories: Vec<MemoryDecl> = Vec::new();
        let mut slit_rows: Vec<(usize, usize, Vec<u32>)> = Vec::new();
        let mut devices = Vec::new();
        let mut links = Vec::new();
        let mut paths = Vec::new();
        let mut windows = Vec::new();

        for section in &sections {
            let header_line = section.line;
            let (head, rest) = match section.header.split_once('.') {
                Some((head, rest)) => (head, Some(rest)),
                None => (section.header.as_str(), None),
            };
            match head {
                "machine" => {
                    if description.is_some() {
                        return Err(parse_err(header_line, "duplicate [machine] section"));
                    }
                    let mut keys = Keys::read(section, "machine", &["name", "smt", "core_mlp"]);
                    let name = keys.get("name", parse_text);
                    let smt = keys.get("smt", parse_usize);
                    let core_mlp = keys.get("core_mlp", parse_f64);
                    keys.check()?;
                    let defaults = TopologyDescription::new(name?.unwrap_or_default());
                    if defaults.name.is_empty() {
                        return Err(parse_err(header_line, "[machine] requires a name"));
                    }
                    description = Some(TopologyDescription {
                        smt: smt?.unwrap_or(defaults.smt),
                        core_mlp: core_mlp?.unwrap_or(defaults.core_mlp),
                        ..defaults
                    });
                }
                "processor" => {
                    let index = parse_section_index(rest, header_line, "processor")?;
                    let mut keys = Keys::read(
                        section,
                        "processor",
                        &["model", "base_ghz", "cores", "node"],
                    );
                    let model = keys.require("model", parse_text);
                    let base_ghz = keys.require("base_ghz", parse_f64);
                    let cores = keys.require("cores", parse_usize);
                    let node = keys.require("node", parse_usize);
                    keys.check()?;
                    let processor = ProcessorDecl {
                        model: model?,
                        base_ghz: base_ghz?,
                        cores: cores?,
                        node: node?,
                    };
                    processors.push((index, header_line, processor));
                }
                "memory" => {
                    let node = parse_section_index(rest, header_line, "memory")?;
                    let mut keys = Keys::read(section, "memory", &["bytes", "label"]);
                    let bytes = keys.require("bytes", parse_bytes);
                    let label = keys.get("label", parse_text);
                    keys.check()?;
                    memories.push(MemoryDecl {
                        node,
                        bytes: bytes?,
                        label: label?.unwrap_or_else(|| format!("node{node}")),
                    });
                }
                "slit" => {
                    for (line, key, value) in &section.entries {
                        let row = key.strip_prefix("node.").ok_or_else(|| {
                            parse_err(*line, format!("unknown [slit] key {key:?} (want node.N)"))
                        })?;
                        let row: usize = row.parse().map_err(|_| {
                            parse_err(*line, format!("bad [slit] row index {row:?}"))
                        })?;
                        let cells = parse_list(value, *line, key)?
                            .iter()
                            .map(|c| {
                                c.parse::<u32>().map_err(|_| {
                                    parse_err(*line, format!("bad SLIT distance {c:?}"))
                                })
                            })
                            .collect::<TopologyResult<Vec<u32>>>()?;
                        slit_rows.push((row, *line, cells));
                    }
                }
                "device" => {
                    let name = parse_section_name(rest, header_line, "device")?;
                    let mut keys = Keys::read(
                        section,
                        "device",
                        &[
                            "node",
                            "kind",
                            "read_gbs",
                            "write_gbs",
                            "latency_ns",
                            "capacity",
                            "channels",
                        ],
                    );
                    let node = keys.get("node", parse_usize);
                    let read_bw_gbs = keys.require("read_gbs", parse_f64);
                    let kind = keys.require("kind", parse_device_kind);
                    let write_bw_gbs = keys.get("write_gbs", parse_f64);
                    let idle_latency_ns = keys.require("latency_ns", parse_f64);
                    let capacity_bytes = keys.require("capacity", parse_bytes);
                    let channels = keys.get("channels", parse_u32);
                    keys.check()?;
                    let read_bw_gbs = read_bw_gbs?;
                    devices.push(DeviceDecl {
                        node: node?,
                        spec: DeviceSpec {
                            name,
                            kind: kind?,
                            read_bw_gbs,
                            write_bw_gbs: write_bw_gbs?.unwrap_or(read_bw_gbs),
                            idle_latency_ns: idle_latency_ns?,
                            capacity_bytes: capacity_bytes?,
                            channels: channels?.unwrap_or(1),
                        },
                    });
                }
                "link" => {
                    let name = parse_section_name(rest, header_line, "link")?;
                    let mut keys = Keys::read(section, "link", &["kind", "gbs", "latency_ns"]);
                    let kind = keys.require("kind", parse_link_kind);
                    let bandwidth_gbs = keys.require("gbs", parse_f64);
                    let latency_ns = keys.require("latency_ns", parse_f64);
                    keys.check()?;
                    links.push(LinkSpec {
                        name,
                        kind: kind?,
                        bandwidth_gbs: bandwidth_gbs?,
                        latency_ns: latency_ns?,
                    });
                }
                "path" => {
                    let rest = rest.unwrap_or("");
                    let (socket, node) = rest
                        .split_once('.')
                        .and_then(|(s, n)| Some((s.parse().ok()?, n.parse().ok()?)))
                        .ok_or_else(|| {
                            parse_err(header_line, "path sections are [path.SOCKET.NODE]")
                        })?;
                    let mut keys = Keys::read(section, "path", &["links"]);
                    let links = keys.get("links", parse_list);
                    keys.check()?;
                    paths.push(PathDecl {
                        socket,
                        node,
                        links: links?.unwrap_or_default(),
                    });
                }
                "window" => {
                    let name = parse_section_name(rest, header_line, "window")?;
                    let mut keys = Keys::read(
                        section,
                        "window",
                        &["node", "label", "hpa_base", "granularity", "targets"],
                    );
                    let node = keys.require("node", parse_usize);
                    let label = keys.get("label", parse_text);
                    let hpa_base = keys.get("hpa_base", parse_u64);
                    let granularity = keys.get("granularity", parse_bytes);
                    let targets = keys.get("targets", parse_list);
                    keys.check()?;
                    windows.push(WindowDecl {
                        node: node?,
                        label: label?.unwrap_or_else(|| name.clone()),
                        name,
                        hpa_base: hpa_base?.unwrap_or(0x20_0000_0000),
                        granularity: granularity?.unwrap_or(4096),
                        targets: targets?.unwrap_or_default(),
                    });
                }
                other => return Err(parse_err(header_line, format!("unknown section [{other}]"))),
            }
        }

        let mut description =
            description.ok_or_else(|| parse_err(1, "missing [machine] section"))?;

        processors.sort_by_key(|(index, _, _)| *index);
        for (expected, (index, line, _)) in processors.iter().enumerate() {
            if *index != expected {
                return Err(parse_err(
                    *line,
                    format!("processor indices must be dense: expected processor.{expected}, found processor.{index}"),
                ));
            }
        }
        description.processors = processors.into_iter().map(|(_, _, p)| p).collect();

        memories.sort_by_key(|m| m.node);
        description.memories = memories;

        if !slit_rows.is_empty() {
            slit_rows.sort_by_key(|(row, _, _)| *row);
            for (expected, (row, line, _)) in slit_rows.iter().enumerate() {
                if *row != expected {
                    return Err(parse_err(
                        *line,
                        format!(
                            "SLIT rows must be dense: expected node.{expected}, found node.{row}"
                        ),
                    ));
                }
            }
            description.distances =
                Some(slit_rows.into_iter().map(|(_, _, cells)| cells).collect());
        }

        description.devices = devices;
        description.links = links;
        description.paths = paths;
        description.windows = windows;
        Ok(description)
    }

    /// Validates the description and compiles it into the machine it
    /// describes.
    ///
    /// All graph defects — duplicate node ids, dangling link or window-target
    /// references, zero-bandwidth ports, unreachable nodes, bad interleave
    /// geometry — surface as typed [`TopologyError`]s. A window's node is
    /// backed by the aggregate of its ways: their summed bandwidth, capacity
    /// and channels at the slowest way's idle latency.
    pub fn compile(&self) -> TopologyResult<Machine> {
        if self.processors.is_empty() {
            return Err(TopologyError::NoProcessors);
        }
        if self.memories.is_empty() && self.windows.is_empty() {
            return Err(TopologyError::NoMemory);
        }
        if !self.core_mlp.is_finite() || self.core_mlp <= 0.0 {
            return Err(TopologyError::InvalidMachine(format!(
                "core_mlp must be positive, got {}",
                self.core_mlp
            )));
        }
        if self.smt == 0 {
            return Err(TopologyError::InvalidMachine("smt must be >= 1".into()));
        }
        // Every hardware thread gets a logical CPU id, and the engine keeps a
        // per-CPU × per-node table: a huge machine would exhaust memory
        // building them.
        let threads = self.processors.iter().try_fold(0usize, |sum, p| {
            p.cores.checked_mul(self.smt)?.checked_add(sum)
        });
        if threads.is_none_or(|n| n > MAX_HW_THREADS) {
            return Err(TopologyError::InvalidMachine(format!(
                "cores x smt exceeds {MAX_HW_THREADS} hardware threads"
            )));
        }

        // Node table: SRAT memory entries and CFMWS windows each claim a node.
        enum Backing<'a> {
            Memory(&'a MemoryDecl),
            Window(&'a WindowDecl),
        }
        let mut node_backing: HashMap<usize, Backing> = HashMap::new();
        for m in &self.memories {
            if node_backing.insert(m.node, Backing::Memory(m)).is_some() {
                return Err(TopologyError::DuplicateNode(m.node));
            }
        }
        let mut window_names = HashSet::new();
        for w in &self.windows {
            if !window_names.insert(w.name.as_str()) {
                return Err(TopologyError::DuplicateWindow(w.name.clone()));
            }
            if node_backing.insert(w.node, Backing::Window(w)).is_some() {
                return Err(TopologyError::DuplicateNode(w.node));
            }
        }
        let node_count = node_backing.len();
        for node in 0..node_count {
            if !node_backing.contains_key(&node) {
                return Err(TopologyError::MissingNodeId(node));
            }
        }

        // Device and link tables; zero-bandwidth ports are typed errors.
        let mut device_by_name: HashMap<&str, &DeviceDecl> = HashMap::new();
        for d in &self.devices {
            let positive = |gbs: f64| gbs.is_finite() && gbs > 0.0;
            if !positive(d.spec.read_bw_gbs) || !positive(d.spec.write_bw_gbs) {
                return Err(TopologyError::ZeroBandwidth {
                    what: "device",
                    name: d.spec.name.clone(),
                });
            }
            if device_by_name.insert(d.spec.name.as_str(), d).is_some() {
                return Err(TopologyError::DuplicateDevice(d.spec.name.clone()));
            }
        }
        let mut link_by_name: HashMap<&str, &LinkSpec> = HashMap::new();
        for l in &self.links {
            if !(l.bandwidth_gbs.is_finite() && l.bandwidth_gbs > 0.0) {
                return Err(TopologyError::ZeroBandwidth {
                    what: "link",
                    name: l.name.clone(),
                });
            }
            if link_by_name.insert(l.name.as_str(), l).is_some() {
                return Err(TopologyError::DuplicateLink(l.name.clone()));
            }
        }

        // The device of every node: memory nodes' attached devices here,
        // window nodes' aggregates below.
        let mut node_device: HashMap<usize, DeviceSpec> = HashMap::new();
        for d in &self.devices {
            if let Some(node) = d.node {
                match node_backing.get(&node) {
                    None => {
                        return Err(TopologyError::UnknownNode {
                            referrer: format!("device {:?}", d.spec.name),
                            node,
                        })
                    }
                    Some(Backing::Window(_)) => {
                        return Err(TopologyError::NodeAlreadyBacked { node })
                    }
                    Some(Backing::Memory(_)) => {}
                }
                if node_device.insert(node, d.spec.clone()).is_some() {
                    return Err(TopologyError::NodeAlreadyBacked { node });
                }
            }
        }
        for m in &self.memories {
            if !node_device.contains_key(&m.node) {
                return Err(TopologyError::MissingDevice { node: m.node });
            }
        }

        // Compile windows: CXL-only targets, each consumed exactly once,
        // CXL-spec interleave geometry.
        let mut consumed: HashSet<&str> = HashSet::new();
        for w in &self.windows {
            if w.targets.is_empty() {
                return Err(TopologyError::EmptyWindow(w.name.clone()));
            }
            let invalid = |message: String| TopologyError::InvalidWindow {
                window: w.name.clone(),
                message,
            };
            let ways = w.targets.len();
            if !matches!(ways, 1 | 2 | 4 | 8 | 16) {
                return Err(invalid(format!(
                    "interleave ways must be 1, 2, 4, 8 or 16, got {ways}"
                )));
            }
            if !w.hpa_base.is_multiple_of(64) {
                return Err(invalid(format!(
                    "hpa_base must be 64-byte aligned, got 0x{:x}",
                    w.hpa_base
                )));
            }
            if !w.granularity.is_power_of_two()
                || !(MIN_INTERLEAVE_GRANULARITY..=MAX_INTERLEAVE_GRANULARITY)
                    .contains(&w.granularity)
            {
                return Err(invalid(format!(
                    "granularity must be a power of two in {MIN_INTERLEAVE_GRANULARITY}..={MAX_INTERLEAVE_GRANULARITY}, got {}",
                    w.granularity
                )));
            }
            let mut aggregate = DeviceSpec {
                name: format!("{} ({ways}-way interleave)", w.name),
                kind: DeviceKind::CxlExpanderDram,
                read_bw_gbs: 0.0,
                write_bw_gbs: 0.0,
                idle_latency_ns: 0.0,
                capacity_bytes: 0,
                channels: 0,
            };
            let mut way_capacity = None;
            for target in &w.targets {
                let device = device_by_name.get(target.as_str()).ok_or_else(|| {
                    TopologyError::DanglingWindowTarget {
                        window: w.name.clone(),
                        target: target.clone(),
                    }
                })?;
                if device.node.is_some() || !consumed.insert(target.as_str()) {
                    return Err(TopologyError::TargetAlreadyAttached {
                        window: w.name.clone(),
                        target: target.clone(),
                    });
                }
                let way = &device.spec;
                if way.kind != DeviceKind::CxlExpanderDram {
                    return Err(TopologyError::WindowTargetNotCxl {
                        window: w.name.clone(),
                        target: target.clone(),
                    });
                }
                if !way.capacity_bytes.is_multiple_of(w.granularity) {
                    return Err(invalid(format!(
                        "target {target:?} capacity is not a multiple of the granularity"
                    )));
                }
                match way_capacity {
                    None => way_capacity = Some(way.capacity_bytes),
                    Some(capacity) if capacity != way.capacity_bytes => {
                        return Err(invalid(
                            "interleave targets must have uniform capacity".into(),
                        ))
                    }
                    Some(_) => {}
                }
                aggregate.read_bw_gbs += way.read_bw_gbs;
                aggregate.write_bw_gbs += way.write_bw_gbs;
                aggregate.idle_latency_ns = aggregate.idle_latency_ns.max(way.idle_latency_ns);
                aggregate.channels = aggregate.channels.saturating_add(way.channels);
            }
            let way_capacity_bytes = way_capacity.unwrap_or(0);
            aggregate.capacity_bytes = way_capacity_bytes
                .checked_mul(ways as u64)
                .filter(|total| w.hpa_base.checked_add(*total).is_some())
                .ok_or_else(|| {
                    invalid(format!(
                        "{ways} ways of {way_capacity_bytes} bytes from 0x{:x} end past the top of the HPA space",
                        w.hpa_base
                    ))
                })?;
            aggregate.channels = aggregate.channels.max(1);
            node_device.insert(w.node, aggregate);
        }

        // SRAT processor entries must reference declared nodes.
        for (socket, p) in self.processors.iter().enumerate() {
            if !node_backing.contains_key(&p.node) {
                return Err(TopologyError::UnknownNode {
                    referrer: format!("processor.{socket}"),
                    node: p.node,
                });
            }
        }

        // Build the NUMA topology (nodes in id order, then sockets, then SLIT).
        // Node ids were validated dense above, and every node got a device
        // above, so both lookups are infallible by construction; the compile
        // path claims never to panic, so the claims are typed errors, not
        // `expect`s.
        let mut builder = Topology::builder(&self.name).smt(self.smt);
        for node in 0..node_count {
            let backing = node_backing
                .get(&node)
                .ok_or(TopologyError::Internal("node ids validated dense above"))?;
            builder = match backing {
                Backing::Memory(m) => builder.node(m.bytes, &m.label),
                Backing::Window(w) => {
                    let aggregate = node_device
                        .get(&node)
                        .ok_or(TopologyError::Internal("windows compiled above"))?;
                    builder.node(aggregate.capacity_bytes, &w.label)
                }
            };
        }
        for p in &self.processors {
            builder = builder.socket(&p.model, p.base_ghz, p.cores, p.node);
        }
        if let Some(rows) = &self.distances {
            builder = builder.distances(DistanceMatrix::from_rows(rows.clone())?);
        }
        let topology = builder.build()?;

        // Validate paths before handing anything to the machine builder.
        let socket_count = self.processors.len();
        let mut path_decls: HashMap<(usize, usize), &PathDecl> = HashMap::new();
        for p in &self.paths {
            if p.socket >= socket_count {
                return Err(TopologyError::UnknownSocket {
                    referrer: format!("path.{}.{}", p.socket, p.node),
                    socket: p.socket,
                });
            }
            if !node_backing.contains_key(&p.node) {
                return Err(TopologyError::UnknownNode {
                    referrer: format!("path.{}.{}", p.socket, p.node),
                    node: p.node,
                });
            }
            if path_decls.insert((p.socket, p.node), p).is_some() {
                return Err(TopologyError::DuplicatePath {
                    socket: p.socket,
                    node: p.node,
                });
            }
            for link in &p.links {
                if !link_by_name.contains_key(link.as_str()) {
                    return Err(TopologyError::DanglingLink {
                        socket: p.socket,
                        node: p.node,
                        link: link.clone(),
                    });
                }
            }
        }

        // Assemble the machine: one device per node, one path per
        // (socket, node) pair.
        let mut machine = Machine::builder(topology).core_mlp(self.core_mlp);
        for (node, device) in node_device {
            machine = machine.device(node, device);
        }
        for (socket, p) in self.processors.iter().enumerate() {
            let local_node = p.node;
            for node in 0..node_count {
                let path = match path_decls.get(&(socket, node)) {
                    Some(decl) => {
                        let specs = decl
                            .links
                            .iter()
                            .map(|name| {
                                link_by_name
                                    .get(name.as_str())
                                    .map(|&link| link.clone())
                                    .ok_or(TopologyError::Internal("path links validated above"))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        Path::through(specs)
                    }
                    None if node == local_node => Path::direct(),
                    None => return Err(TopologyError::MissingPath { socket, node }),
                };
                machine = machine.path(socket, node, path);
            }
        }
        Ok(machine.build()?)
    }
}

// ---------------------------------------------------------------------------
// Text-format helpers.

struct RawSection {
    header: String,
    line: usize,
    entries: Vec<(usize, String, String)>,
}

/// Splits the text into `[section]` blocks of `key = value` entries,
/// stripping `#` comments (a `#` inside double quotes is literal).
fn tokenize(text: &str) -> TopologyResult<Vec<RawSection>> {
    let mut sections: Vec<RawSection> = Vec::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = strip_comment(raw_line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| parse_err(line_no, "unterminated section header"))?
                .trim();
            if header.is_empty() {
                return Err(parse_err(line_no, "empty section header"));
            }
            sections.push(RawSection {
                header: header.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
        } else {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| parse_err(line_no, format!("expected key = value, got {line:?}")))?;
            let section = sections
                .last_mut()
                .ok_or_else(|| parse_err(line_no, "key = value before any [section]"))?;
            section
                .entries
                .push((line_no, key.trim().to_string(), value.trim().to_string()));
        }
    }
    Ok(sections)
}

fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (index, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            // in-bounds: `index` comes from `char_indices` of this very
            // string, and `#` is ASCII, so it is a char boundary in the line.
            '#' if !in_quotes => return &line[..index],
            _ => {}
        }
    }
    line
}

fn parse_err(line: usize, message: impl Into<String>) -> TopologyError {
    TopologyError::Parse {
        line,
        message: message.into(),
    }
}

/// A value parser: the raw value, its line and its key.
type Parser<T> = fn(&str, usize, &str) -> TopologyResult<T>;

/// One section's `key = value` entries, read key by key. A defect does not
/// stop the reading; [`Keys::check`] then reports the one a line-by-line
/// reading finds first: the earliest unknown key or unparsable value, else
/// the first missing key asked for.
struct Keys<'a> {
    section: &'a str,
    header_line: usize,
    entries: &'a [(usize, String, String)],
    /// The earliest unknown key or unparsable value, with its line.
    bad_entry: Option<(usize, TopologyError)>,
    /// The first required key found missing.
    missing: Option<TopologyError>,
}

impl<'a> Keys<'a> {
    /// Reads `raw` as a `[section]` whose keys are `known`.
    fn read(raw: &'a RawSection, section: &'a str, known: &[&str]) -> Self {
        let bad_entry = raw
            .entries
            .iter()
            .find(|(_, key, _)| !known.contains(&key.as_str()))
            .map(|(line, key, _)| {
                let unknown = parse_err(*line, format!("unknown [{section}] key {key:?}"));
                (*line, unknown)
            });
        Keys {
            section,
            header_line: raw.line,
            entries: &raw.entries,
            bad_entry,
            missing: None,
        }
    }

    /// The value of `key`, `None` when the section omits it. Every value of a
    /// repeated key must parse, and the last one wins.
    fn get<T>(&mut self, key: &str, parse: Parser<T>) -> TopologyResult<Option<T>> {
        let mut value = None;
        let entries = self.entries;
        for (line, _, raw) in entries.iter().filter(|(_, k, _)| k == key) {
            match parse(raw, *line, key) {
                Ok(parsed) => value = Some(parsed),
                Err(e) => {
                    if self
                        .bad_entry
                        .as_ref()
                        .is_none_or(|(first, _)| line < first)
                    {
                        self.bad_entry = Some((*line, e.clone()));
                    }
                    return Err(e);
                }
            }
        }
        Ok(value)
    }

    /// The value of `key`, which the section must give.
    fn require<T>(&mut self, key: &str, parse: Parser<T>) -> TopologyResult<T> {
        self.get(key, parse)?.ok_or_else(|| {
            let missing = parse_err(
                self.header_line,
                format!("[{}] section is missing key {key:?}", self.section),
            );
            self.missing.get_or_insert_with(|| missing.clone());
            missing
        })
    }

    /// The section's first defect, if it has one.
    fn check(self) -> TopologyResult<()> {
        match self.bad_entry.map(|(_, e)| e).or(self.missing) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

fn parse_section_index(rest: Option<&str>, line: usize, section: &str) -> TopologyResult<usize> {
    rest.and_then(|r| r.parse().ok())
        .ok_or_else(|| parse_err(line, format!("{section} sections are [{section}.N]")))
}

fn parse_section_name(rest: Option<&str>, line: usize, section: &str) -> TopologyResult<String> {
    match rest {
        Some(name) if !name.trim().is_empty() => Ok(name.trim().to_string()),
        _ => Err(parse_err(
            line,
            format!("{section} sections are [{section}.NAME]"),
        )),
    }
}

fn unquote(raw: &str) -> String {
    let raw = raw.trim();
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or(raw)
        .to_string()
}

fn parse_text(raw: &str, _line: usize, _key: &str) -> TopologyResult<String> {
    Ok(unquote(raw))
}

fn parse_f64(raw: &str, line: usize, key: &str) -> TopologyResult<f64> {
    unquote(raw)
        .parse()
        .map_err(|_| parse_err(line, format!("{key} expects a number, got {raw:?}")))
}

fn parse_usize(raw: &str, line: usize, key: &str) -> TopologyResult<usize> {
    unquote(raw)
        .parse()
        .map_err(|_| parse_err(line, format!("{key} expects an integer, got {raw:?}")))
}

fn parse_u32(raw: &str, line: usize, key: &str) -> TopologyResult<u32> {
    unquote(raw)
        .parse()
        .map_err(|_| parse_err(line, format!("{key} expects an integer, got {raw:?}")))
}

fn parse_u64(raw: &str, line: usize, key: &str) -> TopologyResult<u64> {
    let cleaned = unquote(raw).replace('_', "");
    let parsed = if let Some(hex) = cleaned.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse().ok()
    };
    parsed.ok_or_else(|| parse_err(line, format!("{key} expects an integer, got {raw:?}")))
}

/// Parses a byte quantity: a bare integer or a `KiB`/`MiB`/`GiB`/`TiB`
/// suffixed value like `"64GiB"`.
fn parse_bytes(raw: &str, line: usize, key: &str) -> TopologyResult<u64> {
    let cleaned = unquote(raw).replace('_', "");
    let split = cleaned
        .char_indices()
        .find(|(_, c)| c.is_ascii_alphabetic())
        .map(|(index, _)| index);
    let (number, suffix) = match split {
        Some(index) => cleaned.split_at(index),
        None => (cleaned.as_str(), ""),
    };
    let value: u64 = number
        .trim()
        .parse()
        .map_err(|_| parse_err(line, format!("{key} expects bytes, got {raw:?}")))?;
    let multiplier = match suffix.trim() {
        "" | "B" => 1u64,
        "KiB" => 1 << 10,
        "MiB" => 1 << 20,
        "GiB" => 1 << 30,
        "TiB" => 1 << 40,
        other => {
            return Err(parse_err(
                line,
                format!("{key} has unknown byte suffix {other:?}"),
            ))
        }
    };
    value
        .checked_mul(multiplier)
        .ok_or_else(|| parse_err(line, format!("{key} overflows u64")))
}

fn parse_list(raw: &str, line: usize, _key: &str) -> TopologyResult<Vec<String>> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| parse_err(line, format!("expected a [a, b, ...] list, got {raw:?}")))?;
    Ok(inner
        .split(',')
        .map(unquote)
        .filter(|item| !item.is_empty())
        .collect())
}

fn parse_device_kind(raw: &str, line: usize, _key: &str) -> TopologyResult<DeviceKind> {
    match unquote(raw).as_str() {
        "ddr4" => Ok(DeviceKind::Ddr4),
        "ddr5" => Ok(DeviceKind::Ddr5),
        "cxl" => Ok(DeviceKind::CxlExpanderDram),
        "dcpmm" => Ok(DeviceKind::Dcpmm),
        "hbm" => Ok(DeviceKind::Hbm),
        "bbu" => Ok(DeviceKind::BatteryBackedDram),
        other => Err(parse_err(
            line,
            format!("unknown device kind {other:?} (want ddr4|ddr5|cxl|dcpmm|hbm|bbu)"),
        )),
    }
}

fn parse_link_kind(raw: &str, line: usize, _key: &str) -> TopologyResult<LinkKind> {
    match unquote(raw).as_str() {
        "upi" => Ok(LinkKind::Upi),
        "pcie5" => Ok(LinkKind::PcieGen5x16),
        "pcie6" => Ok(LinkKind::PcieGen6x16),
        "cxl-controller" => Ok(LinkKind::FpgaCxlController),
        "fabric" => Ok(LinkKind::Fabric),
        other => Err(parse_err(
            line,
            format!("unknown link kind {other:?} (want upi|pcie5|pcie6|cxl-controller|fabric)"),
        )),
    }
}

/// Named reference topology descriptions: the machines the runtime's presets
/// compile ([`crate::machines`]), the calibration gate and the `streamer
/// scenario topology` sweep.
pub mod reference {
    /// Paper Setup #1: dual Sapphire Rapids + one FPGA CXL expander.
    pub const SPR_FPGA_CXL: &str = include_str!("../topologies/sapphire-rapids-cxl.topo");

    /// Paper Setup #2: dual Xeon Gold 5215, six-channel DDR4-2666, no CXL.
    pub const XEON_GOLD_DDR4: &str = include_str!("../topologies/xeon-gold-ddr4.topo");

    /// The DCPMM baseline: Setup #1 with one Optane DCPMM module as node 2.
    /// It carries published figures, not a calibrated measurement, so it is
    /// not part of [`all`].
    pub const SPR_DCPMM: &str = include_str!("../topologies/sapphire-rapids-dcpmm.topo");

    /// Dual Sapphire Rapids with two FPGA-class expanders interleaved behind
    /// one CFMWS window.
    pub const SPR_DUAL_CXL_INTERLEAVE: &str =
        include_str!("../topologies/spr-dual-cxl-interleave.topo");

    /// Dual Sapphire Rapids with one ASIC-class CXL expander (the class of
    /// device CXL-DMSim validates against).
    pub const SPR_ASIC_CXL: &str = include_str!("../topologies/spr-cxl-asic.topo");

    /// Every reference description, `(name, text)`, in calibration order.
    pub fn all() -> Vec<(&'static str, &'static str)> {
        vec![
            ("sapphire-rapids-cxl", SPR_FPGA_CXL),
            ("xeon-gold-ddr4", XEON_GOLD_DDR4),
            ("spr-dual-cxl-interleave", SPR_DUAL_CXL_INTERLEAVE),
            ("spr-cxl-asic", SPR_ASIC_CXL),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ThreadTraffic, TrafficPhase};
    use crate::engine::Engine;
    use crate::units::GIB;

    fn two_socket_two_expander() -> TopologyDescription {
        let mut d = TopologyDescription::new("2s2e");
        d.smt = 2;
        d.core_mlp = 10.0;
        d.processors = vec![
            ProcessorDecl {
                model: "Xeon".into(),
                base_ghz: 2.1,
                cores: 8,
                node: 0,
            },
            ProcessorDecl {
                model: "Xeon".into(),
                base_ghz: 2.1,
                cores: 8,
                node: 1,
            },
        ];
        d.memories = vec![
            MemoryDecl {
                node: 0,
                bytes: 64 * GIB,
                label: "DDR5 socket0".into(),
            },
            MemoryDecl {
                node: 1,
                bytes: 64 * GIB,
                label: "DDR5 socket1".into(),
            },
        ];
        let ddr5 = |name: &str, node| DeviceDecl {
            node: Some(node),
            spec: DeviceSpec {
                name: name.into(),
                kind: DeviceKind::Ddr5,
                read_bw_gbs: 30.0,
                write_bw_gbs: 28.0,
                idle_latency_ns: 95.0,
                capacity_bytes: 64 * GIB,
                channels: 2,
            },
        };
        let cxl = |name: &str| DeviceDecl {
            node: None,
            spec: DeviceSpec {
                name: name.into(),
                kind: DeviceKind::CxlExpanderDram,
                read_bw_gbs: 11.5,
                write_bw_gbs: 11.5,
                idle_latency_ns: 305.0,
                capacity_bytes: 16 * GIB,
                channels: 1,
            },
        };
        d.devices = vec![
            ddr5("ddr5-0", 0),
            ddr5("ddr5-1", 1),
            cxl("cxl-a"),
            cxl("cxl-b"),
        ];
        d.links = vec![
            LinkSpec {
                name: "upi".into(),
                kind: LinkKind::Upi,
                bandwidth_gbs: 18.0,
                latency_ns: 70.0,
            },
            LinkSpec {
                name: "pcie".into(),
                kind: LinkKind::PcieGen5x16,
                bandwidth_gbs: 64.0,
                latency_ns: 95.0,
            },
        ];
        d.paths = vec![
            PathDecl {
                socket: 0,
                node: 1,
                links: vec!["upi".into()],
            },
            PathDecl {
                socket: 1,
                node: 0,
                links: vec!["upi".into()],
            },
            PathDecl {
                socket: 0,
                node: 2,
                links: vec!["pcie".into()],
            },
            PathDecl {
                socket: 1,
                node: 2,
                links: vec!["pcie".into()],
            },
        ];
        d.windows = vec![WindowDecl {
            name: "ilv0".into(),
            node: 2,
            label: "2x CXL expander interleave".into(),
            hpa_base: 0x40_0000_0000,
            granularity: 256,
            targets: vec!["cxl-a".into(), "cxl-b".into()],
        }];
        d
    }

    /// [`two_socket_two_expander`] as text, each section with every key it
    /// takes, optional ones included, each set off its default.
    const TWO_SOCKET_TWO_EXPANDER: &str = r#"
[machine]
name = "2s2e"
smt = 2
core_mlp = 10

[processor.0]
model = "Xeon"
base_ghz = 2.1
cores = 8
node = 0

[processor.1]
model = "Xeon"
base_ghz = 2.1
cores = 8
node = 1

[memory.0]
bytes = "64GiB"
label = "DDR5 socket0"

[memory.1]
bytes = "64GiB"
label = "DDR5 socket1"

[device.ddr5-0]
node = 0
kind = "ddr5"
read_gbs = 30
write_gbs = 28
latency_ns = 95
capacity = "64GiB"
channels = 2

[device.ddr5-1]
node = 1
kind = "ddr5"
read_gbs = 30
write_gbs = 28
latency_ns = 95
capacity = "64GiB"
channels = 2

[device.cxl-a]
kind = "cxl"
read_gbs = 11.5
write_gbs = 11.5
latency_ns = 305
capacity = "16GiB"
channels = 1

[device.cxl-b]
kind = "cxl"
read_gbs = 11.5
write_gbs = 11.5
latency_ns = 305
capacity = "16GiB"
channels = 1

[link.upi]
kind = "upi"
gbs = 18
latency_ns = 70

[link.pcie]
kind = "pcie5"
gbs = 64
latency_ns = 95

[path.0.1]
links = ["upi"]

[path.1.0]
links = ["upi"]

[path.0.2]
links = ["pcie"]

[path.1.2]
links = ["pcie"]

[window.ilv0]
node = 2
label = "2x CXL expander interleave"
hpa_base = 0x40_0000_0000
granularity = "256B"
targets = ["cxl-a", "cxl-b"]
"#;

    #[test]
    fn description_round_trips_through_text() {
        assert_eq!(
            TopologyDescription::parse(TWO_SOCKET_TWO_EXPANDER).unwrap(),
            two_socket_two_expander()
        );
    }

    #[test]
    fn compile_builds_the_expected_device_graph() {
        let d = two_socket_two_expander();
        let m = d.compile().unwrap();
        assert_eq!(m.topology().nodes().len(), 3);
        assert_eq!(m.topology().sockets().len(), 2);
        assert!(m.topology().node(2).unwrap().is_cpuless());
        assert_eq!(m.topology().node(2).unwrap().mem_bytes, 32 * GIB);
        // The window aggregates both expanders.
        let window_device = m.device(2).unwrap();
        assert_eq!(window_device.kind, DeviceKind::CxlExpanderDram);
        assert!((window_device.read_bw_gbs - 23.0).abs() < 1e-9);
        assert!((window_device.idle_latency_ns - 305.0).abs() < 1e-9);
        // Local nodes got default direct paths; declared paths are honoured.
        assert!(m.path(0, 0).unwrap().links.is_empty());
        assert_eq!(m.path(0, 1).unwrap().links.len(), 1);
        assert_eq!(m.path(0, 2).unwrap().links[0].name, "pcie");
        // One 2-way window of two 16 GiB ways.
        assert_eq!(d.windows.len(), 1);
        assert_eq!(d.windows[0].targets.len(), 2);
        assert_eq!(window_device.capacity_bytes, 2 * 16 * GIB);
    }

    #[test]
    fn both_sockets_share_the_upi_link_by_name() {
        let engine = Engine::new(two_socket_two_expander().compile().unwrap());
        // Cross traffic from both sockets rides the same named link: the
        // aggregate is bounded by one 18 GB/s UPI ceiling, not two.
        let phase = TrafficPhase::from_threads(
            "both-sockets-cross",
            (0..8)
                .map(|t| ThreadTraffic::sequential(t, 1, 1 << 30, 0))
                .chain((8..16).map(|t| ThreadTraffic::sequential(t, 0, 1 << 30, 0))),
        );
        let report = engine.simulate(&phase).unwrap();
        assert!(
            report.bandwidth_gbs <= 18.0 + 1e-6,
            "shared UPI must cap aggregate, got {}",
            report.bandwidth_gbs
        );
    }

    #[test]
    fn duplicate_node_ids_are_typed_errors() {
        let mut d = two_socket_two_expander();
        d.windows[0].node = 1;
        assert_eq!(d.compile().unwrap_err(), TopologyError::DuplicateNode(1));
    }

    #[test]
    fn sparse_node_ids_are_typed_errors() {
        let mut d = two_socket_two_expander();
        d.windows[0].node = 5;
        assert_eq!(d.compile().unwrap_err(), TopologyError::MissingNodeId(2));
    }

    #[test]
    fn dangling_link_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.paths[0].links = vec!["warp-drive".into()];
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::DanglingLink {
                socket: 0,
                node: 1,
                link: "warp-drive".into()
            }
        );
    }

    #[test]
    fn zero_bandwidth_port_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.devices[0].spec.read_bw_gbs = 0.0;
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::ZeroBandwidth {
                what: "device",
                name: "ddr5-0".into()
            }
        );
        let mut d = two_socket_two_expander();
        d.links[1].bandwidth_gbs = 0.0;
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::ZeroBandwidth {
                what: "link",
                name: "pcie".into()
            }
        );
    }

    #[test]
    fn dangling_window_target_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.windows[0].targets[1] = "cxl-z".into();
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::DanglingWindowTarget {
                window: "ilv0".into(),
                target: "cxl-z".into()
            }
        );
    }

    #[test]
    fn attached_window_target_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.windows[0].targets[0] = "ddr5-0".into();
        // ddr5-0 is attached to node 0 — a window may not consume it.
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::TargetAlreadyAttached {
                window: "ilv0".into(),
                target: "ddr5-0".into()
            }
        );
    }

    #[test]
    fn missing_path_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.paths.retain(|p| !(p.socket == 1 && p.node == 2));
        assert_eq!(
            d.compile().unwrap_err(),
            TopologyError::MissingPath { socket: 1, node: 2 }
        );
    }

    #[test]
    fn bad_interleave_geometry_is_a_typed_error() {
        let mut d = two_socket_two_expander();
        d.windows[0].granularity = 3000;
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::InvalidWindow { .. }
        ));
        let mut d = two_socket_two_expander();
        d.windows[0].targets.pop();
        d.windows[0].targets.push("cxl-a".into());
        // cxl-a twice: consumed twice.
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::TargetAlreadyAttached { .. }
        ));
        let mut d = two_socket_two_expander();
        d.windows[0].hpa_base = 0x2000_0000_0030; // not cacheline-aligned
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::InvalidWindow { .. }
        ));
        // Two 16 GiB ways from 64 KiB below the top of the HPA space, and
        // two ways whose capacities alone overflow it.
        let mut d = two_socket_two_expander();
        d.windows[0].hpa_base = 0xFFFF_FFFF_FFFF_0000;
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::InvalidWindow { .. }
        ));
        let mut d = two_socket_two_expander();
        for device in d.devices.iter_mut().filter(|d| d.node.is_none()) {
            device.spec.capacity_bytes = 1 << 63;
        }
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::InvalidWindow { .. }
        ));
    }

    #[test]
    fn way_channels_past_u32_saturate_instead_of_overflowing() {
        let mut d = two_socket_two_expander();
        for device in d.devices.iter_mut().filter(|d| d.node.is_none()) {
            device.spec.channels = 3_000_000_000;
        }
        assert_eq!(d.compile().unwrap().device(2).unwrap().channels, u32::MAX);
    }

    #[test]
    fn channels_past_u32_are_a_parse_error_at_their_line() {
        // Setup #1's card with one more key: 2^32 + 1 channels.
        let card = "capacity = \"16GiB\"\n\n[link.upi]";
        assert!(reference::SPR_FPGA_CXL.contains(card));
        let text = reference::SPR_FPGA_CXL.replacen(
            card,
            "capacity = \"16GiB\"\nchannels = 4294967297\n\n[link.upi]",
            1,
        );
        let line = 1 + text
            .lines()
            .position(|l| l == "channels = 4294967297")
            .unwrap();
        let err = TopologyDescription::parse(&text).unwrap_err();
        assert_eq!(
            err,
            TopologyError::Parse {
                line,
                message: r#"channels expects an integer, got "4294967297""#.to_string(),
            }
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = TopologyDescription::parse("[machine]\nname = \"x\"\nbogus\n").unwrap_err();
        assert!(matches!(err, TopologyError::Parse { line: 3, .. }), "{err}");
        let err = TopologyDescription::parse("smt = 2\n").unwrap_err();
        assert!(matches!(err, TopologyError::Parse { line: 1, .. }), "{err}");
        let err =
            TopologyDescription::parse("[machine]\nname = \"x\"\n[device.d]\nkind = \"warp\"\n")
                .unwrap_err();
        assert!(matches!(err, TopologyError::Parse { line: 4, .. }), "{err}");
    }

    #[test]
    fn unknown_and_missing_keys_are_parse_errors_at_their_lines() {
        // Each keyed section, minimal and valid, after a two-line [machine]:
        // its header is line 3 and its keys follow one per line.
        const MACHINE: &str = "[machine]\nname = \"m\"\n";
        const PROCESSOR: &str =
            "[processor.0]\nmodel = \"x\"\nbase_ghz = 2.1\ncores = 1\nnode = 0\n";
        const MEMORY: &str = "[memory.0]\nbytes = \"1GiB\"\n";
        const DEVICE: &str =
            "[device.d]\nkind = \"ddr5\"\nread_gbs = 1\nlatency_ns = 1\ncapacity = \"1GiB\"\n";
        const LINK: &str = "[link.l]\nkind = \"upi\"\ngbs = 1\nlatency_ns = 1\n";
        const PATH: &str = "[path.0.0]\nlinks = [\"l\"]\n";
        const WINDOW: &str = "[window.w]\nnode = 0\n";
        let sections = [PROCESSOR, MEMORY, DEVICE, LINK, PATH, WINDOW];
        for section in sections {
            let text = format!("{MACHINE}{section}");
            assert!(TopologyDescription::parse(&text).is_ok(), "{text}");
        }
        let with_unknown = |section: &str| format!("{MACHINE}{section}bogus = 1\n");
        let without = |section: &str, key: &str| {
            let kept: String = section
                .lines()
                .filter(|line| !line.starts_with(&format!("{key} =")))
                .map(|line| format!("{line}\n"))
                .collect();
            assert_ne!(kept, section, "{key} is one of the section's keys");
            format!("{MACHINE}{kept}")
        };
        let cases = [
            (
                format!("{MACHINE}bogus = 1\n"),
                3,
                r#"unknown [machine] key "bogus""#,
            ),
            (
                "[machine]\nsmt = 1\n".to_string(),
                1,
                "[machine] requires a name",
            ),
            (
                with_unknown(PROCESSOR),
                8,
                r#"unknown [processor] key "bogus""#,
            ),
            (
                without(PROCESSOR, "model"),
                3,
                r#"[processor] section is missing key "model""#,
            ),
            (
                without(PROCESSOR, "base_ghz"),
                3,
                r#"[processor] section is missing key "base_ghz""#,
            ),
            (
                without(PROCESSOR, "cores"),
                3,
                r#"[processor] section is missing key "cores""#,
            ),
            (
                without(PROCESSOR, "node"),
                3,
                r#"[processor] section is missing key "node""#,
            ),
            (with_unknown(MEMORY), 5, r#"unknown [memory] key "bogus""#),
            (
                without(MEMORY, "bytes"),
                3,
                r#"[memory] section is missing key "bytes""#,
            ),
            (with_unknown(DEVICE), 8, r#"unknown [device] key "bogus""#),
            (
                without(DEVICE, "kind"),
                3,
                r#"[device] section is missing key "kind""#,
            ),
            (
                without(DEVICE, "read_gbs"),
                3,
                r#"[device] section is missing key "read_gbs""#,
            ),
            (
                without(DEVICE, "latency_ns"),
                3,
                r#"[device] section is missing key "latency_ns""#,
            ),
            (
                without(DEVICE, "capacity"),
                3,
                r#"[device] section is missing key "capacity""#,
            ),
            (with_unknown(LINK), 7, r#"unknown [link] key "bogus""#),
            (
                without(LINK, "kind"),
                3,
                r#"[link] section is missing key "kind""#,
            ),
            (
                without(LINK, "gbs"),
                3,
                r#"[link] section is missing key "gbs""#,
            ),
            (
                without(LINK, "latency_ns"),
                3,
                r#"[link] section is missing key "latency_ns""#,
            ),
            (with_unknown(PATH), 5, r#"unknown [path] key "bogus""#),
            (with_unknown(WINDOW), 5, r#"unknown [window] key "bogus""#),
            (
                without(WINDOW, "node"),
                3,
                r#"[window] section is missing key "node""#,
            ),
        ];
        for (text, line, message) in cases {
            assert_eq!(
                TopologyDescription::parse(&text),
                Err(TopologyError::Parse {
                    line,
                    message: message.to_string()
                }),
                "{text}"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a machine\n[machine]\nname = \"m\" # trailing\n\nsmt = 1\n";
        let d = TopologyDescription::parse(text).unwrap();
        assert_eq!(d.name, "m");
        assert_eq!(d.smt, 1);
    }

    #[test]
    fn every_reference_topology_parses_and_compiles() {
        for (name, text) in reference::all() {
            let description = TopologyDescription::parse(text)
                .unwrap_or_else(|e| panic!("{name} must parse: {e}"));
            assert_eq!(description.name, name);
            let machine = description
                .compile()
                .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
            assert!(!machine.devices().is_empty());
        }
    }

    #[test]
    fn reference_interleave_window_doubles_the_fpga_card() {
        let single = TopologyDescription::parse(reference::SPR_FPGA_CXL)
            .unwrap()
            .compile()
            .unwrap();
        let dual = TopologyDescription::parse(reference::SPR_DUAL_CXL_INTERLEAVE).unwrap();
        let single_bw = single.device(2).unwrap().read_bw_gbs;
        let dual_bw = dual.compile().unwrap().device(2).unwrap().read_bw_gbs;
        assert!((dual_bw - 2.0 * single_bw).abs() < 1e-9);
        assert_eq!(dual.windows[0].targets.len(), 2);
    }
}
