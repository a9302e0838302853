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
//! [`TopologyError`]s, never panics), [`TopologyDescription::render`] writes
//! it back out (round-trip stable), and [`TopologyDescription::compile`]
//! validates the graph and produces an [`IngestedTopology`] — a ready
//! [`Machine`] plus the compiled interleave windows. The named reference
//! machines live in [`mod@reference`]: the runtime's presets compile them, and
//! the calibration gate checks them.
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
//! let ingested = TopologyDescription::parse(text).unwrap().compile().unwrap();
//! assert_eq!(ingested.windows.len(), 1);
//! assert_eq!(ingested.windows[0].ways(), 2);
//!
//! // The window aggregates both expanders behind node 2: the engine sees
//! // ~23 GB/s where a single card would cap at 11.5.
//! let engine = Engine::new(ingested.machine);
//! let phase = TrafficPhase::from_threads(
//!     "interleaved stream",
//!     (0..16).map(|t| ThreadTraffic::sequential(t, 2, 1 << 30, 0)),
//! );
//! let report = engine.simulate(&phase).unwrap();
//! assert!(report.bandwidth_gbs > 20.0);
//! ```

use crate::calibration as cal;
use crate::device::{DeviceKind, DeviceSpec};
use crate::engine::Engine;
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
    /// Unique device name (doubles as the engine's resource name).
    pub name: String,
    /// Node the device backs; `None` leaves it available to a window.
    pub node: Option<usize>,
    /// Device technology.
    pub kind: DeviceKind,
    /// Sustainable read bandwidth (GB/s).
    pub read_gbs: f64,
    /// Sustainable write bandwidth (GB/s).
    pub write_gbs: f64,
    /// Idle load-to-use latency contributed by the device itself (ns).
    pub latency_ns: f64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Independent channels.
    pub channels: u32,
}

impl DeviceDecl {
    /// Converts the declaration into the engine's [`DeviceSpec`].
    pub fn to_spec(&self) -> DeviceSpec {
        DeviceSpec {
            name: self.name.clone(),
            kind: self.kind,
            read_bw_gbs: self.read_gbs,
            write_bw_gbs: self.write_gbs,
            idle_latency_ns: self.latency_ns,
            capacity_bytes: self.capacity_bytes,
            channels: self.channels,
        }
    }
}

/// An interconnect link. Paths that name the same link share its bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDecl {
    /// Unique link name (sharing is by name, as in [`crate::engine`]).
    pub name: String,
    /// Link technology.
    pub kind: LinkKind,
    /// Per-direction bandwidth ceiling (GB/s).
    pub bandwidth_gbs: f64,
    /// Added load-to-use latency (ns).
    pub latency_ns: f64,
}

impl LinkDecl {
    /// Converts the declaration into the engine's [`LinkSpec`].
    pub fn to_spec(&self) -> LinkSpec {
        LinkSpec {
            name: self.name.clone(),
            kind: self.kind,
            bandwidth_gbs: self.bandwidth_gbs,
            latency_ns: self.latency_ns,
        }
    }
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
/// See the [module docs](self) for the text format. Descriptions round-trip:
/// `parse(render(d)) == d`.
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
    /// Link declarations.
    pub links: Vec<LinkDecl>,
    /// Path declarations.
    pub paths: Vec<PathDecl>,
    /// Interleave-window declarations.
    pub windows: Vec<WindowDecl>,
}

/// One compiled CFMWS window: validated geometry plus per-way capacity, from
/// which the compiler derives the window node's aggregate device.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWindow {
    /// Window name.
    pub name: String,
    /// The CPU-less node the window surfaces as.
    pub node: usize,
    /// Host-physical base address.
    pub hpa_base: u64,
    /// Interleave granularity (bytes).
    pub granularity: u64,
    /// Target device names in interleave-position order.
    pub way_names: Vec<String>,
    /// Capacity contributed by each way (bytes; uniform across ways).
    pub way_capacity_bytes: u64,
}

impl CompiledWindow {
    /// Number of interleave ways.
    pub fn ways(&self) -> usize {
        self.way_names.len()
    }

    /// Total window length in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.way_capacity_bytes * self.way_names.len() as u64
    }
}

/// The result of compiling a description: a ready [`Machine`] plus the
/// compiled interleave windows.
#[derive(Debug, Clone)]
pub struct IngestedTopology {
    /// The compiled machine model.
    pub machine: Machine,
    /// Compiled CFMWS windows (empty when no `[window.*]` was declared).
    pub windows: Vec<CompiledWindow>,
}

impl IngestedTopology {
    /// Convenience: a simulation engine over a clone of the compiled machine.
    pub fn engine(&self) -> Engine {
        Engine::new(self.machine.clone())
    }
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
                    let mut d = TopologyDescription::new("");
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "name" => d.name = unquote(value),
                            "smt" => d.smt = parse_usize(value, *line, "smt")?,
                            "core_mlp" => d.core_mlp = parse_f64(value, *line, "core_mlp")?,
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [machine] key {other:?}"),
                                ))
                            }
                        }
                    }
                    if d.name.is_empty() {
                        return Err(parse_err(header_line, "[machine] requires a name"));
                    }
                    description = Some(d);
                }
                "processor" => {
                    let index = parse_section_index(rest, header_line, "processor")?;
                    let mut model = None;
                    let mut base_ghz = None;
                    let mut cores = None;
                    let mut node = None;
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "model" => model = Some(unquote(value)),
                            "base_ghz" => base_ghz = Some(parse_f64(value, *line, "base_ghz")?),
                            "cores" => cores = Some(parse_usize(value, *line, "cores")?),
                            "node" => node = Some(parse_usize(value, *line, "node")?),
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [processor] key {other:?}"),
                                ))
                            }
                        }
                    }
                    processors.push((
                        index,
                        header_line,
                        ProcessorDecl {
                            model: model
                                .ok_or_else(|| missing_key(header_line, "processor", "model"))?,
                            base_ghz: base_ghz
                                .ok_or_else(|| missing_key(header_line, "processor", "base_ghz"))?,
                            cores: cores
                                .ok_or_else(|| missing_key(header_line, "processor", "cores"))?,
                            node: node
                                .ok_or_else(|| missing_key(header_line, "processor", "node"))?,
                        },
                    ));
                }
                "memory" => {
                    let node = parse_section_index(rest, header_line, "memory")?;
                    let mut bytes = None;
                    let mut label = None;
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "bytes" => bytes = Some(parse_bytes(value, *line, "bytes")?),
                            "label" => label = Some(unquote(value)),
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [memory] key {other:?}"),
                                ))
                            }
                        }
                    }
                    memories.push(MemoryDecl {
                        node,
                        bytes: bytes.ok_or_else(|| missing_key(header_line, "memory", "bytes"))?,
                        label: label.unwrap_or_else(|| format!("node{node}")),
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
                        let cells = parse_list(value, *line)?
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
                    let mut node = None;
                    let mut kind = None;
                    let mut read_gbs = None;
                    let mut write_gbs = None;
                    let mut latency_ns = None;
                    let mut capacity = None;
                    let mut channels = 1u32;
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "node" => node = Some(parse_usize(value, *line, "node")?),
                            "kind" => kind = Some(parse_device_kind(value, *line)?),
                            "read_gbs" => read_gbs = Some(parse_f64(value, *line, "read_gbs")?),
                            "write_gbs" => write_gbs = Some(parse_f64(value, *line, "write_gbs")?),
                            "latency_ns" => {
                                latency_ns = Some(parse_f64(value, *line, "latency_ns")?)
                            }
                            "capacity" => capacity = Some(parse_bytes(value, *line, "capacity")?),
                            "channels" => channels = parse_usize(value, *line, "channels")? as u32,
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [device] key {other:?}"),
                                ))
                            }
                        }
                    }
                    let read_gbs =
                        read_gbs.ok_or_else(|| missing_key(header_line, "device", "read_gbs"))?;
                    devices.push(DeviceDecl {
                        name,
                        node,
                        kind: kind.ok_or_else(|| missing_key(header_line, "device", "kind"))?,
                        read_gbs,
                        write_gbs: write_gbs.unwrap_or(read_gbs),
                        latency_ns: latency_ns
                            .ok_or_else(|| missing_key(header_line, "device", "latency_ns"))?,
                        capacity_bytes: capacity
                            .ok_or_else(|| missing_key(header_line, "device", "capacity"))?,
                        channels,
                    });
                }
                "link" => {
                    let name = parse_section_name(rest, header_line, "link")?;
                    let mut kind = None;
                    let mut gbs = None;
                    let mut latency_ns = None;
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "kind" => kind = Some(parse_link_kind(value, *line)?),
                            "gbs" => gbs = Some(parse_f64(value, *line, "gbs")?),
                            "latency_ns" => {
                                latency_ns = Some(parse_f64(value, *line, "latency_ns")?)
                            }
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [link] key {other:?}"),
                                ))
                            }
                        }
                    }
                    links.push(LinkDecl {
                        name,
                        kind: kind.ok_or_else(|| missing_key(header_line, "link", "kind"))?,
                        bandwidth_gbs: gbs
                            .ok_or_else(|| missing_key(header_line, "link", "gbs"))?,
                        latency_ns: latency_ns
                            .ok_or_else(|| missing_key(header_line, "link", "latency_ns"))?,
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
                    let mut link_names = Vec::new();
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "links" => link_names = parse_list(value, *line)?,
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [path] key {other:?}"),
                                ))
                            }
                        }
                    }
                    paths.push(PathDecl {
                        socket,
                        node,
                        links: link_names,
                    });
                }
                "window" => {
                    let name = parse_section_name(rest, header_line, "window")?;
                    let mut node = None;
                    let mut label = None;
                    let mut hpa_base = 0x20_0000_0000u64;
                    let mut granularity = 4096u64;
                    let mut targets = Vec::new();
                    for (line, key, value) in &section.entries {
                        match key.as_str() {
                            "node" => node = Some(parse_usize(value, *line, "node")?),
                            "label" => label = Some(unquote(value)),
                            "hpa_base" => hpa_base = parse_u64(value, *line, "hpa_base")?,
                            "granularity" => {
                                granularity = parse_bytes(value, *line, "granularity")?
                            }
                            "targets" => targets = parse_list(value, *line)?,
                            other => {
                                return Err(parse_err(
                                    *line,
                                    format!("unknown [window] key {other:?}"),
                                ))
                            }
                        }
                    }
                    windows.push(WindowDecl {
                        node: node.ok_or_else(|| missing_key(header_line, "window", "node"))?,
                        label: label.unwrap_or_else(|| name.clone()),
                        name,
                        hpa_base,
                        granularity,
                        targets,
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

    /// Renders the description back into the text format.
    ///
    /// Stable round trip: `parse(render(d)) == d` for any valid description.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("[machine]\n");
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("smt = {}\n", self.smt));
        out.push_str(&format!("core_mlp = {}\n", self.core_mlp));
        for (index, p) in self.processors.iter().enumerate() {
            out.push_str(&format!(
                "\n[processor.{index}]\nmodel = \"{}\"\nbase_ghz = {}\ncores = {}\nnode = {}\n",
                p.model, p.base_ghz, p.cores, p.node
            ));
        }
        for m in &self.memories {
            out.push_str(&format!(
                "\n[memory.{}]\nbytes = {}\nlabel = \"{}\"\n",
                m.node, m.bytes, m.label
            ));
        }
        if let Some(rows) = &self.distances {
            out.push_str("\n[slit]\n");
            for (index, row) in rows.iter().enumerate() {
                let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!("node.{index} = [{}]\n", cells.join(", ")));
            }
        }
        for d in &self.devices {
            out.push_str(&format!("\n[device.{}]\n", d.name));
            if let Some(node) = d.node {
                out.push_str(&format!("node = {node}\n"));
            }
            out.push_str(&format!(
                "kind = \"{}\"\nread_gbs = {}\nwrite_gbs = {}\nlatency_ns = {}\ncapacity = {}\nchannels = {}\n",
                device_kind_name(d.kind),
                d.read_gbs,
                d.write_gbs,
                d.latency_ns,
                d.capacity_bytes,
                d.channels
            ));
        }
        for l in &self.links {
            out.push_str(&format!(
                "\n[link.{}]\nkind = \"{}\"\ngbs = {}\nlatency_ns = {}\n",
                l.name,
                link_kind_name(l.kind),
                l.bandwidth_gbs,
                l.latency_ns
            ));
        }
        for p in &self.paths {
            let links: Vec<String> = p.links.iter().map(|l| format!("\"{l}\"")).collect();
            out.push_str(&format!(
                "\n[path.{}.{}]\nlinks = [{}]\n",
                p.socket,
                p.node,
                links.join(", ")
            ));
        }
        for w in &self.windows {
            let targets: Vec<String> = w.targets.iter().map(|t| format!("\"{t}\"")).collect();
            out.push_str(&format!(
                "\n[window.{}]\nnode = {}\nlabel = \"{}\"\nhpa_base = 0x{:x}\ngranularity = {}\ntargets = [{}]\n",
                w.name,
                w.node,
                w.label,
                w.hpa_base,
                w.granularity,
                targets.join(", ")
            ));
        }
        out
    }

    /// Validates the description and compiles it into the device graph.
    ///
    /// All graph defects — duplicate node ids, dangling link or window-target
    /// references, zero-bandwidth ports, unreachable nodes — surface as typed
    /// [`TopologyError`]s.
    pub fn compile(&self) -> TopologyResult<IngestedTopology> {
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
            if !positive(d.read_gbs) || !positive(d.write_gbs) {
                return Err(TopologyError::ZeroBandwidth {
                    what: "device",
                    name: d.name.clone(),
                });
            }
            if device_by_name.insert(d.name.as_str(), d).is_some() {
                return Err(TopologyError::DuplicateDevice(d.name.clone()));
            }
        }
        let mut link_by_name: HashMap<&str, &LinkDecl> = HashMap::new();
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

        // Attach devices to memory nodes.
        let mut node_device: HashMap<usize, &DeviceDecl> = HashMap::new();
        for d in &self.devices {
            if let Some(node) = d.node {
                match node_backing.get(&node) {
                    None => {
                        return Err(TopologyError::UnknownNode {
                            referrer: format!("device {:?}", d.name),
                            node,
                        })
                    }
                    Some(Backing::Window(_)) => {
                        return Err(TopologyError::NodeAlreadyBacked { node })
                    }
                    Some(Backing::Memory(_)) => {}
                }
                if node_device.insert(node, d).is_some() {
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
        let mut compiled_windows = Vec::new();
        for w in &self.windows {
            if w.targets.is_empty() {
                return Err(TopologyError::EmptyWindow(w.name.clone()));
            }
            let ways = w.targets.len();
            if !matches!(ways, 1 | 2 | 4 | 8 | 16) {
                return Err(TopologyError::InvalidWindow {
                    window: w.name.clone(),
                    message: format!("interleave ways must be 1, 2, 4, 8 or 16, got {ways}"),
                });
            }
            if !w.hpa_base.is_multiple_of(64) {
                return Err(TopologyError::InvalidWindow {
                    window: w.name.clone(),
                    message: format!("hpa_base must be 64-byte aligned, got 0x{:x}", w.hpa_base),
                });
            }
            if !w.granularity.is_power_of_two()
                || !(MIN_INTERLEAVE_GRANULARITY..=MAX_INTERLEAVE_GRANULARITY)
                    .contains(&w.granularity)
            {
                return Err(TopologyError::InvalidWindow {
                    window: w.name.clone(),
                    message: format!(
                        "granularity must be a power of two in {MIN_INTERLEAVE_GRANULARITY}..={MAX_INTERLEAVE_GRANULARITY}, got {}",
                        w.granularity
                    ),
                });
            }
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
                if device.kind != DeviceKind::CxlExpanderDram {
                    return Err(TopologyError::WindowTargetNotCxl {
                        window: w.name.clone(),
                        target: target.clone(),
                    });
                }
                if !device.capacity_bytes.is_multiple_of(w.granularity) {
                    return Err(TopologyError::InvalidWindow {
                        window: w.name.clone(),
                        message: format!(
                            "target {target:?} capacity is not a multiple of the granularity"
                        ),
                    });
                }
                match way_capacity {
                    None => way_capacity = Some(device.capacity_bytes),
                    Some(capacity) if capacity != device.capacity_bytes => {
                        return Err(TopologyError::InvalidWindow {
                            window: w.name.clone(),
                            message: "interleave targets must have uniform capacity".into(),
                        })
                    }
                    Some(_) => {}
                }
            }
            let way_capacity_bytes = way_capacity.unwrap_or(0);
            let fits = way_capacity_bytes
                .checked_mul(ways as u64)
                .and_then(|total| w.hpa_base.checked_add(total));
            if fits.is_none() {
                return Err(TopologyError::InvalidWindow {
                    window: w.name.clone(),
                    message: format!(
                        "{ways} ways of {way_capacity_bytes} bytes from 0x{:x} end past the top of the HPA space",
                        w.hpa_base
                    ),
                });
            }
            compiled_windows.push(CompiledWindow {
                name: w.name.clone(),
                node: w.node,
                hpa_base: w.hpa_base,
                granularity: w.granularity,
                way_names: w.targets.clone(),
                way_capacity_bytes,
            });
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
        // Node ids were validated dense above, and every window declaration
        // was compiled above, so both lookups are infallible by construction;
        // the compile path claims never to panic, so the claims are typed
        // errors, not `expect`s.
        let backing_of = |node: usize| {
            node_backing
                .get(&node)
                .ok_or(TopologyError::Internal("node ids validated dense above"))
        };
        let window_of = |w: &WindowDecl| {
            compiled_windows
                .iter()
                .find(|c| c.node == w.node)
                .ok_or(TopologyError::Internal("window was compiled above"))
        };
        let mut builder = Topology::builder(&self.name).smt(self.smt);
        for node in 0..node_count {
            builder = match backing_of(node)? {
                Backing::Memory(m) => builder.node(m.bytes, &m.label),
                Backing::Window(w) => {
                    let compiled = window_of(w)?;
                    builder.node(compiled.total_bytes(), &w.label)
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
        // (socket, node) pair. Windows synthesise an aggregate device.
        let mut machine = Machine::builder(topology).core_mlp(self.core_mlp);
        for node in 0..node_count {
            let spec = match backing_of(node)? {
                Backing::Memory(_) => node_device
                    .get(&node)
                    .ok_or(TopologyError::Internal("memory nodes have devices above"))?
                    .to_spec(),
                Backing::Window(w) => {
                    let compiled = window_of(w)?;
                    aggregate_window_device(w, compiled, &device_by_name)?
                }
            };
            machine = machine.device(node, spec);
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
                                    .map(|link| link.to_spec())
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
        let machine = machine.build()?;

        Ok(IngestedTopology {
            machine,
            windows: compiled_windows,
        })
    }
}

/// Synthesises the aggregate [`DeviceSpec`] a CFMWS window surfaces: summed
/// bandwidth/capacity/channels across the ways, worst-case idle latency.
/// Every way name was resolved during window compilation, so the lookup only
/// fails on an internal invariant breach — typed, because this is the
/// never-panics compile path.
fn aggregate_window_device(
    window: &WindowDecl,
    compiled: &CompiledWindow,
    devices: &HashMap<&str, &DeviceDecl>,
) -> Result<DeviceSpec, TopologyError> {
    let mut read = 0.0f64;
    let mut write = 0.0f64;
    let mut latency = 0.0f64;
    let mut channels = 0u32;
    for name in &compiled.way_names {
        let d = devices
            .get(name.as_str())
            .ok_or(TopologyError::Internal("window ways resolved above"))?;
        read += d.read_gbs;
        write += d.write_gbs;
        latency = latency.max(d.latency_ns);
        channels += d.channels;
    }
    Ok(DeviceSpec {
        name: format!("{} ({}-way interleave)", window.name, compiled.ways()),
        kind: DeviceKind::CxlExpanderDram,
        read_bw_gbs: read,
        write_bw_gbs: write,
        idle_latency_ns: latency,
        capacity_bytes: compiled.total_bytes(),
        channels: channels.max(1),
    })
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

fn missing_key(line: usize, section: &str, key: &str) -> TopologyError {
    parse_err(line, format!("[{section}] section is missing key {key:?}"))
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

fn parse_list(raw: &str, line: usize) -> TopologyResult<Vec<String>> {
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

fn parse_device_kind(raw: &str, line: usize) -> TopologyResult<DeviceKind> {
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

fn device_kind_name(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Ddr4 => "ddr4",
        DeviceKind::Ddr5 => "ddr5",
        DeviceKind::CxlExpanderDram => "cxl",
        DeviceKind::Dcpmm => "dcpmm",
        DeviceKind::Hbm => "hbm",
        DeviceKind::BatteryBackedDram => "bbu",
    }
}

fn parse_link_kind(raw: &str, line: usize) -> TopologyResult<LinkKind> {
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

fn link_kind_name(kind: LinkKind) -> &'static str {
    match kind {
        LinkKind::Upi => "upi",
        LinkKind::PcieGen5x16 => "pcie5",
        LinkKind::PcieGen6x16 => "pcie6",
        LinkKind::FpgaCxlController => "cxl-controller",
        LinkKind::Fabric => "fabric",
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
    use crate::units::GIB;

    fn two_socket_two_expander() -> TopologyDescription {
        let mut d = TopologyDescription::new("2s2e");
        d.smt = 2;
        d.core_mlp = 12.0;
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
        d.devices = vec![
            DeviceDecl {
                name: "ddr5-0".into(),
                node: Some(0),
                kind: DeviceKind::Ddr5,
                read_gbs: 30.0,
                write_gbs: 30.0,
                latency_ns: 95.0,
                capacity_bytes: 64 * GIB,
                channels: 1,
            },
            DeviceDecl {
                name: "ddr5-1".into(),
                node: Some(1),
                kind: DeviceKind::Ddr5,
                read_gbs: 30.0,
                write_gbs: 30.0,
                latency_ns: 95.0,
                capacity_bytes: 64 * GIB,
                channels: 1,
            },
            DeviceDecl {
                name: "cxl-a".into(),
                node: None,
                kind: DeviceKind::CxlExpanderDram,
                read_gbs: 11.5,
                write_gbs: 11.5,
                latency_ns: 305.0,
                capacity_bytes: 16 * GIB,
                channels: 1,
            },
            DeviceDecl {
                name: "cxl-b".into(),
                node: None,
                kind: DeviceKind::CxlExpanderDram,
                read_gbs: 11.5,
                write_gbs: 11.5,
                latency_ns: 305.0,
                capacity_bytes: 16 * GIB,
                channels: 1,
            },
        ];
        d.links = vec![
            LinkDecl {
                name: "upi".into(),
                kind: LinkKind::Upi,
                bandwidth_gbs: 18.0,
                latency_ns: 70.0,
            },
            LinkDecl {
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
            hpa_base: 0x20_0000_0000,
            granularity: 4096,
            targets: vec!["cxl-a".into(), "cxl-b".into()],
        }];
        d
    }

    #[test]
    fn description_round_trips_through_text() {
        let d = two_socket_two_expander();
        let text = d.render();
        let parsed = TopologyDescription::parse(&text).unwrap();
        assert_eq!(parsed, d);
        // Render is stable, not just parse-equivalent.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn compile_builds_the_expected_device_graph() {
        let ingested = two_socket_two_expander().compile().unwrap();
        let m = &ingested.machine;
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
        // Windows compiled with CXL geometry.
        assert_eq!(ingested.windows.len(), 1);
        assert_eq!(ingested.windows[0].ways(), 2);
        assert_eq!(ingested.windows[0].way_capacity_bytes, 16 * GIB);
    }

    #[test]
    fn both_sockets_share_the_upi_link_by_name() {
        let ingested = two_socket_two_expander().compile().unwrap();
        let engine = ingested.engine();
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
        d.devices[0].read_gbs = 0.0;
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
            device.capacity_bytes = 1 << 63;
        }
        assert!(matches!(
            d.compile().unwrap_err(),
            TopologyError::InvalidWindow { .. }
        ));
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
            let ingested = description
                .compile()
                .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
            assert!(!ingested.machine.devices().is_empty());
            // Round trip through render.
            let again = TopologyDescription::parse(&description.render()).unwrap();
            assert_eq!(again, description);
        }
    }

    #[test]
    fn reference_interleave_window_doubles_the_fpga_card() {
        let single = TopologyDescription::parse(reference::SPR_FPGA_CXL)
            .unwrap()
            .compile()
            .unwrap();
        let dual = TopologyDescription::parse(reference::SPR_DUAL_CXL_INTERLEAVE)
            .unwrap()
            .compile()
            .unwrap();
        let single_bw = single.machine.device(2).unwrap().read_bw_gbs;
        let dual_bw = dual.machine.device(2).unwrap().read_bw_gbs;
        assert!((dual_bw - 2.0 * single_bw).abs() < 1e-9);
        assert_eq!(dual.windows[0].ways(), 2);
    }
}
