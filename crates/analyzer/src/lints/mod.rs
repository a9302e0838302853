//! The lint registry.
//!
//! Each lint is a pure function over one [`SourceFile`] plus the policy
//! [`Config`]; zones decide which files each lint inspects. The registry
//! drives both the engine and the fixture-counting golden test (a lint cannot
//! ship without fixtures because the test iterates this table).

use crate::config::Config;
use crate::findings::Finding;
use crate::source::SourceFile;

mod atomics;
mod errors;
mod panic_free;
mod persist;
mod unsafe_audit;

/// One registered lint.
pub struct Lint {
    /// Kebab-case id, used in diagnostics and `[[allow]]` entries.
    pub id: &'static str,
    /// One-line description for `ANALYSIS.json` and `repro-analyze lints`.
    pub description: &'static str,
    /// Runs the lint over one file.
    pub run: fn(&SourceFile, &Config) -> Vec<Finding>,
}

/// Every lint the analyzer ships, in diagnostic order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "persist-ordering",
        description: "flush fan-outs on the persist path reach exactly one drain, never inside a loop",
        run: persist::run,
    },
    Lint {
        id: "unsafe-audit",
        description: "unsafe only in audited modules with adjacent SAFETY comments; no audited module without unsafe; forbid/deny attributes present",
        run: unsafe_audit::run,
    },
    Lint {
        id: "panic-free",
        description: "no unwrap/expect/panic!/unreachable!/unjustified dynamic indexing in panic-free zones",
        run: panic_free::run,
    },
    Lint {
        id: "atomic-ordering",
        description: "SeqCst needs an ORDERING: justification; pinned modules keep their documented protocol",
        run: atomics::run,
    },
    Lint {
        id: "error-hygiene",
        description: "public fallible APIs return typed errors, never Box<dyn Error> or String",
        run: errors::run,
    },
];

/// Looks a lint up by id.
pub fn lint_by_id(id: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.id == id)
}

/// Shared helper: builds a finding anchored at `line` of `file`.
pub(crate) fn finding(
    lint: &'static str,
    file: &SourceFile,
    line: u32,
    message: String,
    hint: &str,
) -> Finding {
    Finding {
        lint,
        file: file.path.clone(),
        line,
        message,
        hint: hint.to_string(),
        snippet: file.line_text(line).trim().to_string(),
        waived: None,
    }
}

/// Shared helper: does `path` match a zone entry? Zones are repo-relative
/// file paths; a trailing `/` entry matches a whole directory.
pub(crate) fn in_zone(path: &str, zones: &[String]) -> bool {
    zones.iter().any(|z| zone_matches(path, z))
}

/// Does `path` match the one policy entry `zone`?
pub(crate) fn zone_matches(path: &str, zone: &str) -> bool {
    path == zone || (zone.ends_with('/') && path.starts_with(zone))
}
