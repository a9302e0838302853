//! Findings, waivers and the machine-readable `ANALYSIS.json` report.

use std::fmt;

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint id (kebab-case, e.g. `persist-ordering`).
    pub lint: &'static str,
    /// Repo-relative path of the file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// What rule was violated, in one sentence.
    pub message: String,
    /// How to fix it, in one sentence.
    pub hint: String,
    /// Verbatim source line (trimmed) — also what `[[allow]]` entries match.
    pub snippet: String,
    /// Set when an `[[allow]]` entry waives the finding: its justification.
    pub waived: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}\n    fix: {}",
            self.file, self.line, self.lint, self.message, self.snippet, self.hint
        )
    }
}

/// The full result of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Active findings (not waived) — any entry here fails the run.
    pub findings: Vec<Finding>,
    /// Findings waived by `[[allow]]` entries, with their justifications.
    pub waived: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// `[[allow]]` entries that matched nothing — stale waivers are findings
    /// in their own right (they hide future regressions), reported as
    /// `(lint, file, contains)` triples.
    pub stale_allows: Vec<(String, String, String)>,
    /// Policy paths that match no scanned file, reported as `(key, path)`
    /// pairs: a zone, crate root, audited module or pinned file left behind
    /// by a move or a deletion would otherwise check nothing.
    pub stale_paths: Vec<(String, String)>,
}

impl Report {
    /// Whether the tree is clean (no active findings, no stale waivers or
    /// policy paths).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows.is_empty() && self.stale_paths.is_empty()
    }

    /// Renders the machine-readable `ANALYSIS.json` document.
    pub fn to_json(&self, lints: &[(&str, &str)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"lints\": [\n");
        for (i, (id, desc)) in lints.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"description\": {}}}{}\n",
                json_str(id),
                json_str(desc),
                comma(i, lints.len())
            ));
        }
        out.push_str("  ],\n");
        json_finding_array(&mut out, "findings", &self.findings);
        out.push_str(",\n");
        json_finding_array(&mut out, "waived", &self.waived);
        out.push_str(",\n  \"stale_allows\": [\n");
        for (i, (lint, file, contains)) in self.stale_allows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"lint\": {}, \"file\": {}, \"contains\": {}}}{}\n",
                json_str(lint),
                json_str(file),
                json_str(contains),
                comma(i, self.stale_allows.len())
            ));
        }
        out.push_str("  ],\n  \"stale_paths\": [\n");
        for (i, (key, path)) in self.stale_paths.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"key\": {}, \"path\": {}}}{}\n",
                json_str(key),
                json_str(path),
                comma(i, self.stale_paths.len())
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_finding_array(out: &mut String, key: &str, findings: &[Finding]) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"hint\": {}, \"snippet\": {}",
            json_str(f.lint),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            json_str(&f.hint),
            json_str(&f.snippet),
        ));
        if let Some(j) = &f.waived {
            out.push_str(&format!(", \"justification\": {}", json_str(j)));
        }
        out.push_str(&format!("}}{}\n", comma(i, findings.len())));
    }
    out.push_str("  ]");
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Escapes a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let report = Report {
            findings: vec![Finding {
                lint: "panic-free",
                file: "a\\b.rs".to_string(),
                line: 3,
                message: "say \"no\"".to_string(),
                hint: "h".to_string(),
                snippet: "x\ty".to_string(),
                waived: None,
            }],
            waived: Vec::new(),
            files_scanned: 1,
            stale_allows: Vec::new(),
            stale_paths: vec![("panic_free.zones".to_string(), "gone.rs".to_string())],
        };
        let json = report.to_json(&[("panic-free", "d")]);
        assert!(json.contains("\"a\\\\b.rs\""));
        assert!(json.contains("say \\\"no\\\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("{\"key\": \"panic_free.zones\", \"path\": \"gone.rs\"}"));
    }
}
