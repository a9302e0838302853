//! unsafe-audit: the audited-module allowlist, as config instead of CI YAML.
//!
//! Four rules:
//!
//! 1. Crate roots listed under `unsafe_audit.forbid` / `unsafe_audit.deny`
//!    must actually carry the `#![forbid(unsafe_code)]` (resp. `deny`)
//!    attribute — the compiler enforces the attribute, the analyzer enforces
//!    that the attribute is there to enforce.
//! 2. The `unsafe` token may only appear in files on the audited-module
//!    allowlist (`unsafe_audit.audited`). Anywhere else — including files the
//!    scanner has never heard of — it is a finding. String literals and
//!    comments do not count (the lexer knows the difference; `grep` did not).
//! 3. Inside an audited module, every `unsafe` occurrence needs an adjacent
//!    justification: a `// SAFETY:` comment within the six preceding lines,
//!    or a `# Safety` rustdoc section within twelve (the convention for
//!    `unsafe fn`). Test code is exempt from rule 3 (but not rule 2: audited
//!    means audited).
//! 4. A file listed in `audited` must contain an `unsafe` token. An entry
//!    that outlives the `unsafe` it was written for is a stale exemption.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::lints::{finding, in_zone};
use crate::source::SourceFile;

pub(super) fn run(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let audited = in_zone(&file.path, &cfg.unsafe_audited);

    // Rule 1: policy attributes present on declared crate roots.
    for (list, attr) in [(&cfg.unsafe_forbid, "forbid"), (&cfg.unsafe_deny, "deny")] {
        if list.iter().any(|p| p == &file.path) && !has_unsafe_code_attr(file, attr) {
            out.push(finding(
                "unsafe-audit",
                file,
                1,
                format!(
                    "crate root is declared `{attr}` in analyzer.toml but does not carry \
                     `#![{attr}(unsafe_code)]`"
                ),
                "add the attribute to the crate root (or move the crate's policy in analyzer.toml)",
            ));
        }
    }

    // Rules 2 and 3: every `unsafe` keyword token.
    let mut any_unsafe = false;
    for (i, t) in file.code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        any_unsafe = true;
        // `allow(unsafe_code)`-style attribute mentions lex as `unsafe_code`,
        // a different identifier; reaching here means a real `unsafe` keyword.
        if !audited {
            out.push(finding(
                "unsafe-audit",
                file,
                t.line,
                "`unsafe` outside the audited-module allowlist".to_string(),
                "move the code into an audited module listed in analyzer.toml, or find a safe formulation",
            ));
            continue;
        }
        if file.is_test_line(t.line) {
            continue;
        }
        let has_safety =
            file.comment_near(t.line, 6, "SAFETY") || file.comment_near(t.line, 12, "# Safety");
        if !has_safety {
            let what = describe_site(file, i);
            out.push(finding(
                "unsafe-audit",
                file,
                t.line,
                format!("{what} without an adjacent safety argument"),
                "add a `// SAFETY:` comment (or a `# Safety` doc section) stating why the invariants hold",
            ));
        }
    }

    // Rule 4: an audited file that no longer needs the exemption.
    if !any_unsafe && cfg.unsafe_audited.iter().any(|p| p == &file.path) {
        out.push(finding(
            "unsafe-audit",
            file,
            1,
            "file is listed in `unsafe_audit.audited` but contains no `unsafe`".to_string(),
            "drop the entry from `unsafe_audit.audited` in analyzer.toml",
        ));
    }
    out
}

/// Does the file carry `#![<attr>(unsafe_code)]`?
fn has_unsafe_code_attr(file: &SourceFile, attr: &str) -> bool {
    let code = &file.code;
    (0..code.len()).any(|i| {
        code[i].punct() == Some('#')
            && code.get(i + 1).and_then(|t| t.punct()) == Some('!')
            && code.get(i + 2).and_then(|t| t.punct()) == Some('[')
            && code.get(i + 3).map(|t| t.text.as_str()) == Some(attr)
            && code.get(i + 4).and_then(|t| t.punct()) == Some('(')
            && code.get(i + 5).map(|t| t.text.as_str()) == Some("unsafe_code")
    })
}

/// Human label for the construct at the `unsafe` token.
fn describe_site(file: &SourceFile, i: usize) -> &'static str {
    match file.code.get(i + 1).map(|t| t.text.as_str()) {
        Some("impl") => "`unsafe impl`",
        Some("fn") => "`unsafe fn`",
        Some("{") => "`unsafe` block",
        _ => "`unsafe`",
    }
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::engine::analyze_source;

    #[test]
    fn audited_file_needs_an_unsafe_site() {
        let audit = |path: &str, text: &str| {
            let cfg = Config {
                unsafe_audited: vec![path.to_string()],
                ..Config::default()
            };
            analyze_source(path, text, &cfg)
        };
        let stale = audit(
            "src/safe.rs",
            "//! No `unsafe` here, only the word.\npub fn peek(b: &[u8]) -> Option<u8> {\n    b.first().copied()\n}\n",
        );
        assert_eq!(stale.len(), 1, "{stale:#?}");
        assert_eq!((stale[0].lint, stale[0].line), ("unsafe-audit", 1));
        assert!(stale[0].hint.contains("drop the entry"), "{stale:#?}");

        let justified = audit(
            "src/raw.rs",
            "pub fn peek(b: &[u8]) -> u8 {\n    assert!(!b.is_empty());\n    // SAFETY: `b` is non-empty, checked above.\n    unsafe { *b.as_ptr() }\n}\n",
        );
        assert!(justified.is_empty(), "{justified:#?}");
    }
}
