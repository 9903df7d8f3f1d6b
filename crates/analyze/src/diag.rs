//! Diagnostics: the violation record plus human and JSON renderers.
//!
//! Every diagnostic carries the same schema across all rule families:
//! `rule`, `file`, `line`, `message`, `suggestion`, and `path` — the call
//! chain from an analysis root to the offending site. Per-site rules
//! (lexical lints, manifest lints) have an empty `path`; the call-graph
//! families (`determinism-taint`, `panic-reach`)
//! populate it so a violation is actionable without re-running the
//! analysis: the chain names every function between the public surface
//! and the sink.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Rule identifier (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 when the finding is file-scoped).
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to annotate an audited exception).
    pub suggestion: String,
    /// Call chain from an analysis root to the offending site, outermost
    /// first (empty for per-site rules).
    pub path: Vec<String>,
}

impl Diag {
    /// A per-site diagnostic (no call chain).
    pub fn site(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Diag {
        Diag {
            rule,
            file: file.into(),
            line,
            message: message.into(),
            suggestion: suggestion.into(),
            path: Vec::new(),
        }
    }

    /// Attach a root→sink call chain.
    #[must_use]
    pub fn with_path(mut self, path: Vec<String>) -> Diag {
        self.path = path;
        self
    }

    /// Sort key: file, then line, then rule.
    pub fn key(&self) -> (String, u32, &'static str) {
        (self.file.clone(), self.line, self.rule)
    }
}

/// Render diagnostics for humans: `file:line: [rule] message` plus an
/// indented `help:` line (and, for call-graph findings, the root→sink
/// chain), then a summary.
pub fn render_human(diags: &[Diag], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
        if !d.path.is_empty() {
            let _ = writeln!(out, "    path: {}", d.path.join(" -> "));
        }
        if !d.suggestion.is_empty() {
            let _ = writeln!(out, "    help: {}", d.suggestion);
        }
    }
    if diags.is_empty() {
        let _ = writeln!(
            out,
            "clic-analyze: {files_scanned} files scanned, no violations"
        );
    } else {
        let _ = writeln!(
            out,
            "clic-analyze: {files_scanned} files scanned, {} violation{}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Render one diagnostic as a JSON object (no trailing newline). The field
/// set is identical for every rule family; `path` is `[]` when the rule is
/// per-site.
pub fn render_json_diag(d: &Diag) -> String {
    let path_items: Vec<String> = d
        .path
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    format!(
        "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
         \"message\": \"{}\", \"path\": [{}], \"suggestion\": \"{}\"}}",
        escape(d.rule),
        escape(&d.file),
        d.line,
        escape(&d.message),
        path_items.join(", "),
        escape(&d.suggestion)
    )
}

/// Render diagnostics as a machine-readable JSON document.
pub fn render_json(diags: &[Diag], files_scanned: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"violations\": {},", diags.len());
    out.push_str("  \"diagnostics\": [\n");
    let rows: Vec<String> = diags
        .iter()
        .map(|d| format!("    {}", render_json_diag(d)))
        .collect();
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diag> {
        vec![Diag::site(
            "no-unwrap",
            "crates/core/src/module.rs",
            7,
            "`.unwrap()` in non-test library code",
            "return a typed error",
        )]
    }

    #[test]
    fn human_output_has_location_and_summary() {
        let s = render_human(&sample(), 3);
        assert!(s.contains("crates/core/src/module.rs:7: [no-unwrap]"));
        assert!(s.contains("help: return a typed error"));
        assert!(s.contains("3 files scanned, 1 violation\n"));
    }

    #[test]
    fn human_output_shows_call_path() {
        let d = sample().remove(0).with_path(vec![
            "core::ClicModule::post".to_string(),
            "os::Kernel::tick".to_string(),
        ]);
        let s = render_human(&[d], 1);
        assert!(s.contains("path: core::ClicModule::post -> os::Kernel::tick"));
    }

    #[test]
    fn clean_run_summary() {
        let s = render_human(&[], 10);
        assert!(s.contains("no violations"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let s = render_json(&sample(), 3);
        assert!(s.contains("\"files_scanned\": 3"));
        assert!(s.contains("\"violations\": 1"));
        assert!(s.contains("\"rule\": \"no-unwrap\""));
        // Every diagnostic carries the full schema, path included.
        assert!(s.contains("\"path\": []"));
        // Balanced braces/brackets (cheap structural check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn json_path_is_an_array_of_strings() {
        let d = sample()
            .remove(0)
            .with_path(vec!["a::b".to_string(), "c::d".to_string()]);
        let s = render_json(&[d], 1);
        assert!(s.contains("\"path\": [\"a::b\", \"c::d\"]"));
    }

    #[test]
    fn json_escapes_specials() {
        let mut d = sample();
        d[0].message = "quote \" backslash \\ newline \n".into();
        let s = render_json(&d, 1);
        assert!(s.contains("quote \\\" backslash \\\\ newline \\n"));
    }
}
