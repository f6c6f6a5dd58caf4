//! The workspace walk and report assembly: collect `.rs` files, run every
//! rule, and render findings as NDJSON in the same event shape
//! `quake-telemetry` emits (`{"t":...,"rank":...,"event":...}` leading
//! fields), so lint findings drop into the same trace tooling as solver
//! telemetry. `quake-lint` stays dependency-free, so the small JSON string
//! escaper is replicated here rather than imported.

use std::path::{Path, PathBuf};

use crate::rules::{all_rules, Rule};
use crate::source::SourceFile;
use crate::Finding;

/// Directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

pub struct LintReport {
    /// Every finding; any one fails `--deny`.
    pub findings: Vec<Finding>,
    pub n_files: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collect and parse every `.rs` file under the standard scan dirs,
/// skipping `target/` and hidden directories. Paths are repo-relative with
/// `/` separators; the list is sorted so reports are deterministic.
pub fn collect_files(root: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    for dir in SCAN_DIRS {
        walk(&root.join(dir), &mut paths);
    }
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            let text = std::fs::read_to_string(p).ok()?;
            Some(SourceFile::parse(&rel, text))
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Run `rules` over `files`, findings sorted by location.
pub fn apply_rules(files: &[SourceFile], rules: &mut [Box<dyn Rule>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for r in rules.iter_mut() {
            r.check(f, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Lint the workspace at `root` with the full rule set.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files = collect_files(root);
    let findings = apply_rules(&files, &mut all_rules());
    LintReport { findings, n_files: files.len() }
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — the default `--root`.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render the report as NDJSON, one `lint_finding` event per line,
/// telemetry-shaped: `t` is fixed at 0.0 (lint output is deterministic by
/// design — no wall-clock in the event stream) and `rank` at 0.
pub fn ndjson(report: &LintReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str("{\"t\":0.0,\"rank\":0,\"event\":\"lint_finding\",\"rule\":");
        escape_into(&mut s, f.rule);
        s.push_str(",\"file\":");
        escape_into(&mut s, &f.file);
        s.push_str(",\"line\":");
        s.push_str(&f.line.to_string());
        s.push_str(",\"message\":");
        escape_into(&mut s, &f.message);
        s.push_str("}\n");
    }
    s
}

/// Minimal JSON string escaping (same escape set as quake-telemetry).
fn escape_into(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_lines_are_telemetry_shaped_and_escaped() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "float-determinism",
                file: "crates/x/src/lib.rs".to_string(),
                line: 7,
                message: "`x as f64` — say \"no\"\tplease".to_string(),
            }],
            n_files: 1,
        };
        let out = ndjson(&report);
        let mut lines = out.lines();
        let l1 = lines.next().unwrap();
        assert!(l1.starts_with("{\"t\":0.0,\"rank\":0,\"event\":\"lint_finding\""));
        assert!(l1.contains("\"line\":7"));
        assert!(l1.contains("\\\"no\\\""));
        assert!(l1.contains("\\t"));
        assert!(lines.next().is_none());
    }
}
