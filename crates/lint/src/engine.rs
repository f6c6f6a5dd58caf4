//! The workspace walk and report assembly: collect `.rs` files, run every
//! rule, apply the baseline, and render findings as NDJSON in the same
//! event shape `quake-telemetry` emits (`{"t":...,"rank":...,"event":...}`
//! leading fields), so lint findings drop into the same trace tooling as
//! solver telemetry. `quake-lint` stays dependency-free, so the small JSON
//! string escaper is replicated here rather than imported.

use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::callgraph::{CallGraph, GraphStats};
use crate::items::ItemTree;
use crate::rules::{all_rules, Rule, WorkspaceCtx};
use crate::source::SourceFile;
use crate::Finding;

/// Directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

pub struct LintReport {
    /// Findings not covered by the baseline — these fail `--deny`.
    pub findings: Vec<Finding>,
    /// Findings covered by a baseline entry (still reported in NDJSON).
    pub suppressed: Vec<Finding>,
    /// Baseline entries that matched nothing — these also fail `--deny`.
    pub stale_baseline: Vec<String>,
    pub n_files: usize,
    /// Call-graph resolution counters from the interprocedural pass.
    pub stats: GraphStats,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_baseline.is_empty()
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

/// Run `rules` over `files` (per-file checks, then the workspace `finish`
/// pass over the item tree + call graph), sorted by location. Returns the
/// findings alongside the call-graph resolution stats.
pub fn apply_rules(
    files: &[SourceFile],
    rules: &mut [Box<dyn Rule>],
) -> (Vec<Finding>, GraphStats) {
    let mut out = Vec::new();
    for f in files {
        for r in rules.iter_mut() {
            r.check(f, &mut out);
        }
    }
    let items = ItemTree::build(files);
    let graph = CallGraph::build(&items);
    let stats = graph.stats;
    let ctx = WorkspaceCtx { files, items: &items, graph: &graph };
    for r in rules.iter_mut() {
        r.finish(&ctx, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (out, stats)
}

/// Lint the workspace at `root` with the full rule set, reading
/// `lint-baseline.txt` from the root if present.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files = collect_files(root);
    let baseline = std::fs::read_to_string(root.join("lint-baseline.txt")).ok();
    let mut rules = all_rules();
    let (findings, stats) = apply_rules(&files, &mut rules);
    let baseline = Baseline::parse(baseline.as_deref().unwrap_or(""));
    let (findings, suppressed, stale_baseline) = baseline.apply(findings);
    LintReport { findings, suppressed, stale_baseline, n_files: files.len(), stats }
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

/// Render the report as NDJSON, one event per line, telemetry-shaped:
/// `t` is fixed at 0.0 (lint output is deterministic by design — no
/// wall-clock in the event stream) and `rank` at 0.
pub fn ndjson(report: &LintReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        finding_line(&mut s, f, false);
    }
    for f in &report.suppressed {
        finding_line(&mut s, f, true);
    }
    for e in &report.stale_baseline {
        s.push_str("{\"t\":0.0,\"rank\":0,\"event\":\"lint_stale_suppression\",\"entry\":");
        escape_into(&mut s, e);
        s.push_str("}\n");
    }
    s
}

fn finding_line(s: &mut String, f: &Finding, suppressed: bool) {
    s.push_str("{\"t\":0.0,\"rank\":0,\"event\":\"lint_finding\",\"rule\":");
    escape_into(s, f.rule);
    s.push_str(",\"file\":");
    escape_into(s, &f.file);
    s.push_str(",\"line\":");
    s.push_str(&f.line.to_string());
    s.push_str(",\"suppressed\":");
    s.push_str(if suppressed { "true" } else { "false" });
    s.push_str(",\"message\":");
    escape_into(s, &f.message);
    s.push_str("}\n");
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
                rule: "panic-reachability",
                file: "crates/x/src/lib.rs".to_string(),
                line: 7,
                message: "`x.expect(\"boom\")` — say \"no\"\tplease".to_string(),
            }],
            suppressed: vec![],
            stale_baseline: vec!["line 3: rule path needle".to_string()],
            n_files: 1,
            stats: GraphStats::default(),
        };
        let out = ndjson(&report);
        let mut lines = out.lines();
        let l1 = lines.next().unwrap();
        assert!(l1.starts_with("{\"t\":0.0,\"rank\":0,\"event\":\"lint_finding\""));
        assert!(l1.contains("\"line\":7"));
        assert!(l1.contains("\\\"boom\\\""));
        assert!(l1.contains("\\t"));
        assert!(l1.contains("\"suppressed\":false"));
        let l2 = lines.next().unwrap();
        assert!(l2.contains("lint_stale_suppression"));
        assert!(lines.next().is_none());
    }
}
