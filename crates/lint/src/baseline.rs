//! The suppression baseline (`lint-baseline.txt`): the only way to silence
//! a finding, and deliberately a checked-in, reviewed file so every
//! exception is visible in code review with its justification inline.
//!
//! Format — one entry per line, `#` comments and blank lines ignored:
//!
//! ```text
//! <rule-id> <file-path> <needle>
//! ```
//!
//! An entry suppresses findings of `rule-id` in `file-path` whose message
//! contains `needle` (the message always embeds the offending source line,
//! so the needle is typically a stable fragment of that line). The needle
//! may contain spaces; an omitted needle matches any finding of that rule
//! in that file (discouraged — prefer a needle).
//!
//! **Stale entries are themselves findings**: an entry that suppresses
//! nothing fails `--deny`, so the baseline can only shrink or be edited
//! deliberately, never rot.

use crate::Finding;

#[derive(Debug, Clone)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub needle: String,
    /// 1-based line in the baseline file, for stale reporting.
    pub line_no: usize,
}

impl BaselineEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.path == f.file
            && (self.needle.is_empty() || f.message.contains(&self.needle))
    }
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    pub fn parse(text: &str) -> Baseline {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
                continue;
            };
            entries.push(BaselineEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: parts.next().unwrap_or("").trim().to_string(),
                line_no: i + 1,
            });
        }
        Baseline { entries }
    }

    /// Split findings into (kept, suppressed) and report entries that
    /// matched nothing as stale, formatted `line N: <rule> <path> <needle>`.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        for f in findings {
            let mut hit = false;
            for (i, e) in self.entries.iter().enumerate() {
                if e.matches(&f) {
                    used[i] = true;
                    hit = true;
                }
            }
            if hit {
                suppressed.push(f);
            } else {
                kept.push(f);
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| format!("line {}: {} {} {}", e.line_no, e.rule, e.path, e.needle))
            .collect();
        (kept, suppressed, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, message: &str) -> Finding {
        Finding { rule, file: file.to_string(), line: 1, message: message.to_string() }
    }

    #[test]
    fn needle_suppresses_matching_findings_only() {
        let b = Baseline::parse(
            "# comment\n\
             panic-reachability crates/parcomm/src/lib.rs expect(\"peer rank hung up\")\n",
        );
        let fs = vec![
            finding(
                "panic-reachability",
                "crates/parcomm/src/lib.rs",
                "`x.expect(\"peer rank hung up\")`",
            ),
            finding("panic-reachability", "crates/parcomm/src/lib.rs", "`y.unwrap()`"),
            finding(
                "panic-reachability",
                "crates/ckpt/src/format.rs",
                "`x.expect(\"peer rank hung up\")`",
            ),
        ];
        let (kept, suppressed, stale) = b.apply(fs);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(kept.len(), 2);
        assert!(stale.is_empty());
    }

    #[test]
    fn one_entry_may_suppress_many_findings() {
        let b = Baseline::parse("panic-reachability crates/parcomm/src/lib.rs hung up\n");
        let fs = vec![
            finding("panic-reachability", "crates/parcomm/src/lib.rs", "`a` hung up"),
            finding("panic-reachability", "crates/parcomm/src/lib.rs", "`b` hung up"),
        ];
        let (kept, suppressed, stale) = b.apply(fs);
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 2);
        assert!(stale.is_empty());
    }

    #[test]
    fn unused_entries_are_stale() {
        let b = Baseline::parse("alloc-reachability crates/solver/src/elastic.rs gone_code\n");
        let (kept, suppressed, stale) = b.apply(vec![]);
        assert!(kept.is_empty() && suppressed.is_empty());
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("gone_code"), "{}", stale[0]);
    }
}
