//! quake-lint: std-only static analysis for the workspace's unwritten
//! contracts.
//!
//! The terascale claims this codebase reproduces rest on invariants the
//! compiler cannot see: the element kernels must stay allocation-free and
//! bit-deterministic (PR 1's steady-state guarantee, the harness property
//! tests' bit-identity pins), and the comm/recovery layer must never panic
//! mid-exchange now that `CommError` is the only legitimate failure signal
//! (PR 3). This crate makes those conventions machine-checked:
//!
//! - its own lightweight [`lexer`] (nested comments, raw/byte strings,
//!   char-vs-lifetime) so rules match token streams, never raw text;
//! - an [`items`] layer parsing the token streams into an item tree (fn
//!   definitions, impl/trait owners, call sites), an interprocedural
//!   [`callgraph`] resolved by shape + qualifier + arity, and a [`reach`]
//!   engine that walks it with witness paths;
//! - a [`rules`] engine with four invariant rules — the token-level
//!   `harness-allowlist` and `float-determinism`, and the interprocedural
//!   `alloc-reachability` and `panic-reachability` (whose depth 0 is the
//!   marked region / root file itself);
//! - findings as NDJSON in the quake-telemetry event shape ([`engine`]);
//! - a reviewed suppression file, `lint-baseline.txt` ([`baseline`]),
//!   whose stale entries are themselves failures;
//! - a `--deny` CLI for CI (`cargo run -p quake-lint -- --deny`), with
//!   `--stats` (call-graph resolution buckets) and `--budget-ms` (wall-
//!   clock gate) for the lint CI job.
//!
//! See DESIGN.md "Static analysis" and "Interprocedural analysis" for the
//! rule table and the policy on suppressions, markers, and the ledger.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod source;

pub use baseline::Baseline;
pub use callgraph::{CallGraph, GraphStats};
pub use engine::{collect_files, discover_root, lint_workspace, ndjson, LintReport};
pub use items::ItemTree;
pub use source::SourceFile;

/// One rule violation at one source location. The message embeds the
/// offending source line, which is what baseline needles match against.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based.
    pub line: u32,
    pub message: String,
}

impl Finding {
    /// Human-readable one-liner: `path:line: [rule] message`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}
