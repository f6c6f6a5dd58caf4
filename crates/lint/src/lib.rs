//! quake-lint: std-only static analysis for the workspace's unwritten
//! contracts.
//!
//! Two conventions the compiler cannot see can be checked on tokens alone:
//! every public `run_*` entry point delegates to the one `SolverHarness`
//! step loop (PR 4's collapse of the run variants), and the numerical
//! kernels stay bit-deterministic (the harness property tests' bit-identity
//! pins). This crate checks both:
//!
//! - its own lightweight [`lexer`] (nested comments, raw/byte strings,
//!   char-vs-lifetime) so rules match token streams, never raw text;
//! - a [`rules`] engine with two token rules, `harness-allowlist` and
//!   `float-determinism`;
//! - findings as NDJSON in the quake-telemetry event shape ([`engine`]);
//! - a `--deny` CLI for CI (`cargo run -p quake-lint -- --deny`).
//!
//! Allocation-free stepping and panic-free decoding are measured instead
//! of linted: the root `tests/alloc_free.rs` counts allocations per step
//! and feeds every on-disk decoder damaged bytes. See DESIGN.md "Static
//! analysis".

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{collect_files, discover_root, lint_workspace, ndjson, LintReport};
pub use source::SourceFile;

/// One rule violation at one source location. The message embeds the
/// offending source line.
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
