//! **harness-allowlist** — guard against the run-variant explosion PR 4
//! collapsed. Every public `run_*` entry point must delegate to the one
//! `SolverHarness` step loop; a new `pub fn run_*` outside the allowlist is
//! a finding. Add an entry only for a genuinely new *workflow* — new
//! combinations of behavior belong in `RunConfig` + `StepHook`s.
//!
//! This rule absorbs the grep that used to live in `tests/variant_guard.rs`
//! (that test is now a thin wrapper over this rule). Unlike the grep, a
//! `pub fn run_*` quoted in a doc comment or string no longer trips it.

use super::Rule;
use crate::source::SourceFile;
use crate::Finding;

/// (file, allowed names). No wildcards: a second step loop in the harness
/// module itself needs a reviewed allowlist diff like anywhere else.
pub const ALLOWED: &[(&str, &[&str])] = &[
    ("crates/parcomm/src/lib.rs", &["run_spmd"]),
    (
        "crates/solver/src/harness.rs",
        &["run_with_scratch", "run_grouped", "run_to_state", "run_simulation"],
    ),
    ("crates/solver/src/distributed.rs", &["run_distributed", "run_distributed_recoverable"]),
    ("crates/solver/src/tet.rs", &["run_to_state"]),
    ("crates/core/src/forward.rs", &["run_forward"]),
    ("crates/serve/src/exec.rs", &["run_scenario"]),
];

#[derive(Default)]
pub struct HarnessAllowlist {
    /// How many `pub fn run_*` definitions the scan saw, allowed or not.
    /// `tests/variant_guard.rs` asserts this stays ≥ the known entry-point
    /// count, so a broken scan cannot silently pass.
    pub seen: usize,
}

impl Rule for HarnessAllowlist {
    fn id(&self) -> &'static str {
        "harness-allowlist"
    }

    fn description(&self) -> &'static str {
        "no pub fn run_* outside the SolverHarness allowlist"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Finding>) {
        // Same scope as the original guard: library code only.
        if !(file.path.starts_with("crates/") || file.path.starts_with("src/")) {
            return;
        }
        let code = file.code_indices();
        for w in code.windows(3) {
            let (a, b, c) = (&file.tokens[w[0]], &file.tokens[w[1]], &file.tokens[w[2]]);
            if file.tok_text(a) != "pub" || file.tok_text(b) != "fn" {
                continue;
            }
            let name = file.tok_text(c);
            if !name.starts_with("run_") {
                continue;
            }
            self.seen += 1;
            let ok = ALLOWED.iter().any(|(f, names)| *f == file.path && names.contains(&name));
            if !ok {
                out.push(Finding {
                    rule: self.id(),
                    file: file.path.clone(),
                    line: c.line,
                    message: format!(
                        "`pub fn {name}` outside the SolverHarness allowlist — route new \
                         workflows through SolverHarness/RunConfig + StepHooks, or add a \
                         reviewed allowlist entry"
                    ),
                });
            }
        }
    }
}
