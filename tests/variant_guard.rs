//! Guard against the run-variant explosion creeping back.
//!
//! The logic lives in quake-lint's `harness-allowlist` rule (one place,
//! token-based, shared with `cargo run -p quake-lint -- --deny` in CI);
//! this test is the thin tier-1 wrapper that runs just that rule over the
//! real tree. Add an allowlist entry (in
//! `crates/lint/src/rules/harness_allowlist.rs`) only for a genuinely new
//! *workflow* — new combinations of behavior belong in `RunConfig` +
//! `StepHook`s.

use std::path::Path;

use quake_lint::rules::{HarnessAllowlist, Rule};

#[test]
fn no_new_public_run_variants_outside_the_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = quake_lint::collect_files(root);
    assert!(!files.is_empty(), "source scan found nothing — wrong root?");

    let mut rule = HarnessAllowlist::default();
    let mut findings = Vec::new();
    for f in &files {
        rule.check(f, &mut findings);
    }

    // The allowlist names 10 entry points; all of them must be seen.
    assert!(rule.seen >= 10, "the scan no longer sees the known entry points ({})", rule.seen);
    assert!(
        findings.is_empty(),
        "new public run_* variant(s) outside the harness — route them through \
         SolverHarness/RunConfig instead:\n{}",
        findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
}
