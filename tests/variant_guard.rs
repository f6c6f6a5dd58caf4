//! Guard against the run-variant explosion creeping back.
//!
//! Every public `run_*` entry point delegates to the one `SolverHarness`
//! step loop. This test reads the library sources (`crates/*/src` and
//! `src`) as plain text and fails on any `pub fn run_*` outside the
//! allowlist below. A line counts when its trimmed text starts with
//! `pub fn run_`, so a doc comment or a string literal quoting one does not.
//! Add an allowlist entry only for a genuinely new *workflow* — new
//! combinations of behavior belong in `RunConfig` + `StepHook`s.

use std::path::{Path, PathBuf};

/// (file, allowed names). No wildcards: a second step loop in the harness
/// module itself needs a reviewed allowlist diff like anywhere else.
const ALLOWED: &[(&str, &[&str])] = &[
    ("crates/parcomm/src/lib.rs", &["run_spmd"]),
    ("crates/solver/src/harness.rs", &["run_grouped", "run_to_state", "run_simulation"]),
    ("crates/solver/src/distributed.rs", &["run_distributed", "run_distributed_recoverable"]),
    ("crates/solver/src/tet.rs", &["run_to_state"]),
    ("crates/core/src/forward.rs", &["run_forward"]),
    ("crates/serve/src/exec.rs", &["run_scenario"]),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_new_public_run_variants_outside_the_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();

    let mut seen = Vec::new();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        let allowed = ALLOWED.iter().find(|(f, _)| *f == rel).map_or(&[][..], |(_, names)| names);
        for (i, line) in std::fs::read_to_string(path).unwrap().lines().enumerate() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else { continue };
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.starts_with("run_") {
                continue;
            }
            if allowed.contains(&name.as_str()) {
                seen.push((rel.clone(), name));
            } else {
                findings.push(format!("{rel}:{}: pub fn {name}", i + 1));
            }
        }
    }

    // Every allowlisted entry point must still exist, so deleting one also
    // deletes its entry, and the scan provably reads the files it names.
    let stale: Vec<String> = ALLOWED
        .iter()
        .flat_map(|(file, names)| names.iter().map(move |name| (*file, *name)))
        .filter(|&(file, name)| !seen.iter().any(|(f, n)| f == file && n == name))
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    assert!(stale.is_empty(), "allowlisted entry points not found:\n{}", stale.join("\n"));
    let expected: usize = ALLOWED.iter().map(|(_, names)| names.len()).sum();
    assert_eq!(seen.len(), expected, "an allowlisted entry point is defined twice: {seen:?}");
    assert!(
        findings.is_empty(),
        "new public run_* variant(s) outside the harness — route them through \
         SolverHarness/RunConfig instead:\n{}",
        findings.join("\n")
    );
}
