//! The quake-lint CLI.
//!
//! ```text
//! quake-lint [--root DIR] [--deny] [--ndjson FILE] [--list-rules]
//! ```
//!
//! - `--root DIR`: workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`).
//! - `--deny`: exit nonzero if any finding exists — the CI mode.
//! - `--ndjson FILE`: also write every finding as NDJSON, telemetry-shaped.
//! - `--list-rules`: print the rule table and exit.

use std::path::PathBuf;
use std::process::ExitCode;

use quake_lint::rules::all_rules;
use quake_lint::{discover_root, lint_workspace, ndjson};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut ndjson_path: Option<PathBuf> = None;
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--deny" => deny = true,
            "--ndjson" => ndjson_path = args.next().map(PathBuf::from),
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                eprintln!("usage: quake-lint [--root DIR] [--deny] [--ndjson FILE] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("quake-lint: unknown argument `{other}` (see --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if list_rules {
        for r in all_rules() {
            println!("{:<22} {}", r.id(), r.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| discover_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("quake-lint: no workspace root found (pass --root)");
            return ExitCode::FAILURE;
        }
    };

    let report = lint_workspace(&root);

    if let Some(path) = &ndjson_path {
        if let Err(e) = std::fs::write(path, ndjson(&report)) {
            eprintln!("quake-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for f in &report.findings {
        println!("{}", f.render());
    }
    println!("quake-lint: {} finding(s) ({} files)", report.findings.len(), report.n_files);

    if deny && !report.clean() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
