//! The quake-lint CLI.
//!
//! ```text
//! quake-lint [--root DIR] [--deny] [--ndjson FILE] [--list-rules]
//!            [--stats] [--budget-ms N]
//! ```
//!
//! - `--root DIR`: workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`).
//! - `--deny`: exit nonzero if any unsuppressed finding OR stale baseline
//!   entry exists — the CI mode.
//! - `--ndjson FILE`: also write every finding (suppressed included) and
//!   stale-baseline event as NDJSON, telemetry-shaped.
//! - `--list-rules`: print the rule table and exit.
//! - `--stats`: print the call-graph resolution buckets and the resolution
//!   rate; with `--deny`, a rate below 95% fails (an analyzer that lost
//!   track of the workspace's call sites gives false confidence).
//! - `--budget-ms N`: fail if the whole lint run (IO + parse + rules) took
//!   longer than N milliseconds — the CI wall-clock budget for the lint
//!   job, so the analyzer never becomes the slow step.
//!
//! `lint-baseline.txt` is read from the root.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use quake_lint::rules::all_rules;
use quake_lint::{discover_root, lint_workspace, ndjson};

/// Minimum call-site resolution rate under `--deny --stats`.
const MIN_RESOLUTION_RATE: f64 = 0.95;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut ndjson_path: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut stats = false;
    let mut budget_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--deny" => deny = true,
            "--ndjson" => ndjson_path = args.next().map(PathBuf::from),
            "--list-rules" => list_rules = true,
            "--stats" => stats = true,
            "--budget-ms" => {
                budget_ms = match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => Some(v),
                    None => {
                        eprintln!("quake-lint: --budget-ms needs an integer argument");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: quake-lint [--root DIR] [--deny] [--ndjson FILE] [--list-rules] \
                     [--stats] [--budget-ms N]"
                );
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

    let t0 = Instant::now();
    let report = lint_workspace(&root);
    let elapsed_ms = t0.elapsed().as_millis() as u64;

    if let Some(path) = &ndjson_path {
        if let Err(e) = std::fs::write(path, ndjson(&report)) {
            eprintln!("quake-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for f in &report.findings {
        println!("{}", f.render());
    }
    for e in &report.stale_baseline {
        println!("lint-baseline.txt {e}: stale suppression (matches no finding) — delete it");
    }
    println!(
        "quake-lint: {} finding(s), {} suppressed by lint-baseline.txt, {} stale \
         suppression(s) ({} files)",
        report.findings.len(),
        report.suppressed.len(),
        report.stale_baseline.len(),
        report.n_files,
    );

    let mut failed = deny && !report.clean();

    if stats {
        let s = &report.stats;
        println!("call graph: {} fns ({} test), {} edges", s.n_functions, s.n_test_fns, s.n_edges);
        println!(
            "call sites: {} total = {} resolved + {} external + {} constructors + {} \
             annotated cuts + {} unresolved",
            s.n_sites, s.resolved, s.external, s.constructors, s.annotated_cuts, s.unresolved,
        );
        println!("resolution rate: {:.1}%", s.resolution_rate() * 100.0);
        if deny && s.resolution_rate() < MIN_RESOLUTION_RATE {
            eprintln!(
                "quake-lint: resolution rate {:.1}% below the {:.0}% floor — the \
                 interprocedural rules are flying blind",
                s.resolution_rate() * 100.0,
                MIN_RESOLUTION_RATE * 100.0,
            );
            failed = true;
        }
    }

    if let Some(budget) = budget_ms {
        println!("wall clock: {elapsed_ms} ms (budget {budget} ms)");
        if elapsed_ms > budget {
            eprintln!("quake-lint: run took {elapsed_ms} ms, over the {budget} ms budget");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
