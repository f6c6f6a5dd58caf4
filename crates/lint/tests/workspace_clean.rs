//! The acceptance gate, enforced by `cargo test` itself: the real
//! workspace must lint clean — zero unsuppressed findings AND zero stale
//! baseline entries — with the checked-in `lint-baseline.txt`. This is the
//! same check CI's `cargo run -p quake-lint -- --deny` performs, run as a
//! tier-1 test so a regression cannot land even when CI config is skipped.

use std::path::Path;

use quake_lint::lint_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_lints_clean_under_the_checked_in_baseline() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").exists(), "bad root: {}", root.display());
    let report = lint_workspace(root);

    assert!(report.n_files > 40, "scan collapsed: only {} files seen", report.n_files);
    assert!(
        report.findings.is_empty(),
        "unsuppressed lint findings:\n{}",
        report.findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale lint-baseline.txt entries:\n{}",
        report.stale_baseline.join("\n")
    );
}

#[test]
fn baseline_suppressions_stay_few_and_deliberate() {
    // The baseline is an exception list, not a dumping ground. If either
    // number needs to grow, the new entry needs a written justification in
    // lint-baseline.txt — and scrutiny in review. Two entries remain,
    // covering three sites: parcomm's fail-stop `send`/`recv` (whose panic
    // IS the documented contract) and `run_spmd`'s thread join. A new
    // fail-stop wrapper reusing the same message would be a fourth.
    let root = workspace_root();
    let report = lint_workspace(root);
    assert!(
        report.suppressed.len() <= 3,
        "baseline now suppresses {} findings — trim it",
        report.suppressed.len()
    );
    let baseline = std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let entries = baseline
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();
    assert!(entries <= 2, "lint-baseline.txt has {entries} entries — the cap is 2");
}

#[test]
fn call_graph_resolution_stays_above_the_floor() {
    // The reachability rules are only as good as the graph under them: if
    // resolution decays, transitive guarantees silently shrink. Same floor
    // the CLI enforces under `--deny --stats`.
    let report = lint_workspace(workspace_root());
    let rate = report.stats.resolution_rate();
    assert!(
        rate >= 0.95,
        "call-graph resolution rate {:.1}% fell below the 95% floor ({} unresolved of {})",
        rate * 100.0,
        report.stats.unresolved,
        report.stats.n_sites
    );
    assert!(report.stats.n_functions > 500, "item tree collapsed: {:?}", report.stats);
    assert!(report.stats.n_edges > 1000, "call graph collapsed: {:?}", report.stats);
}

#[test]
fn hot_path_regions_exist_where_the_guarantees_live() {
    // The alloc-reachability and float-determinism rules are vacuous
    // without annotated regions; pin the files that must carry them.
    let files = quake_lint::collect_files(workspace_root());
    for expected in [
        "crates/solver/src/elastic.rs",
        "crates/solver/src/sweep.rs",
        "crates/solver/src/abc.rs",
        "crates/mesh/src/hexmesh.rs",
        "crates/fem/src/hex8.rs",
        "crates/serve/src/exec.rs",
    ] {
        let f = files.iter().find(|f| f.path == expected);
        assert!(f.is_some_and(|f| f.has_hot_region()), "{expected} lost its lint:hot-path region");
    }
}
