//! The acceptance gate, enforced by `cargo test` itself: the real
//! workspace must lint clean. This is the same check CI's
//! `cargo run -p quake-lint -- --deny` performs, run as a tier-1 test so a
//! regression cannot land even when CI config is skipped.

use std::path::Path;

use quake_lint::lint_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").exists(), "bad root: {}", root.display());
    let report = lint_workspace(root);

    assert!(report.n_files > 40, "scan collapsed: only {} files seen", report.n_files);
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report.findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn hot_path_regions_exist_where_the_guarantees_live() {
    // float-determinism looks only inside annotated regions, so it is
    // vacuous without them; pin the files that must carry them.
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
