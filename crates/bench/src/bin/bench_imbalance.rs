//! Cross-rank load-imbalance and comm-wait attribution benchmark.
//!
//! Runs the rank-parallel elastic solver with per-rank flight recorders on a
//! multiresolution mesh (the production configuration: hanging nodes cross
//! partition boundaries, absorbing boundaries on) and reports *where the
//! time goes across ranks*:
//!
//! - the min/max/mean-across-ranks reduction of every shared phase span
//!   (the per-phase load-imbalance view of the paper's scaling tables),
//! - the timed exchange's `wait` vs `copy` split — blocked-on-peer time
//!   attributed separately from pack/unpack time, per rank,
//! - the per-step `imbalance` gauge (max/mean of the element-phase time
//!   across ranks, 1.0 = perfectly balanced) recorded by the solver's
//!   `ImbalanceHook`,
//! - one merged Chrome `trace_event` timeline with a track per rank
//!   (`target/BENCH_imbalance_trace.json` — open in Perfetto or
//!   chrome://tracing), where the cross-rank skew is visible because all
//!   ranks share one trace epoch.
//!
//! The full run writes `BENCH_imbalance.json` at the repo root; `--smoke`
//! (CI) runs a smaller mesh and prints the JSON to stdout instead. Both
//! modes write the merged Chrome trace and exit nonzero if the timeline is
//! malformed (missing rank tracks or missing wait/copy slices).

use quake_bench::{half_refined_mesh, shear_pulse, write_report, Args, REPO_ROOT};
use quake_solver::distributed::run_distributed;
use quake_solver::{DistConfig, ElasticConfig, ElasticSolver};
use quake_telemetry::json::{chrome_trace, Json};

/// Rank count is the host's cores, capped here: more ranks than cores would
/// time-share them, and `exchange/wait` would measure the OS scheduler.
const MAX_RANKS: usize = 4;
const TRACE_EVENTS: usize = 65536;

fn main() {
    let smoke = Args::parse(&["--smoke"], &[]).flag("--smoke");
    let (coarse, steps) = if smoke { (2u8, 8usize) } else { (3, 24) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ranks = cores.min(MAX_RANKS);

    let mesh = half_refined_mesh(coarse);
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    cfg.abc = [true, true, true, true, false, true];
    let solver = ElasticSolver::new(&mesh, &cfg);
    let u0 = shear_pulse(&mesh, 8.0);
    let v0 = vec![0.0; u0.len()];
    println!(
        "mesh: {} elements / {} nodes ({} hanging), {ranks} ranks ({cores} cores) x {steps} steps",
        mesh.n_elements(),
        mesh.n_nodes(),
        mesh.n_hanging()
    );

    let run = run_distributed(
        &solver,
        &DistConfig::new(ranks, steps).with_initial(&u0, &v0).with_trace(TRACE_EVENTS),
    );

    // ---- acceptance: the merged timeline is well-formed ----
    assert_eq!(run.traces.len(), ranks, "one flight recorder per rank");
    for (rank, buf) in run.traces.iter().enumerate() {
        let count = |n: &str| buf.events.iter().filter(|e| e.name == n).count();
        assert_eq!(count("step"), steps, "rank {rank}: step slices");
        assert_eq!(count("step/exchange/wait"), steps, "rank {rank}: wait slices");
        assert_eq!(count("step/exchange/copy"), steps, "rank {rank}: copy slices");
    }
    let trace_json = chrome_trace(&run.traces);
    for rank in 0..ranks {
        assert!(trace_json.contains(&format!("\"rank {rank}\"")), "missing track for rank {rank}");
    }

    // ---- per-phase imbalance from the cross-rank reduction ----
    let by = |n: &str| {
        run.reduced
            .iter()
            .find(|r| r.name == n)
            .unwrap_or_else(|| panic!("missing reduced metric {n}"))
    };
    let phases = [
        "step",
        "step/fill",
        "step/elements",
        "step/abc",
        "step/fold",
        "step/exchange",
        "step/exchange/wait",
        "step/exchange/copy",
        "step/tail",
    ];
    println!("\nper-phase wall time across ranks (secs; imbalance = max/mean):");
    println!("{:<22} {:>10} {:>10} {:>10} {:>10}", "phase", "min", "mean", "max", "imbalance");
    let mut rows = Vec::new();
    for ph in phases {
        let r = by(&format!("span.{ph}.secs"));
        let imb = if r.mean > 0.0 { r.max / r.mean } else { 1.0 };
        println!("{ph:<22} {:>10.6} {:>10.6} {:>10.6} {imb:>10.3}", r.min, r.mean, r.max);
        rows.push(Json::obj([
            ("name", ph.into()),
            ("min_secs", r.min.into()),
            ("mean_secs", r.mean.into()),
            ("max_secs", r.max.into()),
            ("imbalance", imb.into()),
        ]));
    }
    let gauge = by("gauge.imbalance");
    // Histogram quantiles do not reduce across ranks, but the imbalance
    // value is computed from a collective and is identical on every rank:
    // rank 0's snapshot speaks for all.
    let snap = &run.snapshots[0];
    let per_step_mean = snap.get("hist.imbalance.mean").expect("hist.imbalance.mean");
    let per_step_p99 = snap.get("hist.imbalance.p99").expect("hist.imbalance.p99");
    println!(
        "\nimbalance gauge (element phase, last step): {:.3}; per-step mean {:.3}, p99 {:.3}",
        gauge.mean, per_step_mean, per_step_p99
    );

    let json = Json::obj([
        ("ranks", ranks.into()),
        ("host_cores", cores.into()),
        ("n_steps", steps.into()),
        ("mesh_elements", mesh.n_elements().into()),
        ("mesh_nodes", mesh.n_nodes().into()),
        ("elements_per_rank", Json::arr(run.elements.iter().map(Vec::len))),
        ("exchange_volumes", Json::arr(run.volumes.iter().copied())),
        ("imbalance_gauge_last_step", gauge.mean.into()),
        ("imbalance_per_step_mean", per_step_mean.into()),
        ("imbalance_per_step_p99", per_step_p99.into()),
        ("phases", Json::Arr(rows)),
        ("trace", "target/BENCH_imbalance_trace.json".into()),
    ]);

    let _ = std::fs::create_dir_all(format!("{REPO_ROOT}/target"));
    let trace_path = format!("{REPO_ROOT}/target/BENCH_imbalance_trace.json");
    std::fs::write(&trace_path, &trace_json).expect("write Chrome trace");
    println!("\nwrote {trace_path}");
    write_report("BENCH_imbalance.json", &json, smoke);
}
