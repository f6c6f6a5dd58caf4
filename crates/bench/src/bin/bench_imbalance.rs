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

use quake_bench::Args;
use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_solver::distributed::run_distributed;
use quake_solver::{DistConfig, ElasticConfig, ElasticSolver};
use quake_telemetry::json::chrome_trace;

/// Rank count is the host's cores, capped here: more ranks than cores would
/// time-share them, and `exchange/wait` would measure the OS scheduler.
const MAX_RANKS: usize = 4;
const TRACE_EVENTS: usize = 65536;

fn build_mesh(coarse: u8) -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    let fine = coarse + 1;
    let mut tree = LinearOctree::build(|o| o.level < coarse || (o.level < fine && o.x < half));
    tree.balance(BalanceMode::Full);
    HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

fn pulse(mesh: &HexMesh) -> (Vec<f64>, Vec<f64>) {
    let n = mesh.n_nodes();
    let mut u = vec![0.0; 3 * n];
    let v = vec![0.0; 3 * n];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
        u[3 * i + 1] = (-r2 / 2.0).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    (u, v)
}

fn main() {
    let smoke = Args::parse(&["--smoke"], &[]).flag("--smoke");
    let (coarse, steps) = if smoke { (2u8, 8usize) } else { (3, 24) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ranks = cores.min(MAX_RANKS);

    let mesh = build_mesh(coarse);
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    cfg.abc = [true, true, true, true, false, true];
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);
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
    let mut rows = String::new();
    for (i, ph) in phases.iter().enumerate() {
        let r = by(&format!("span.{ph}.secs"));
        let imb = if r.mean > 0.0 { r.max / r.mean } else { 1.0 };
        println!("{ph:<22} {:>10.6} {:>10.6} {:>10.6} {imb:>10.3}", r.min, r.mean, r.max);
        rows.push_str(&format!(
            "    {{ \"name\": \"{ph}\", \"min_secs\": {:.9}, \"mean_secs\": {:.9}, \
             \"max_secs\": {:.9}, \"imbalance\": {imb:.4} }}{}\n",
            r.min,
            r.mean,
            r.max,
            if i + 1 < phases.len() { "," } else { "" }
        ));
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"ranks\": {ranks},\n  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"n_steps\": {steps},\n"));
    json.push_str(&format!("  \"mesh_elements\": {},\n", mesh.n_elements()));
    json.push_str(&format!("  \"mesh_nodes\": {},\n", mesh.n_nodes()));
    json.push_str(&format!(
        "  \"elements_per_rank\": [{}],\n",
        run.elements.iter().map(|e| e.len().to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!(
        "  \"exchange_volumes\": [{}],\n",
        run.volumes.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!("  \"imbalance_gauge_last_step\": {:.4},\n", gauge.mean));
    json.push_str(&format!("  \"imbalance_per_step_mean\": {per_step_mean:.4},\n"));
    json.push_str(&format!("  \"imbalance_per_step_p99\": {per_step_p99:.4},\n"));
    json.push_str("  \"phases\": [\n");
    json.push_str(&rows);
    json.push_str("  ],\n");
    json.push_str("  \"trace\": \"target/BENCH_imbalance_trace.json\"\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let _ = std::fs::create_dir_all(format!("{root}/target"));
    let trace_path = format!("{root}/target/BENCH_imbalance_trace.json");
    std::fs::write(&trace_path, &trace_json).expect("write Chrome trace");
    println!("\nwrote {trace_path}");
    if smoke {
        println!("\n{json}");
        println!("smoke mode: committed JSON not written");
    } else {
        let jp = format!("{root}/BENCH_imbalance.json");
        std::fs::write(&jp, &json).expect("write BENCH_imbalance.json");
        println!("wrote {jp}");
    }
}
