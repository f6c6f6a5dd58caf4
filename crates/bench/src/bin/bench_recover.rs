//! Kill-and-resume demonstration of the checkpoint/recovery subsystem.
//!
//! Runs the rank-parallel elastic solver three times on a multiresolution
//! mesh (hanging nodes cross the partition boundaries, absorbing boundaries
//! on — the production configuration):
//!
//! 1. **baseline** — an unfaulted `run_distributed`, the ground truth,
//! 2. **kill-and-recover** — the recovery supervisor with a scripted
//!    `FaultPlan::kill` that takes one rank down mid-run. The dead rank's
//!    neighbors observe the failure through the communication fabric (no
//!    barrier, no timeout), the supervisor restores every rank from the last
//!    consistent checkpoint line and relaunches. The run must finish within
//!    **one** retry and reproduce the baseline **bit-identically** on every
//!    node each rank's elements touch,
//! 3. **corrupted-checkpoint** — the newest checkpoint of rank 0 is bit-
//!    flipped on disk; a fresh supervisor run must detect the bad CRC, drop
//!    the whole (now inconsistent) newest restore line, restart from the
//!    previous valid one, and still match the baseline bit-for-bit.
//!
//! Prints a JSON summary to stdout, dumps the supervisor telemetry (restore
//! spans, `recover_attempt` events, skip counters) to
//! `target/BENCH_recover_trace.ndjson`, and exits nonzero if any of the
//! three acceptance checks fails — CI runs this as the `recover` job.

use std::path::PathBuf;

use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_parcomm::FaultPlan;
use quake_solver::distributed::run_distributed;
use quake_solver::{
    run_distributed_recoverable, DistConfig, ElasticConfig, ElasticSolver, RecoveryConfig,
};
use quake_telemetry::Registry;

const RANKS: usize = 4;
const STEPS: usize = 12;
const CKPT_EVERY: u64 = 4;
const KILL_RANK: usize = 2;
const KILL_STEP: u64 = 7;

fn build_mesh() -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    let mut tree = LinearOctree::build(|o| o.level < 2 || (o.level < 3 && o.x < half));
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

/// Max |difference| against the baseline on the nodes each rank touches,
/// over raw bit equality: returns the number of mismatched bit patterns.
fn bit_mismatches(
    mesh: &HexMesh,
    baseline: &[(Vec<f64>, Vec<f64>)],
    states: &[(Vec<f64>, Vec<f64>)],
    elements: &[Vec<u32>],
) -> u64 {
    let mut bad = 0u64;
    for (rank, (dp, dn)) in states.iter().enumerate() {
        let (bp, bn) = &baseline[rank];
        let mut touched = vec![false; mesh.n_nodes()];
        for &ei in &elements[rank] {
            for &nd in &mesh.elements[ei as usize].nodes {
                touched[nd as usize] = true;
            }
        }
        for nd in 0..mesh.n_nodes() {
            if !touched[nd] {
                continue;
            }
            for c in 0..3 {
                let i = 3 * nd + c;
                bad += u64::from(dp[i].to_bits() != bp[i].to_bits());
                bad += u64::from(dn[i].to_bits() != bn[i].to_bits());
            }
        }
    }
    bad
}

fn main() {
    let mesh = build_mesh();
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);

    // Ground truth: the unfaulted distributed run (itself bit-identical to
    // the serial solver).
    let dcfg = DistConfig::new(RANKS, STEPS).with_initial(&u0, &v0);
    let baseline = run_distributed(&solver, &dcfg);

    let ckpt_dir = PathBuf::from("target/bench_recover_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let rcfg = RecoveryConfig::new(ckpt_dir.clone(), CKPT_EVERY, 3);
    let reg = Registry::new(0);

    // Leg 1: kill a rank mid-run; the supervisor must recover within one
    // retry and match the baseline bit-for-bit.
    let faults = FaultPlan::kill(KILL_RANK, KILL_STEP);
    let run = run_distributed_recoverable(
        &solver,
        &dcfg,
        &rcfg.clone().with_faults(faults.clone()),
        &reg,
    )
    .expect("recoverable run failed");
    let kill_ok = run.finished && run.recoveries <= 1 && run.restored_step > 0;
    let kill_mismatches =
        bit_mismatches(&mesh, &baseline.states, &run.last.states, &run.last.elements);

    // Leg 2: flip one byte in the newest rank-0 checkpoint; a fresh
    // supervisor run must skip the corrupted restore line and still finish
    // bit-identically from the older one.
    let newest = {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("rank0.")))
            .collect();
        files.sort();
        files.pop().expect("no rank0 checkpoint written")
    };
    let newest_step: u64 = newest
        .file_name()
        .unwrap()
        .to_string_lossy()
        .split('.')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("checkpoint filename carries the step");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    let reg2 = Registry::new(0);
    let rerun = run_distributed_recoverable(&solver, &dcfg, &rcfg, &reg2)
        .expect("rerun after corruption failed");
    let skipped = reg2.counter("ckpt/skipped_invalid").unwrap_or(0);
    let corrupt_ok = rerun.finished && skipped > 0;
    let corrupt_mismatches =
        bit_mismatches(&mesh, &baseline.states, &rerun.last.states, &rerun.last.elements);

    // Telemetry artifact: both supervisors' traces, concatenated.
    std::fs::create_dir_all("target").ok();
    let trace = format!("{}{}", reg.ndjson(), reg2.ndjson());
    std::fs::write("target/BENCH_recover_trace.ndjson", &trace).unwrap();

    println!("{{");
    println!("  \"ranks\": {RANKS}, \"steps\": {STEPS}, \"ckpt_every\": {CKPT_EVERY},");
    println!("  \"kill\": {{ \"rank\": {KILL_RANK}, \"step\": {KILL_STEP},");
    println!(
        "    \"attempts\": {}, \"recoveries\": {}, \"restored_step\": {}, \"bit_mismatches\": {} }},",
        run.attempts, run.recoveries, run.restored_step, kill_mismatches
    );
    println!("  \"corrupt\": {{ \"file\": {:?},", newest.file_name().unwrap());
    println!(
        "    \"restored_step\": {}, \"skipped_invalid\": {}, \"bit_mismatches\": {} }},",
        rerun.restored_step, skipped, corrupt_mismatches
    );
    println!("  \"trace\": \"target/BENCH_recover_trace.ndjson\"");
    println!("}}");

    let mut failures = Vec::new();
    if !kill_ok {
        failures.push(format!(
            "kill leg: finished={} recoveries={} restored_step={}",
            run.finished, run.recoveries, run.restored_step
        ));
    }
    if kill_mismatches != 0 {
        failures.push(format!("kill leg: {kill_mismatches} bit mismatches vs baseline"));
    }
    if !corrupt_ok {
        failures
            .push(format!("corrupt leg: finished={} skipped_invalid={skipped}", rerun.finished));
    }
    if rerun.restored_step >= newest_step {
        failures.push(format!(
            "corrupt leg: restore line did not drop below the corrupted step \
             (restored_step={}, corrupted step {newest_step})",
            rerun.restored_step
        ));
    }
    if corrupt_mismatches != 0 {
        failures.push(format!("corrupt leg: {corrupt_mismatches} bit mismatches vs baseline"));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("recovered within one retry; resumed states bit-identical to the unfaulted run");
}
