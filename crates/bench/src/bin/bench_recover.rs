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
//! Every recoverable run checks each rank's energy before it checkpoints and
//! leaves one post-mortem per rank that did not finish an attempt; the kill
//! leg must leave exactly one naming the scripted kill, for the killed rank's
//! first attempt, and none for the retry.
//!
//! Prints a JSON summary to stdout, dumps the supervisor telemetry (restore
//! spans, `recover_attempt` events, skip counters) to
//! `target/BENCH_recover_trace.ndjson`, leaves the post-mortems in
//! `target/bench_recover_ckpt/`, and exits nonzero if any acceptance check
//! fails — CI runs this as the `recover` job.

use std::path::{Path, PathBuf};

use quake_bench::{half_refined_mesh, shear_pulse};
use quake_mesh::hexmesh::HexMesh;
use quake_parcomm::FaultPlan;
use quake_solver::distributed::run_distributed;
use quake_solver::{
    run_distributed_recoverable, DistConfig, ElasticConfig, ElasticSolver, RankOutcome,
    RecoveryConfig,
};
use quake_telemetry::json::Json;
use quake_telemetry::Registry;

const RANKS: usize = 4;
const STEPS: usize = 12;
const CKPT_EVERY: u64 = 4;
const KILL_RANK: usize = 2;
const KILL_STEP: u64 = 7;

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

/// The post-mortems in `dir` as `(file name, header line)`, by name.
fn post_mortems(dir: &Path) -> Vec<(String, String)> {
    let mut dumps: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".postmortem.ndjson"))
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap_or_default();
            let header = text.lines().next().unwrap_or_default().to_string();
            (name, header)
        })
        .collect();
    dumps.sort();
    dumps
}

fn main() {
    let mesh = half_refined_mesh(2);
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let u0 = shear_pulse(&mesh, 8.0);
    let v0 = vec![0.0; u0.len()];

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
    // One post-mortem per rank that did not finish the faulted attempt, none
    // for the retry, and exactly one of them — the killed rank's — naming
    // the kill.
    let dumps = post_mortems(&ckpt_dir);
    let stopped: Vec<String> = (run.outcomes[0].iter().enumerate())
        .filter(|(_, o)| **o != RankOutcome::Finished)
        .map(|(r, _)| format!("rank{r}.attempt0.postmortem.ndjson"))
        .collect();
    let named_kill: Vec<&str> = (dumps.iter())
        .filter(|(_, header)| header.contains("\"reason\":\"killed by fault plan\""))
        .map(|(name, _)| name.as_str())
        .collect();
    let killed_dump = format!("rank{KILL_RANK}.attempt0.postmortem.ndjson");
    let dump_names: Vec<String> = dumps.iter().map(|(name, _)| name.clone()).collect();

    // Leg 2: flip one byte in the newest rank-0 checkpoint; a fresh
    // supervisor run must skip the corrupted restore line and still finish
    // bit-identically from the older one.
    let newest = {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().unwrap_or_default().to_string_lossy();
                name.starts_with("rank0.") && name.ends_with(".qckpt")
            })
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

    let summary = Json::obj([
        ("ranks", RANKS.into()),
        ("steps", STEPS.into()),
        ("ckpt_every", CKPT_EVERY.into()),
        (
            "kill",
            Json::obj([
                ("rank", KILL_RANK.into()),
                ("step", KILL_STEP.into()),
                ("attempts", run.attempts.into()),
                ("recoveries", run.recoveries.into()),
                ("restored_step", run.restored_step.into()),
                ("bit_mismatches", kill_mismatches.into()),
                ("post_mortems", Json::arr(dump_names.clone())),
            ]),
        ),
        (
            "corrupt",
            Json::obj([
                ("file", newest.file_name().unwrap().to_string_lossy().into_owned().into()),
                ("restored_step", rerun.restored_step.into()),
                ("skipped_invalid", skipped.into()),
                ("bit_mismatches", corrupt_mismatches.into()),
            ]),
        ),
        ("trace", "target/BENCH_recover_trace.ndjson".into()),
    ]);
    print!("{}", summary.render());

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
    if dump_names != stopped || named_kill != [killed_dump.as_str()] {
        failures.push(format!(
            "kill leg: post-mortems {dump_names:?} (naming the kill: {named_kill:?}); expected \
             one per stopped rank of attempt 0 {stopped:?}, only {killed_dump} naming the kill"
        ));
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
