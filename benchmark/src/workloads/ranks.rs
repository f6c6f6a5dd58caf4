//! `basin_ranks2`: the basin mesh on two SPMD ranks (one per core of this
//! host), so the partition, `parcomm` and the exchange phase do real work
//! and `wait` measures the partition rather than the OS scheduler.

use super::{gaussian_pulse, MeshFacts, Rng};
use crate::driver::Driver;
use crate::stats::median;
use quake::machine::phases::elastic_step_phases;
use quake::machine::{MachineModel, RankWork};
use quake::mesh::{mesh_from_model, partition_morton, ExchangePlan, MeshingParams};
use quake::model::LaBasinModel;
use quake::parcomm::run_spmd;
use quake::solver::distributed::DistributedRun;
use quake::solver::{
    run_distributed, DistConfig, ElasticConfig, ElasticSolver, SolverHarness, StepScope,
};
use std::time::Instant;

const RANK_TRACE_EVENTS: usize = 1 << 14;
/// Largest accepted |distributed - serial| over the serial field's peak.
const SERIAL_MATCH_TOL: f64 = 1e-12;

pub fn basin_ranks2(d: &mut Driver) {
    let extent = 20_000.0;
    let steps: usize = d.size(128, 12);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_ranks = cores.min(2);

    // ---- set-up: basin_forward's mesh, a Gaussian initial pulse ----
    let model = d.setup("model", || LaBasinModel::scaled(400.0, extent));
    let mut meshing = MeshingParams::new(extent, 0.3);
    meshing.min_level = 2;
    meshing.max_level = d.size(6, 4);
    let (_tree, mesh) = d.setup("mesh", || mesh_from_model(&meshing, &model));
    let cfg = ElasticConfig::new(1.0);
    let solver = d.setup("solver", || ElasticSolver::new(&mesh, &cfg));
    let mut rng = Rng::new(d.seed(), 4);
    let center =
        [extent * (0.45 + 0.1 * rng.unit()), extent * (0.45 + 0.1 * rng.unit()), extent * 0.15];
    let (u0, v0) = d.setup("pulse", || gaussian_pulse(&mesh, center, 0.06 * extent));
    let facts = MeshFacts::of(&mesh);
    facts.describe(d, solver.dt, steps);
    d.describe("ranks", n_ranks as f64);

    // ---- timed: partition + per-rank schedules + the distributed loop ----
    d.work_per_rep((facts.elements * steps) as f64);
    let run: DistributedRun = d.measure(
        || {},
        |reg| {
            let cfg = DistConfig::new(n_ranks, steps).with_initial(&u0, &v0);
            let cfg = if reg.is_enabled() { cfg.with_trace(RANK_TRACE_EVENTS) } else { cfg };
            run_distributed(&solver, &cfg)
        },
    );

    // ---- output check: every rank's state equals the serial run on the
    // nodes its elements touch. Interface nodes sum the ranks' partial
    // assemblies in a different order than the serial sweep, so "equal" is
    // to rounding (the tolerance of the solver's own distributed test).
    let ((serial_prev, serial_now), serial_s) = d.time("solver/run_to_state (serial)", || {
        SolverHarness::new(&solver).run_to_state(Some((&u0, &v0)), steps)
    });
    let scale = serial_now.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut worst = if run.states.len() == n_ranks { 0.0f64 } else { f64::INFINITY };
    for (r, (up, un)) in run.states.iter().enumerate() {
        let mut touched = vec![false; mesh.n_nodes()];
        for &e in &run.elements[r] {
            for &nd in &mesh.elements[e as usize].nodes {
                touched[nd as usize] = true;
            }
        }
        for nd in (0..mesh.n_nodes()).filter(|&nd| touched[nd]) {
            for dof in 3 * nd..3 * nd + 3 {
                worst = worst
                    .max((up[dof] - serial_prev[dof]).abs())
                    .max((un[dof] - serial_now[dof]).abs());
            }
        }
    }
    d.check(
        "rank states equal the serial run to rounding",
        scale.is_finite() && scale > 0.0 && worst <= SERIAL_MATCH_TOL * scale,
    );

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger ----
    facts.record(d);
    d.set("parcomm.scaling_efficiency", serial_s / (n_ranks as f64 * d.wall_s()));

    // mesh: the partition and exchange plan run_distributed builds inside.
    let (plan, partition_s) = d.time("mesh/partition_morton + ExchangePlan.build", || {
        let parts = partition_morton(mesh.n_elements(), n_ranks);
        ExchangePlan::build(&mesh, &parts, n_ranks)
    });
    d.set("mesh.partition_s", partition_s);
    d.set("mesh.partition_imbalance", plan.stats.imbalance);
    d.set("mesh.interface_nodes", plan.stats.interface_nodes as f64);

    // parcomm: the traced repetitions ran with per-rank registries; `reduced`
    // is their min/max/mean across ranks for one run.
    let by = |name: &str| run.reduced.iter().find(|r| r.name == name);
    let mean = |name: &str| by(name).map_or(0.0, |r| r.mean);
    d.check("traced run returned the cross-rank reduction", !run.reduced.is_empty());
    d.set("parcomm.exchange_wait_s", mean("span.step/exchange/wait.secs"));
    d.set("parcomm.exchange_copy_s", mean("span.step/exchange/copy.secs"));
    d.set("parcomm.rank_elements_s_max", by("span.step/elements.secs").map_or(0.0, |r| r.max));
    d.set("parcomm.rank_elements_s_mean", mean("span.step/elements.secs"));
    for (metric, span) in [
        ("solver.phase_fill_s", "step/fill"),
        ("solver.phase_elements_s", "step/elements"),
        ("solver.phase_abc_s", "step/abc"),
        ("solver.phase_fold_s", "step/fold"),
        ("solver.phase_exchange_s", "step/exchange"),
        ("solver.phase_tail_s", "step/tail"),
        ("solver.phase_interp_s", "step/interp"),
    ] {
        d.set(metric, mean(&format!("span.{span}.secs")));
    }
    let messages: usize = plan.plans.iter().map(Vec::len).sum();
    let bytes_sent = |r: usize| (run.volumes[r] * 3 * 8) as u64;
    d.set("parcomm.messages_per_step", messages as f64);
    d.set("parcomm.bytes_per_step_computed", (0..n_ranks).map(bytes_sent).sum::<u64>() as f64);
    if n_ranks == 2 {
        let rounds = d.size(1000, 50);
        let (times, _) = d.time("parcomm/pingpong", || {
            run_spmd(2, |comm| {
                let mut times = Vec::with_capacity(rounds);
                for i in 0..rounds as u64 {
                    if comm.rank() == 0 {
                        let t0 = Instant::now();
                        comm.send(1, i, vec![0.0]);
                        comm.recv(1, i);
                        times.push(t0.elapsed().as_secs_f64());
                    } else {
                        let ball = comm.recv(0, i);
                        comm.send(0, i, ball);
                    }
                }
                times
            })
        });
        d.set("parcomm.pingpong_us", median(&times[0]) * 1e6);
    }

    // machine: the alpha-beta model's view of the same partition, calibrated
    // on the serial run, so measured minus predicted separates scheduler
    // artefacts from real imbalance.
    let step_flops = |scope: &StepScope| -> u64 {
        elastic_step_phases(&solver.phase_shape(scope)).iter().map(|p| p.flops).sum()
    };
    let full_flops = step_flops(solver.full_scope());
    let machine = MachineModel::calibrated(full_flops * steps as u64, serial_s);
    let ranks: Vec<RankWork> = (0..n_ranks)
        .map(|r| RankWork {
            flops: step_flops(&solver.scope(&run.elements[r], None)),
            n_neighbors: plan.plans[r].len(),
            bytes_sent: bytes_sent(r),
        })
        .collect();
    let predicted = machine.predict_step(&ranks);
    let single =
        machine.predict_step(&[RankWork { flops: full_flops, n_neighbors: 0, bytes_sent: 0 }]);
    d.set("machine.predicted_step_s", predicted.step_time);
    d.set("machine.predicted_efficiency", machine.efficiency(&single, &predicted));
    d.add_traces(run.traces);
}
