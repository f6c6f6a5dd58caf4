//! `fault_zone_lts`: a homogeneous half-space with geometric refinement
//! around a fault zone, stepped by the solver's rate-group (clustered local
//! time stepping) loop. Wavelength-adaptive meshes keep h/vp nearly
//! constant, so LTS only pays on geometric refinement like this.

use super::{record_step_phases, MeshFacts, Rng};
use crate::driver::Driver;
use quake::mesh::{ElemMaterial, HexMesh, RateGroups};
use quake::model::{DoubleCouple, Material, PointSource, SlipFunction};
use quake::octree::{BalanceMode, LinearOctree, Octant, MAX_LEVEL};
use quake::solver::{
    assemble_point_sources, ElasticConfig, ElasticSolver, NoExchange, RateGroupPlan, ReceiverHook,
    RunConfig, RunOutcome, SolverHarness, SyncReceiverHook,
};

/// Relative L2 distance of the LTS seismograms from the global-dt ones the
/// run must stay within — the "stated accuracy" of this workload. LTS
/// changes the time discretisation of the coarse groups, so this is a
/// truncation-error level, not round-off; see README for the parent's range.
const LTS_ERROR_TOL: f64 = 5e-3;

/// Does `o` touch the box `[lo, hi)` given as fractions of the domain edge?
fn touches(o: &Octant, lo: [f64; 3], hi: [f64; 3]) -> bool {
    let c = o.corner_unit();
    let s = o.size_unit();
    (0..3).all(|a| c[a] < hi[a] && c[a] + s > lo[a])
}

pub fn fault_zone_lts(d: &mut Driver) {
    let extent = 20_000.0;
    let coarse: u8 = d.size(5, 3);
    assert!(coarse + 2 <= MAX_LEVEL);
    let steps_wanted: u64 = d.size(400, 16);
    let rock = Material::new(6000.0, 3464.0, 2700.0);

    // ---- set-up ----
    // Coarse background, one level finer in a box around the fault, two
    // levels finer in its core: most elements can take 2x/4x the base dt.
    let tree = d.setup("octree", || {
        let mut tree = LinearOctree::build(|o| {
            o.level < coarse
                || (o.level < coarse + 1 && touches(o, [0.375, 0.375, 0.0], [0.625, 0.625, 0.25]))
                || (o.level < coarse + 2
                    && touches(o, [0.4375, 0.4375, 0.0], [0.5625, 0.5625, 0.125]))
        });
        tree.balance(BalanceMode::Full);
        tree
    });
    let mesh = d.setup("mesh", || {
        HexMesh::from_octree(&tree, extent, |_, _, _, _| ElemMaterial {
            lambda: rock.lambda(),
            mu: rock.mu(),
            rho: rock.rho,
        })
    });
    let cfg = ElasticConfig::new(1.0);
    let solver = d.setup("solver", || ElasticSolver::new(&mesh, &cfg));
    let plan = d.setup("plan", || RateGroupPlan::build(&solver, 4));
    let n_base = steps_wanted.div_ceil(plan.cycle()) * plan.cycle();

    // Three double couples inside the refined core; the seed moves them.
    let mut rng = Rng::new(d.seed(), 3);
    let point_sources: Vec<PointSource> = (0..3)
        .map(|i| PointSource {
            position: [
                extent * (0.5 + 0.04 * rng.signed()),
                extent * (0.5 + 0.04 * rng.signed()),
                extent * (0.03 + 0.06 * rng.unit()),
            ],
            moment: DoubleCouple::moment_tensor(
                (30.0 + 20.0 * rng.signed()).to_radians(),
                60f64.to_radians(),
                90f64.to_radians(),
                1e17,
            ),
            slip: SlipFunction::new(0.02 * i as f64, 24.0 * solver.dt * plan.cycle() as f64, 1.0),
        })
        .collect();
    let sources = d.setup("sources", || assemble_point_sources(&mesh, &tree, &point_sources));
    let nodes: Vec<u32> = (0..4)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / 4.0;
            mesh.nearest_node([
                extent * (0.5 + 0.05 * a.cos()),
                extent * (0.5 + 0.05 * a.sin()),
                0.0,
            ])
        })
        .collect();
    let facts = MeshFacts::of(&mesh);
    facts.describe(d, solver.dt, n_base as usize);

    // ---- timed: the grouped loop to the final seismograms ----
    let harness = SolverHarness::new(&solver);
    let run_cfg = RunConfig::to_step(n_base).with_sources(&sources);
    d.work_per_rep((facts.elements as u64 * n_base) as f64);
    let grouped = d.measure(
        || {},
        |reg| {
            let mut ws = if reg.is_enabled() {
                solver.workspace_instrumented(reg.rank())
            } else {
                solver.workspace()
            };
            let mut state = plan.initial_state(&solver, nodes.len(), None);
            let mut hook = SyncReceiverHook::new(&nodes);
            let outcome = harness.run_grouped(
                &plan,
                &run_cfg,
                &mut state,
                &mut ws,
                &mut NoExchange,
                &mut [&mut hook],
            );
            assert!(matches!(outcome, RunOutcome::Finished { .. }), "grouped run stopped early");
            reg.absorb(&ws.into_registry());
            state.seismograms
        },
    );

    // ---- output checks: against the same run at global dt ----
    let mut state = solver.initial_state(nodes.len(), None);
    let mut hook = ReceiverHook::new(&nodes);
    let (_, global_s) = d.time("solver/harness.run (global dt)", || {
        harness.run(
            &run_cfg,
            &mut state,
            &mut solver.workspace(),
            &mut NoExchange,
            &mut [&mut hook],
        )
    });
    // Grouped sample j is the displacement at j * cycle * dt: global sample
    // j * cycle.
    let m = plan.cycle() as usize;
    let (mut err2, mut norm2, mut peak) = (0.0f64, 0.0f64, 0.0f64);
    for (g, l) in state.seismograms.iter().zip(&grouped) {
        for (j, sample) in l.data.chunks(3).enumerate().take(n_base as usize / m) {
            for (value, reference) in sample.iter().zip(&g.data[3 * j * m..]) {
                err2 += (value - reference).powi(2);
                norm2 += reference * reference;
                peak = peak.max(value.abs());
            }
        }
    }
    let lts_error = (err2 / norm2).sqrt();
    d.check("grouped seismograms finite and non-zero", peak.is_finite() && peak > 0.0);
    d.check("LTS within the stated accuracy of global dt", lts_error <= LTS_ERROR_TOL);

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger ----
    facts.record(d);
    d.set("octree.leaves", tree.len() as f64);
    d.set("solver.lts_error_rel", lts_error);
    d.set("solver.lts_cycle", plan.cycle() as f64);
    let ideal =
        (facts.elements as u64 * plan.cycle()) as f64 / plan.element_updates_per_cycle() as f64;
    let speedup = global_s / d.wall_s();
    d.set("solver.lts_ideal_work_ratio", ideal);
    d.set("solver.lts_speedup_vs_global", speedup);
    d.set("solver.lts_efficiency", speedup / ideal);
    d.set("solver.harness_updates_per_s", (facts.elements as u64 * n_base) as f64 / global_s);
    for (metric, stage) in [
        ("octree.build_s", "octree"),
        ("mesh.extract_s", "mesh"),
        ("solver.new_s", "solver"),
        ("solver.lts_plan_s", "plan"),
        ("solver.assemble_sources_s", "sources"),
    ] {
        let secs = d.stage_s(stage);
        d.set(metric, secs);
    }
    record_step_phases(d);
    let (_, rategroups_s) = d.time("mesh/RateGroups.build", || RateGroups::build(&mesh, 4));
    d.set("mesh.rategroups_s", rategroups_s);
}
