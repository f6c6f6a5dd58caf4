//! Bit pins of the elastic solver's two step loops.
//!
//! Each pin hashes (FNV-1a over `f64::to_bits`) every receiver sample and
//! the final `u_prev` / `u_now` of one small run, and compares the hash with
//! a constant committed when the pin was written. Any change to the
//! arithmetic the run executes — a summation order, a rounding, a
//! nondeterministic visit order, a clock or random read — moves the hash.
//! The runs cover the paper's forward-solver physics (§2): a delayed
//! double-couple point source, Stacey absorbing faces, Rayleigh damping and
//! hanging-node constraints.
//!
//! - `one_group_run_is_pinned`: `SolverHarness::run_simulation`, the loop
//!   behind `ElasticSolver::run`, on a mesh with one refined octant.
//! - `three_group_run_is_pinned`: `SolverHarness::run_grouped` on three
//!   rate groups of a geometrically refined mesh.
//!
//! A change that is meant to alter the arithmetic updates the constants and
//! says why in its description.

use quake::mesh::hexmesh::ElemMaterial;
use quake::mesh::HexMesh;
use quake::model::{DoubleCouple, PointSource, SlipFunction};
use quake::octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake::solver::elastic::RayleighBand;
use quake::solver::{
    assemble_point_sources, ElasticConfig, ElasticSolver, NoExchange, RateGroupPlan, ReceiverHook,
    RunConfig, RunOutcome, SolverHarness, SolverState, StepHook,
};

const ONE_GROUP_PIN: u64 = 0x084c_a1ff_6917_0ab1;
const THREE_GROUP_PIN: u64 = 0x0e91_d7b3_d729_5cb5;

/// FNV-1a (64-bit) over the bit patterns of every receiver sample, then of
/// the final `u_prev` and `u_now`.
fn fingerprint(state: &SolverState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let traces = state.seismograms.iter().map(|s| &s.data[..]);
    for v in traces.chain([&state.u_prev[..], &state.u_now[..]]).flatten() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The balanced octree `refine` builds, meshed over a domain of edge 8 with
/// a material that varies in depth and across x, so the sweep runs several
/// material classes.
fn mesh(refine: impl Fn(&quake::octree::Octant) -> bool) -> (LinearOctree, HexMesh) {
    let mut tree = LinearOctree::build(refine);
    tree.balance(BalanceMode::Full);
    let mesh = HexMesh::from_octree(&tree, 8.0, |x, _, z, _| ElemMaterial {
        lambda: 2.0 + 0.25 * (z / 2.0).floor(),
        mu: if x < 4.0 { 1.0 } else { 1.2 },
        rho: 1.0,
    });
    (tree, mesh)
}

fn config(duration: f64) -> ElasticConfig {
    let mut cfg = ElasticConfig::new(duration);
    cfg.dt = Some(0.02);
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 0.5 });
    cfg
}

/// A double couple near the middle of the domain, switched on after a delay.
fn source() -> PointSource {
    PointSource {
        position: [4.3, 3.7, 4.1],
        moment: DoubleCouple::moment_tensor(0.4, 0.9, 0.2, 1.0),
        slip: SlipFunction::new(0.06, 0.2, 1.0),
    }
}

fn receivers(mesh: &HexMesh) -> Vec<u32> {
    [[1.0, 1.0, 0.0], [6.0, 5.0, 0.0], [0.5, 7.0, 8.0]].map(|p| mesh.nearest_node(p)).to_vec()
}

#[test]
fn one_group_run_is_pinned() {
    // Level 2 everywhere, level 3 in one octant: hanging nodes on its faces.
    let half = 1u32 << (MAX_LEVEL - 1);
    let (tree, mesh) = mesh(|o| o.level < 2 || (o.level < 3 && o.x < half && o.y < half));
    let solver = ElasticSolver::new(&mesh, &config(0.6));
    let scope = solver.full_scope();
    assert!(mesh.n_hanging() > 0 && !scope.faces.is_empty() && scope.schedule.n_damped() > 0);

    let sources = assemble_point_sources(&mesh, &tree, &[source()]);
    let nodes = receivers(&mesh);
    let mut ws = solver.workspace();
    let state = solver.initial_state(nodes.len(), None);
    let (result, state) =
        SolverHarness::new(&solver).run_simulation(&sources, &nodes, state, &mut ws, None).unwrap();
    assert_eq!(result.n_steps, 30);
    assert!(state.seismograms.iter().all(|s| s.data.iter().any(|&v| v != 0.0)));

    assert_eq!(fingerprint(&state), ONE_GROUP_PIN, "{:#018x}", fingerprint(&state));
}

#[test]
fn three_group_run_is_pinned() {
    // Level 2 everywhere, level 3 in a quarter column, level 4 in a corner:
    // element sizes h, h/2 and h/4 make three rate groups.
    let half = 1u32 << (MAX_LEVEL - 1);
    let quarter = 1u32 << (MAX_LEVEL - 2);
    let (tree, mesh) = mesh(|o| {
        o.level < 2
            || (o.level < 3 && o.x < half && o.y < half)
            || (o.level < 4 && o.x < quarter && o.y < quarter && o.z < quarter)
    });
    let solver = ElasticSolver::new(&mesh, &config(1.0));
    let plan = RateGroupPlan::build(&solver, 3);
    assert_eq!(plan.n_groups(), 3);

    let sources = assemble_point_sources(&mesh, &tree, &[source()]);
    let nodes = receivers(&mesh);
    let mut ws = solver.workspace();
    let mut state = plan.initial_state(&solver, nodes.len(), None);
    let mut hook = ReceiverHook::new(&nodes);
    let mut hooks: [&mut dyn StepHook; 1] = [&mut hook];
    let until = 8 * plan.cycle();
    let cfg = RunConfig::to_step(until).with_sources(&sources);
    let outcome = SolverHarness::new(&solver).run_grouped(
        &plan,
        &cfg,
        &mut state,
        &mut ws,
        &mut NoExchange,
        &mut hooks,
    );
    assert!(matches!(outcome, RunOutcome::Finished { executed } if executed == until));
    assert!(state.seismograms.iter().all(|s| s.data.iter().any(|&v| v != 0.0)));

    assert_eq!(fingerprint(&state), THREE_GROUP_PIN, "{:#018x}", fingerprint(&state));
}
