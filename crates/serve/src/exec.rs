//! One scenario execution against a prebuilt solver: the worker's
//! steady-state serving path.
//!
//! [`run_scenario`] is the serve crate's single public entry point into the
//! solver (allowlisted in the root `tests/variant_guard.rs`). It is a thin
//! re-staging of the `ForwardRun` pipeline with the expensive, scenario-
//! *independent* stages hoisted out: the mesh and [`ElasticSolver`] are
//! built once per engine variant, and all per-run state — displacement
//! fields, the step workspace (which owns the harness's run buffers),
//! receiver nodes, seismogram buffers — lives in a worker-owned
//! [`ServeScratch`] that is *reset*, never reallocated, between requests.
//! After the first request of each size has warmed the buffers,
//! steady-state serving performs no heap allocation in the reset-and-drive
//! path (the root `tests/alloc_free.rs` counts the same allocations for N
//! and 2N steps).
//!
//! Bit-identity contract: for the same sources/receivers/step budget, the
//! traces returned here are **bit-identical** to a direct
//! `ForwardRun::execute` on an identically configured scenario — same
//! assembly routine, same hook order (`ReceiverHook` before
//! `TelemetryHook`), same `SolverHarness` loop, and a workspace whose run
//! buffers are zeroed on entry exactly like a fresh allocation
//! (`crates/serve/tests/equivalence.rs` pins this against `quake-core`).

use crate::cache::CachedResult;
use quake_model::PointSource;
use quake_octree::LinearOctree;
use quake_solver::{
    assemble_point_sources, ElasticSolver, NoExchange, ReceiverHook, RunConfig, RunOutcome,
    Seismogram, SolverHarness, SolverState, StepWorkspace, TelemetryHook,
};

/// Worker-owned per-run state, preallocated once and reused across every
/// request the worker serves.
pub struct ServeScratch {
    state: SolverState,
    ws: StepWorkspace,
    receiver_nodes: Vec<u32>,
    /// Retired seismogram buffers, kept so shrinking the receiver set does
    /// not drop warmed capacity and growing it back allocates nothing.
    trace_pool: Vec<Seismogram>,
}

impl ServeScratch {
    /// Scratch sized for `solver`, with seismogram buffers pre-warmed for up
    /// to `max_receivers` stations (more still works; it allocates once).
    pub fn for_solver(solver: &ElasticSolver<'_>, max_receivers: usize) -> ServeScratch {
        ServeScratch {
            state: solver.initial_state(0, None),
            ws: solver.workspace(),
            receiver_nodes: Vec::with_capacity(max_receivers),
            trace_pool: (0..max_receivers).map(|_| Seismogram::new(solver.dt, 3)).collect(),
        }
    }
}

/// The effective step bound of a request under `solver`: the budget clamped
/// to the variant's configured duration (also the `until_step` the cache
/// key is computed with — budget aliases beyond the duration collapse onto
/// one entry).
pub fn effective_steps(solver: &ElasticSolver<'_>, budget: Option<u64>) -> u64 {
    let full = solver.n_steps as u64;
    budget.map_or(full, |b| b.min(full))
}

/// Execute one scenario against a prebuilt solver, reusing `scratch` for
/// every piece of per-run state. Returns the materialized result in cache
/// form (traces + executed steps + analytic element-update cost).
pub fn run_scenario(
    solver: &ElasticSolver<'_>,
    tree: &LinearOctree,
    sources: &[PointSource],
    receivers: &[[f64; 3]],
    step_budget: Option<u64>,
    scratch: &mut ServeScratch,
) -> CachedResult {
    let until = effective_steps(solver, step_budget);
    // Source assembly depends on the request, so it cannot be hoisted; it is
    // proportional to the (small) source count, not the mesh.
    let assembled = assemble_point_sources(solver.mesh, tree, sources);

    // Reset worker state and drive the harness: once buffers are warm this
    // allocates nothing per step (the root `alloc_free` tests count it).
    scratch.receiver_nodes.clear();
    for &p in receivers {
        scratch.receiver_nodes.push(solver.mesh.nearest_node(p));
    }
    let state = &mut scratch.state;
    state.step = 0;
    state.u_prev.fill(0.0);
    state.u_now.fill(0.0);
    while state.seismograms.len() > receivers.len() {
        if let Some(tr) = state.seismograms.pop() {
            scratch.trace_pool.push(tr);
        }
    }
    while state.seismograms.len() < receivers.len() {
        match scratch.trace_pool.pop() {
            Some(tr) => state.seismograms.push(tr),
            // Pool miss: allocates once per receiver high-water mark, then
            // every later scenario reuses the pool.
            None => state.seismograms.push(Seismogram::new(solver.dt, 3)),
        }
    }
    for tr in state.seismograms.iter_mut() {
        tr.dt = solver.dt;
        tr.ncomp = 3;
        tr.data.clear();
    }

    // Same config and hook order as `SolverHarness::run_simulation`, so a
    // full-duration serve is bit-identical to `ForwardRun`.
    let cfg = RunConfig::to_step(until).with_sources(&assembled);
    let mut receivers_hook = ReceiverHook::new(&scratch.receiver_nodes);
    let mut telemetry = TelemetryHook::new(solver);
    let harness = SolverHarness::new(solver);
    let outcome = harness.run(
        &cfg,
        state,
        &mut scratch.ws,
        &mut NoExchange,
        &mut [&mut receivers_hook, &mut telemetry],
    );
    let executed = match outcome {
        RunOutcome::Finished { executed } => executed,
        RunOutcome::Stopped { reason, .. } => {
            unreachable!("serial scenario run cannot stop for {reason:?}")
        }
    };
    CachedResult {
        executed_steps: executed,
        element_updates: solver.mesh.n_elements() as u64 * executed,
        traces: scratch.state.seismograms.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_mesh::mesh_from_model;
    use quake_model::{ExtendedFault, LaBasinModel};
    use quake_solver::ElasticConfig;

    struct Fixture {
        tree: LinearOctree,
        mesh: quake_mesh::HexMesh,
        cfg: ElasticConfig,
        sources: Vec<PointSource>,
        receivers: Vec<[f64; 3]>,
    }

    fn fixture() -> Fixture {
        let extent = 8_000.0;
        let model = LaBasinModel::scaled(400.0, extent);
        let mut meshing = quake_mesh::MeshingParams::new(extent, 0.4);
        meshing.min_level = 2;
        meshing.max_level = 4;
        let (tree, mesh) = mesh_from_model(&meshing, &model);
        Fixture {
            tree,
            mesh,
            cfg: ElasticConfig::new(1.5),
            sources: ExtendedFault::northridge_like(extent).discretize(3, 2),
            receivers: vec![[2_000.0, 3_000.0, 0.0], [5_000.0, 5_000.0, 0.0]],
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        let fx = fixture();
        let solver = ElasticSolver::new(&fx.mesh, &fx.cfg);

        let mut fresh = ServeScratch::for_solver(&solver, 4);
        let baseline =
            run_scenario(&solver, &fx.tree, &fx.sources, &fx.receivers, None, &mut fresh);
        assert!(baseline.executed_steps > 0);
        assert_eq!(baseline.traces.len(), 2);

        // Dirty the scratch with a different scenario (different sources,
        // more receivers, truncated run), then replay the first.
        let mut other_sources = fx.sources.clone();
        other_sources.truncate(2);
        let wide: Vec<[f64; 3]> =
            (0..4).map(|i| [1_000.0 + 1_500.0 * i as f64, 4_000.0, 0.0]).collect();
        let _ = run_scenario(&solver, &fx.tree, &other_sources, &wide, Some(3), &mut fresh);

        let replay = run_scenario(&solver, &fx.tree, &fx.sources, &fx.receivers, None, &mut fresh);
        assert_eq!(replay.executed_steps, baseline.executed_steps);
        for (a, b) in replay.traces.iter().zip(&baseline.traces) {
            assert_eq!(a.data.len(), b.data.len());
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "scratch reuse changed the waveform");
            }
        }
    }

    #[test]
    fn step_budget_truncates_and_clamps() {
        let fx = fixture();
        let solver = ElasticSolver::new(&fx.mesh, &fx.cfg);
        let mut scratch = ServeScratch::for_solver(&solver, 2);
        assert_eq!(effective_steps(&solver, None), solver.n_steps as u64);
        assert_eq!(effective_steps(&solver, Some(5)), 5);
        assert_eq!(effective_steps(&solver, Some(u64::MAX)), solver.n_steps as u64);

        let short =
            run_scenario(&solver, &fx.tree, &fx.sources, &fx.receivers, Some(4), &mut scratch);
        assert_eq!(short.executed_steps, 4);
        assert_eq!(short.traces[0].n_samples(), 4);
        assert_eq!(short.element_updates, fx.mesh.n_elements() as u64 * 4);

        // A budget past the configured duration clamps to the full run.
        let clamped = run_scenario(
            &solver,
            &fx.tree,
            &fx.sources,
            &fx.receivers,
            Some(u64::MAX),
            &mut scratch,
        );
        assert_eq!(clamped.executed_steps, solver.n_steps as u64);
    }

    #[test]
    fn truncated_run_is_a_prefix_of_the_full_run() {
        let fx = fixture();
        let solver = ElasticSolver::new(&fx.mesh, &fx.cfg);
        let mut scratch = ServeScratch::for_solver(&solver, 2);
        let full = run_scenario(&solver, &fx.tree, &fx.sources, &fx.receivers, None, &mut scratch);
        let half = full.executed_steps / 2;
        let short =
            run_scenario(&solver, &fx.tree, &fx.sources, &fx.receivers, Some(half), &mut scratch);
        for (s, f) in short.traces.iter().zip(&full.traces) {
            assert_eq!(s.data.len(), half as usize * 3);
            for (x, y) in s.data.iter().zip(&f.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "truncation is not a prefix");
            }
        }
    }
}
