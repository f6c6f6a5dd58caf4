//! Numerics health watchdog — catches silent solution corruption.
//!
//! Comm-layer defenses (step tags, checkpoints, CRCs) catch *infrastructure*
//! faults: dead ranks, dropped exchanges, corrupt files. None of them can see
//! a silent numerical fault — a NaN written by a bit flip or a kernel bug, or
//! an instability pumping energy into the field — because the corrupted state
//! checkpoints and exchanges just fine. The [`HealthHook`] closes that gap:
//! every `cadence` steps it scans the state for non-finite values and
//! samples the discrete energy `E_k = 1/2 v^T M v + 1/2 u^T K u` of its
//! elements and the nodes they touch (the invariant a source-free,
//! boundary-less leapfrog run conserves to rounding). A NaN or Inf, or an
//! energy that outgrows both the reference energy the hook is given and its
//! own running peak, stops the run with a [`StopReason::Health`] carrying a
//! [`HealthReport`]: step, energies, the offending dof ranges and the newest
//! state that passed the check.
//!
//! The energy covers only the elements the hook is given: a serial run
//! passes every element in mesh order (the energy is then
//! [`ElasticSolver::energy_planar`]'s to the bit), a distributed rank its
//! own — the only values of its state that are the solution — so each
//! rank's energy costs its share of the mesh, not the whole of it (the
//! non-finite scan, one comparison per value, still reads the whole state
//! the rank would persist). A rank's share is not conserved: the wave
//! carries energy from one rank's part of the mesh into another's, and a
//! part that starts almost at rest gains orders of magnitude when it
//! arrives. So a distributed rank measures growth against the seed's
//! whole-mesh energy, which no share of a source-free run's energy
//! outgrows; only a run that outgrows the whole trips the check.
//!
//! **Hook order matters**: the hook goes *before* any `CheckpointHook` and
//! checks on the checkpoint cadence. `after_step` processing stops at the
//! first erroring hook, so every state a checkpoint sink persists has passed
//! the check — a detected corruption can never poison the newest restore
//! line, and resume from [`HealthReport::last_valid_ckpt`] is bit-identical
//! to an unfaulted run up to that line. `run_distributed_recoverable` runs
//! one on every rank, in that order, at `every_steps`, and writes the report
//! into the failed rank's post-mortem.

use crate::elastic::ElasticSolver;
use crate::harness::{HookCtx, StepHook, StopReason};

/// The watchdog aborts when the sampled energy exceeds this many times the
/// reference energy and the running peak (leapfrog conserves discrete energy to rounding in a
/// source-free interior; damping and ABCs only remove energy, so sustained
/// growth is unphysical). Values below a tiny absolute floor are ignored so
/// a quiescent field cannot trip the ratio.
const MAX_ENERGY_GROWTH: f64 = 10.0;

/// What the watchdog found when it stopped a run.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Post-step step index at detection (`state.step`, the *next* step).
    pub step: u64,
    pub dt: f64,
    /// Human-readable violation.
    pub reason: String,
    /// Energy at detection (NaN when the field itself is non-finite).
    pub energy: f64,
    /// The growth bound's base: the larger of the hook's reference energy
    /// and every previous sample.
    pub peak_energy: f64,
    /// Offending planar dof ranges `[start, end)` (capped; indices into
    /// `u_prev ++ u_now`, `u_now` entries starting at `u_prev.len()`).
    pub bad_dofs: Vec<(usize, usize)>,
    /// The newest step that passed the check (`step - cadence`; 0 is the
    /// initial state). On the checkpoint cadence this is the newest
    /// checkpoint line expected valid.
    pub last_valid_ckpt: u64,
}

/// The watchdog hook. See the module docs for placement rules.
pub struct HealthHook<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
    elements: &'s [u32],
    /// The nodes `elements` touch, ascending.
    nodes: Vec<u32>,
    cadence: u64,
    peak_energy: f64,
}

impl<'s, 'm> HealthHook<'s, 'm> {
    /// Check the energy of `elements` and the nodes they touch whenever the
    /// post-step index is a multiple of `cadence` (> 0): a corruption is
    /// caught within one cadence window of appearing. Growth is measured
    /// against `reference_energy` until a sample exceeds it, then against
    /// the running peak: a distributed rank passes the seed's whole-mesh
    /// energy, 0 measures against the running peak alone.
    pub fn new(
        solver: &'s ElasticSolver<'m>,
        elements: &'s [u32],
        cadence: u64,
        reference_energy: f64,
    ) -> HealthHook<'s, 'm> {
        assert!(cadence > 0, "HealthHook cadence must be > 0");
        let mut touched = vec![false; solver.mesh.n_nodes()];
        for &e in elements {
            for &nd in &solver.mesh.elements[e as usize].nodes {
                touched[nd as usize] = true;
            }
        }
        let nodes = (0..touched.len() as u32).filter(|&nd| touched[nd as usize]).collect();
        HealthHook { solver, elements, nodes, cadence, peak_energy: reference_energy }
    }

    /// Up to `cap` maximal contiguous ranges of non-finite entries across
    /// `u_prev ++ u_now` (indices into the concatenation; `u_now` entries
    /// start at `u_prev.len()`).
    fn bad_ranges(u_prev: &[f64], u_now: &[f64], cap: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let n = u_prev.len();
        let finite_at =
            |d: usize| if d < n { u_prev[d].is_finite() } else { u_now[d - n].is_finite() };
        let total = n + u_now.len();
        let mut d = 0;
        while d < total && out.len() < cap {
            if finite_at(d) {
                d += 1;
                continue;
            }
            let start = d;
            while d < total && !finite_at(d) {
                d += 1;
            }
            out.push((start, d));
        }
        out
    }
}

impl StepHook for HealthHook<'_, '_> {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        let step = ctx.state.step;
        if !step.is_multiple_of(self.cadence) {
            return Ok(());
        }
        let (u_prev, u_now) = (&ctx.state.u_prev, &ctx.state.u_now);
        // The whole state, not just the checked nodes: a NaN anywhere in it
        // would be persisted with the next checkpoint.
        let bad = u_now.iter().chain(u_prev.iter()).any(|v| !v.is_finite());
        let info = ctx.info;
        let (energy, reason) = if bad {
            (f64::NAN, "non-finite field values (NaN/Inf) in solution state".to_string())
        } else {
            // Staggered velocity over each node's own step: the owner
            // group's under a rate-group plan, the global dt otherwise.
            let energy = self.solver.energy_over(
                self.nodes.iter().map(|&nd| nd as usize),
                self.elements.iter().map(|&e| e as usize),
                u_prev,
                u_now,
                |nd| info.node_dt.map_or(info.dt, |dts| dts[nd]),
            );
            // Absolute floor: a quiescent field's rounding noise must not
            // trip the relative growth check.
            const ENERGY_FLOOR: f64 = 1e-300;
            if !energy.is_finite() {
                (energy, "non-finite discrete energy".to_string())
            } else if self.peak_energy > ENERGY_FLOOR
                && energy > MAX_ENERGY_GROWTH * self.peak_energy
            {
                let peak = self.peak_energy;
                let growth = format!(
                    "energy growth: E = {energy:.6e} exceeds {MAX_ENERGY_GROWTH}x reference or running peak {peak:.6e}"
                );
                (energy, growth)
            } else {
                self.peak_energy = self.peak_energy.max(energy);
                return Ok(());
            }
        };
        Err(StopReason::Health(HealthReport {
            step,
            dt: info.dt,
            reason,
            energy,
            peak_energy: self.peak_energy,
            bad_dofs: if bad { Self::bad_ranges(u_prev, u_now, 8) } else { Vec::new() },
            last_valid_ckpt: step - self.cadence,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticConfig;
    use crate::harness::{RunConfig, RunOutcome, SolverHarness};
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_mesh::HexMesh;
    use quake_octree::{BalanceMode, LinearOctree};

    fn setup() -> (HexMesh, ElasticConfig) {
        let tree = {
            let mut t = LinearOctree::build(|o| o.level < 2);
            t.balance(BalanceMode::Full);
            t
        };
        let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(0.05);
        (mesh, cfg)
    }

    /// Every element in mesh order: the serial watchdog's domain.
    fn all_elements(mesh: &HexMesh) -> Vec<u32> {
        (0..mesh.n_elements() as u32).collect()
    }

    fn pulse(mesh: &HexMesh) -> (Vec<f64>, Vec<f64>) {
        let n = mesh.n_nodes();
        let mut u = vec![0.0; 3 * n];
        let v = vec![0.0; 3 * n];
        for (i, c) in mesh.coords.iter().enumerate() {
            let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
            u[3 * i + 1] = (-r2 / 2.0).exp();
        }
        let mut uu = u;
        mesh.interpolate_hanging(&mut uu, 3);
        (uu, v)
    }

    #[test]
    fn healthy_run_passes_the_watchdog() {
        let (mesh, cfg) = setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        let elements = all_elements(&mesh);
        let mut hook = HealthHook::new(&solver, &elements, 1, 0.0);
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(10),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut hook],
        );
        assert!(matches!(outcome, RunOutcome::Finished { executed: 10 }), "{outcome:?}");
        assert!(hook.peak_energy > 0.0);
        // Given every element in mesh order, the watchdog samples exactly
        // the solver's own energy, to the bit.
        assert_eq!(hook.nodes.len(), mesh.n_nodes());
        let sampled = solver.energy_over(
            hook.nodes.iter().map(|&nd| nd as usize),
            elements.iter().map(|&e| e as usize),
            &state.u_prev,
            &state.u_now,
            |_| solver.dt,
        );
        let whole = solver.energy_planar(&state.u_prev, &state.u_now);
        assert_eq!(sampled.to_bits(), whole.to_bits());
    }

    #[test]
    fn nan_in_state_is_caught_within_one_cadence_window() {
        let (mesh, cfg) = setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        // Corrupt one entry after 3 clean steps, watchdog cadence 4: the
        // NaN lands before step 3 executes, detection must come at
        // state.step == 4 (post-step index), i.e. within one window.
        struct Corruptor;
        impl StepHook for Corruptor {
            fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
                if ctx.state.step == 3 {
                    ctx.state.u_now[17] = f64::NAN;
                }
                Ok(())
            }
        }
        let mut corrupt = Corruptor;
        let elements = all_elements(&mesh);
        let mut hook = HealthHook::new(&solver, &elements, 4, 0.0);
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(20),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut corrupt, &mut hook],
        );
        let RunOutcome::Stopped { step, reason: StopReason::Health(report) } = outcome else {
            panic!("watchdog must stop the run, got {outcome:?}");
        };
        assert_eq!(step, 3, "stopped while executing the first checked step window");
        assert!(report.reason.contains("non-finite"), "{}", report.reason);
        assert_eq!(report.step, 4, "detected at the first cadence boundary");
        assert_eq!(report.last_valid_ckpt, 0, "no checked state before step 4");
        assert!(report.energy.is_nan());
        assert!(!report.bad_dofs.is_empty());
    }

    #[test]
    fn energy_growth_is_caught_and_reported() {
        let (mesh, cfg) = setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        // Inject a finite but huge amplitude spike: energy ratio trips, not
        // the NaN scan.
        struct Amplifier;
        impl StepHook for Amplifier {
            fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
                if ctx.state.step == 5 {
                    for v in ctx.state.u_now.iter_mut() {
                        *v *= 1e6;
                    }
                }
                Ok(())
            }
        }
        let mut amp = Amplifier;
        let elements = all_elements(&mesh);
        // A blow-up outgrows the seed's energy too.
        let seed_energy = solver.energy_planar(&state.u_prev, &state.u_now);
        let mut hook = HealthHook::new(&solver, &elements, 1, seed_energy);
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(20),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut amp, &mut hook],
        );
        let RunOutcome::Stopped { reason: StopReason::Health(report), .. } = outcome else {
            panic!("watchdog must stop the run, got {outcome:?}");
        };
        assert!(report.reason.contains("energy growth"), "{}", report.reason);
        assert!(report.energy > report.peak_energy * MAX_ENERGY_GROWTH);
        assert!(report.bad_dofs.is_empty(), "field is finite, just unphysical");
    }
}
