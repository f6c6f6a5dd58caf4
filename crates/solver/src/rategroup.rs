//! Clustered local time stepping (LTS): the [`RateGroupPlan`] that steps each
//! octree level at its own CFL-sized `dt`.
//!
//! The global explicit `dt` is pinned by the smallest element, but a
//! wavelength-adaptive mesh spans several refinement levels — coarse elements
//! are stepped 4–8× more often than their own stability limit requires. The
//! plan partitions the mesh into *rate groups* (one per level, via
//! [`quake_mesh::RateGroups`]) and advances group `g` every `f_g` base steps,
//! where the factors are power-of-two multiples of the base `dt`:
//!
//! ```text
//! cap_g = min(2^g, floor_pow2(r_g / r_min))      r_g = min over group g of h/vp
//! f_g   = min over h >= g of cap_h               (suffix min: monotone, CFL-safe)
//! ```
//!
//! `f_0 = 1`, each factor divides the next, and `f_g * dt0` respects group
//! `g`'s own CFL bound because `dt0` is stable for the finest group and the
//! leapfrog stability limit scales linearly in `h/vp`.
//!
//! # The nested schedule
//!
//! The plan is data: the step loop is the one in [`crate::harness`], which
//! treats global dt as the plan with a single group. One *base point* `s`
//! (time `s * dt0`) processes every due group (`s % f_g == 0`), **coarsest
//! first**. A due group runs the same seven-phase
//! `ElasticSolver::pass` as the global step (fill, elements, abc, fold,
//! exchange, tail, interp), restricted to the group's element/node/constraint
//! partition:
//!
//! - the pass sweeps its own elements *plus* the next-coarser interface
//!   elements touching its nodes (so every element incident to a group-`g`
//!   node contributes at group `g`'s rate);
//! - nodes owned by the next-finer group are read at the exact shared time
//!   level; nodes owned by the next-coarser group are **leapfrog-interpolated**
//!   `u = u_prev + theta (u_now - u_prev)` inside the coarse group's straddling
//!   step (`theta = (s mod f_{g+1}) / f_{g+1}`, in `[0, 1)` thanks to the
//!   coarsest-first order);
//! - the velocity-proportional damping increment is rescaled by the factor
//!   ratio so halo contributions see the pass's own `dt`;
//! - per-pass fold/interp visit only the group's constraint clusters — the
//!   2-to-1 balance guarantees a hanging node and all its masters share one
//!   owner group, so the partition reproduces the global fold bit-for-bit;
//! - contributions a pass scatters to halo nodes are never consumed (the tail
//!   only solves owned nodes) and are overwritten by the owning pass's next
//!   fill — no cross-pass state leaks through the rhs scratch.
//!
//! All groups' `u_now` coincide at multiples of the macro cycle `M =
//! f_{G-1}`: those are the *global sync steps* where the harness fires
//! `before_step`/`after_step`, offers checkpoints, and
//! [`ReceiverHook`](crate::harness::ReceiverHook) samples seismograms.
//! [`crate::harness::SolverHarness::run_grouped`] drives the schedule; a
//! single-group plan owns every node and has no halos, so it runs the very
//! pass global dt runs and is bit-identical to it.

use crate::checkpoint::SolverState;
use crate::elastic::{ElasticSolver, GroupNodes, Pass, StepScope};
use quake_mesh::{Constraint, RateGroups};

/// Largest power of two `<= x` (at least 1).
fn floor_pow2(x: f64) -> u64 {
    let mut p = 1u64;
    while p < (1u64 << 62) && (2 * p) as f64 <= x {
        p *= 2;
    }
    p
}

/// Everything one rate group's pass needs, precomputed once per plan — the
/// owner of what a [`Pass`] borrows.
struct GroupPass {
    /// Base-step stride of this group.
    factor: u64,
    /// The group's step `f_g * dt0`.
    dt: f64,
    /// Blocked per-class template schedule over the pass elements (own +
    /// next-coarser interface) at this group's `dt`, and their absorbing
    /// faces.
    scope: StepScope,
    nodes: GroupNodes,
    /// The group's hanging-node constraints, in mesh order.
    constraints: Vec<Constraint>,
    /// Planar folded LHS inverse `1 / (Mf + dt_g/2 Cf)` (read at own nodes).
    lhs_inv: Vec<f64>,
}

/// The per-level stepping plan: the mesh partition, the per-group factors,
/// and the precomputed per-group pass data. Build once per solver, drive
/// through [`crate::harness::SolverHarness::run_grouped`].
pub struct RateGroupPlan {
    groups: RateGroups,
    factors: Vec<u64>,
    cycle: u64,
    base_dt: f64,
    passes: Vec<GroupPass>,
    /// Each node's owner-group step — the stagger of `u_prev` at a sync step.
    node_dt: Vec<f64>,
}

impl RateGroupPlan {
    /// Build the stepping plan for `solver`'s mesh with at most `max_groups`
    /// rate groups. The base `dt` is the solver's (global-CFL) step; factors
    /// are derived from the actual per-group `min h/vp`, so heterogeneous
    /// materials can cap a level below its geometric `2^g`.
    pub fn build(solver: &ElasticSolver<'_>, max_groups: usize) -> RateGroupPlan {
        let mesh = solver.mesh;
        let groups = RateGroups::build(mesh, max_groups);
        let ng = groups.n_groups;
        let ndof = 3 * mesh.n_nodes();

        // Per-group stability radius r_g = min over the group's elements of
        // h/vp; the base dt is stable at r_min, and stability scales linearly
        // in r, so factor f <= r_g/r_min keeps group g stable at f * dt0.
        let mut r = vec![f64::INFINITY; ng];
        for (ei, e) in mesh.elements.iter().enumerate() {
            let g = groups.elem_group[ei] as usize;
            r[g] = r[g].min(e.h / e.material.vp());
        }
        let r_min = r.iter().copied().fold(f64::INFINITY, f64::min);
        let caps: Vec<u64> = r
            .iter()
            .enumerate()
            // The (1 + 1e-12) guard keeps the exact-ratio case (uniform
            // material: r_g/r_min = 2^g to the bit) from flooring down.
            .map(|(g, &rg)| floor_pow2(rg / r_min * (1.0 + 1e-12)).min(1u64 << g.min(62)))
            .collect();
        // Suffix min: f_g = min over h >= g of cap_h. Monotone non-decreasing
        // powers of two, so every factor divides all coarser ones, and each
        // f_g <= cap_g stays CFL-safe.
        let mut factors = vec![1u64; ng];
        let mut suffix = u64::MAX;
        for g in (0..ng).rev() {
            suffix = suffix.min(caps[g]);
            factors[g] = suffix;
        }
        assert_eq!(factors[0], 1, "the finest group steps at the base dt");
        let cycle = factors[ng - 1];

        let passes: Vec<GroupPass> = (0..ng)
            .map(|g| {
                let dt_g = factors[g] as f64 * solver.dt;
                let mut lhs_inv = vec![0.0; ndof];
                for d in 0..ndof {
                    lhs_inv[d] = 1.0 / (solver.mass_fp[d] + 0.5 * dt_g * solver.cdiag_fp[d]);
                }
                GroupPass {
                    factor: factors[g],
                    dt: dt_g,
                    scope: solver.scope_at(&groups.pass_elems[g], None, dt_g),
                    nodes: GroupNodes {
                        own: groups.own_nodes[g].clone(),
                        finer_halo: groups.finer_halo[g].clone(),
                        coarser_halo: groups.coarser_halo[g].clone(),
                        fine_scale: if g > 0 { (factors[g] / factors[g - 1]) as f64 } else { 0.0 },
                        coarse_scale: if g + 1 < ng {
                            factors[g] as f64 / factors[g + 1] as f64
                        } else {
                            0.0
                        },
                    },
                    constraints: groups.constraints[g]
                        .iter()
                        .map(|&ci| mesh.constraints[ci as usize].clone())
                        .collect(),
                    lhs_inv,
                }
            })
            .collect();
        let node_dt =
            groups.node_group.iter().map(|&g| factors[g as usize] as f64 * solver.dt).collect();

        RateGroupPlan { groups, factors, cycle, base_dt: solver.dt, passes, node_dt }
    }

    /// Number of rate groups (1 = degenerate: identical to the global loop).
    pub fn n_groups(&self) -> usize {
        self.passes.len()
    }

    /// Base-step factors per group (powers of two, `factors[0] == 1`).
    pub fn factors(&self) -> &[u64] {
        &self.factors
    }

    /// The macro cycle `M = f_{G-1}`: groups synchronize every `M` base steps.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The base (finest-group) time step.
    pub fn base_dt(&self) -> f64 {
        self.base_dt
    }

    /// The sync-to-sync interval `M * dt0` — the seismogram sampling step of
    /// grouped runs.
    pub fn macro_dt(&self) -> f64 {
        self.cycle as f64 * self.base_dt
    }

    /// The underlying mesh partition.
    pub fn groups(&self) -> &RateGroups {
        &self.groups
    }

    /// Elements per group (finest first) — the bench's per-level histogram.
    pub fn group_histogram(&self) -> Vec<usize> {
        self.groups.group_histogram()
    }

    /// Element updates per macro cycle under this plan (each group's pass
    /// elements stepped at its own rate) vs the `n_elements * M` of the
    /// global-dt loop — the *ideal* LTS work ratio the bench compares the
    /// measured speedup against.
    pub fn element_updates_per_cycle(&self) -> u64 {
        self.passes
            .iter()
            .map(|p| (self.cycle / p.factor) * p.scope.schedule.n_elements() as u64)
            .sum()
    }

    /// The plan as the harness steps it: one [`Pass`] per group, finest
    /// first. A single group owns every node and has no halos, so it takes
    /// the contiguous whole-domain form — the very pass global dt runs.
    pub(crate) fn passes(&self) -> Vec<Pass<'_>> {
        let whole = self.passes.len() == 1;
        self.passes
            .iter()
            .map(|gp| Pass {
                factor: gp.factor,
                dt: gp.dt,
                scope: &gp.scope,
                constraints: &gp.constraints,
                lhs_inv: &gp.lhs_inv,
                group: (!whole).then_some(&gp.nodes),
            })
            .collect()
    }

    /// Each node's owner-group step (see [`RateGroupPlan::energy`]).
    pub(crate) fn node_dt(&self) -> &[f64] {
        &self.node_dt
    }

    /// Fresh grouped [`SolverState`] at step 0. Like
    /// [`ElasticSolver::initial_state`], but the backward start uses each
    /// node's *owner-group* step (`u_prev = u0 - dt_own v0`) and seismograms
    /// sample at the macro-cycle interval.
    pub fn initial_state(
        &self,
        solver: &ElasticSolver<'_>,
        n_receivers: usize,
        initial: Option<(&[f64], &[f64])>,
    ) -> SolverState {
        solver.staggered_state(n_receivers, initial, |nd| self.node_dt[nd], self.macro_dt())
    }

    /// Total mechanical energy of a grouped state at a *global sync step*:
    /// like [`ElasticSolver::energy_planar`], but each node's staggered
    /// velocity uses its owner group's step (`v = (u_now - u_prev)/dt_own`).
    pub fn energy(&self, solver: &ElasticSolver<'_>, u_prev: &[f64], u_now: &[f64]) -> f64 {
        solver.energy_sum(u_prev, u_now, |nd| self.node_dt[nd])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::elastic::{ElasticConfig, ElasticSolver, RayleighBand};
    use crate::harness::{
        CheckpointHook, HookCtx, NoExchange, ReceiverHook, RunConfig, RunOutcome, SolverHarness,
        StepHook, StopReason,
    };
    use crate::sources::point_force;
    use quake_mesh::{ElemMaterial, HexMesh};
    use quake_model::SlipFunction;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};

    /// The 3-level mesh of the `quake_mesh::rategroups` tests: coarse
    /// background, a level-4 quadrant, a level-5 octant corner.
    pub(crate) fn three_level_mesh() -> HexMesh {
        let half = 1u32 << (MAX_LEVEL - 1);
        let quarter = 1u32 << (MAX_LEVEL - 2);
        let mut tree = LinearOctree::build(|o| {
            o.level < 3
                || (o.level < 4 && o.x < half && o.y < half)
                || (o.level < 5 && o.x < quarter && o.y < quarter && o.z < quarter)
        });
        tree.balance(BalanceMode::Full);
        HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        })
    }

    fn lts_config(dt: f64) -> ElasticConfig {
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(dt);
        cfg.abc = [true, true, true, true, false, true];
        cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        cfg
    }

    /// Smooth interleaved displacement pulse (zero initial velocity, so the
    /// global and grouped backward starts coincide exactly).
    fn gaussian_pulse(mesh: &HexMesh) -> Vec<f64> {
        let n = mesh.n_nodes();
        let mut u = vec![0.0; 3 * n];
        for (i, c) in mesh.coords.iter().enumerate() {
            let dx = (c[0] - 3.0) / 1.5;
            let dy = (c[1] - 3.0) / 1.5;
            let dz = (c[2] - 2.0) / 1.5;
            let g = (-(dx * dx + dy * dy + dz * dz)).exp();
            u[3 * i] = 0.3 * g;
            u[3 * i + 1] = g;
            u[3 * i + 2] = -0.5 * g;
        }
        u
    }

    /// One receiver node owned by each rate group.
    fn receivers_per_group(plan: &RateGroupPlan) -> Vec<u32> {
        (0..plan.n_groups())
            .map(|g| {
                plan.groups().node_group.iter().position(|&og| og as usize == g).unwrap() as u32
            })
            .collect()
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
    }

    fn max_abs(a: &[f64]) -> f64 {
        a.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    #[test]
    fn factors_are_cfl_safe_powers_of_two() {
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.02));
        let plan = RateGroupPlan::build(&solver, 8);
        assert_eq!(plan.n_groups(), 3);
        // Uniform material: the stability radius doubles per level, so the
        // factor ladder is the full geometric 1, 2, 4.
        assert_eq!(plan.factors(), &[1, 2, 4]);
        assert_eq!(plan.cycle(), 4);
        assert_eq!(plan.macro_dt(), 4.0 * solver.dt);
        assert_eq!(plan.group_histogram().iter().sum::<usize>(), mesh.n_elements());
        // LTS does strictly less element work per macro cycle than the
        // global loop.
        let global = mesh.n_elements() as u64 * plan.cycle();
        assert!(plan.element_updates_per_cycle() < global);
    }

    #[test]
    fn heterogeneous_material_caps_the_factor_ladder() {
        let half = 1u32 << (MAX_LEVEL - 1);
        let quarter = 1u32 << (MAX_LEVEL - 2);
        let mut tree = LinearOctree::build(|o| {
            o.level < 3
                || (o.level < 4 && o.x < half && o.y < half)
                || (o.level < 5 && o.x < quarter && o.y < quarter && o.z < quarter)
        });
        tree.balance(BalanceMode::Full);
        // Coarsest level (h = 1.0) gets 2x the wave speed: its stability
        // radius is only 2x the finest group's, so its factor is capped at 2
        // even though geometry alone would allow 4.
        let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, h| {
            if h > 0.75 {
                ElemMaterial { lambda: 8.0, mu: 4.0, rho: 1.0 }
            } else {
                ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 }
            }
        });
        let solver = ElasticSolver::new(&mesh, &lts_config(0.01));
        let plan = RateGroupPlan::build(&solver, 8);
        assert_eq!(plan.factors(), &[1, 2, 2]);
        assert_eq!(plan.cycle(), 2);
    }

    #[test]
    fn single_group_plan_is_bit_identical_to_global_harness() {
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.02));
        // Clamp the 3-level mesh into one rate group: the degenerate plan
        // must reproduce the global harness to the bit, sources, receivers
        // and all.
        let plan = RateGroupPlan::build(&solver, 1);
        assert_eq!(plan.n_groups(), 1);
        let u0 = gaussian_pulse(&mesh);
        let v0 = vec![0.0; u0.len()];
        let recv = [0u32, (mesh.n_nodes() / 2) as u32];
        let src = [point_force(
            &mesh,
            [4.0, 4.0, 1.0],
            [0.0, 0.0, 1.0],
            SlipFunction::new(0.0, 0.5, 1.0),
        )];
        let harness = SolverHarness::new(&solver);
        let cfg = RunConfig::to_step(12).with_sources(&src);

        let mut sa = solver.initial_state(recv.len(), Some((&u0, &v0)));
        let mut wsa = solver.workspace();
        let mut ha = ReceiverHook::new(&recv);
        let oa = harness.run(&cfg, &mut sa, &mut wsa, &mut NoExchange, &mut [&mut ha]);
        assert!(matches!(oa, RunOutcome::Finished { executed: 12 }));

        let mut sb = plan.initial_state(&solver, recv.len(), Some((&u0, &v0)));
        let mut wsb = solver.workspace();
        let mut hb = ReceiverHook::new(&recv);
        let ob =
            harness.run_grouped(&plan, &cfg, &mut sb, &mut wsb, &mut NoExchange, &mut [&mut hb]);
        assert!(matches!(ob, RunOutcome::Finished { executed: 12 }));

        assert_eq!(sa.step, sb.step);
        assert_eq!(sa.u_prev, sb.u_prev);
        assert_eq!(sa.u_now, sb.u_now);
        for (ta, tb) in sa.seismograms.iter().zip(&sb.seismograms) {
            assert_eq!(ta.data, tb.data);
        }
    }

    /// Records the full planar displacement history `u(s dt0)` of a
    /// global-dt run (the sample the `ReceiverHook` takes, but whole-field).
    struct HistoryHook {
        snaps: Vec<Vec<f64>>,
    }

    impl StepHook for HistoryHook {
        fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
            self.snaps.push(ctx.state.u_prev.clone());
            Ok(())
        }
    }

    /// Keeps the last two whole-field snapshots a run's `after_step` saw
    /// (for the grouped run: the last two sync-step fields).
    struct SyncSnapHook {
        prev: Vec<f64>,
        last: Vec<f64>,
    }

    impl StepHook for SyncSnapHook {
        fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
            std::mem::swap(&mut self.prev, &mut self.last);
            self.last.clear();
            self.last.extend_from_slice(&ctx.state.u_now);
            Ok(())
        }
    }

    /// Total mechanical energy from two sync-step fields `dt` apart, with
    /// the velocity reconstructed as `(u_b - u_a) / dt` -- the same formula
    /// for either scheme, so the comparison measures field agreement only.
    fn energy_at_sync(solver: &ElasticSolver<'_>, u_a: &[f64], u_b: &[f64], dt: f64) -> f64 {
        solver.energy_sum(u_a, u_b, |_| dt)
    }

    #[test]
    fn multi_group_lts_matches_global_dt_within_gate() {
        // The equivalence oracle of the LTS mode: on the 3-level mesh with
        // damping, absorbing boundaries, hanging nodes, and an active source,
        // the grouped run must agree with the global-dt run to <= 1e-8
        // (relative) in the field at the final sync step, the energy, and
        // every seismogram sample at the sync steps.
        //
        // The grouped run is started from a *consistent staggered state*: a
        // one-macro-cycle global-dt prelude supplies `u_now = u(M dt0)` and
        // per-node `u_prev = u(M dt0 - dt_own)`. (Starting both schemes from
        // the plain first-order backward start instead would compare two
        // *different* effective initial velocities -- `u_prev = u0` means
        // "staggered velocity zero at -dt_own/2", an O(dt0) gap per group
        // that has nothing to do with the stepping scheme itself.) What
        // remains is the pure evolution difference, O((w dt_c)^2 w T), which
        // at this dt0 sits comfortably under the gate.
        let mesh = three_level_mesh();
        let dt0 = 5e-6;
        let solver = ElasticSolver::new(&mesh, &lts_config(dt0));
        let plan = RateGroupPlan::build(&solver, 8);
        assert_eq!(plan.factors(), &[1, 2, 4]);
        let m = plan.cycle();
        let u0 = gaussian_pulse(&mesh);
        let v0 = vec![0.0; u0.len()];
        let recv = receivers_per_group(&plan);
        let src = [point_force(
            &mesh,
            [4.0, 4.0, 1.0],
            [0.0, 0.0, 1.0],
            SlipFunction::new(0.0, 0.5, 1.0),
        )];
        let steps = 64u64;
        let n = mesh.n_nodes();
        let harness = SolverHarness::new(&solver);

        // Global-dt reference: one run from 0 to M + steps, with the first M
        // steps doubling as the prelude that seeds the staggered start.
        let mut sg = solver.initial_state(recv.len(), Some((&u0, &v0)));
        let mut wsg = solver.workspace();
        let mut hist = HistoryHook { snaps: Vec::new() };
        let mut hg = ReceiverHook::new(&recv);
        let cfg_pre = RunConfig::to_step(m).with_sources(&src);
        let og =
            harness.run(&cfg_pre, &mut sg, &mut wsg, &mut NoExchange, &mut [&mut hg, &mut hist]);
        assert!(matches!(og, RunOutcome::Finished { .. }));
        // hist.snaps[s] = u(s dt0) for s = 0..M; sg.u_now = u(M dt0).
        assert_eq!(hist.snaps.len(), m as usize);

        // Staggered grouped state at the sync step M.
        let mut sl = plan.initial_state(&solver, recv.len(), None);
        sl.step = m;
        sl.u_now.copy_from_slice(&sg.u_now);
        for nd in 0..n {
            let g = plan.groups().node_group[nd] as usize;
            let f = plan.factors()[g];
            let past = &hist.snaps[(m - f) as usize]; // u((M - f_g) dt0)
            for comp in 0..3 {
                let d = comp * n + nd;
                sl.u_prev[d] = past[d];
            }
        }

        let cfg = RunConfig::to_step(m + steps).with_sources(&src);
        let og2 = harness.run(&cfg, &mut sg, &mut wsg, &mut NoExchange, &mut [&mut hg, &mut hist]);
        assert!(matches!(og2, RunOutcome::Finished { executed: 64 }));
        // hist now holds u(s dt0) for s = 0..M+steps; the global field one
        // macro cycle before the end is u(steps dt0).
        let g_prev_sync = &hist.snaps[steps as usize];

        let mut wsl = solver.workspace();
        let mut hl = ReceiverHook::new(&recv);
        let mut l_snap = SyncSnapHook { prev: Vec::new(), last: Vec::new() };
        let ol = harness.run_grouped(
            &plan,
            &cfg,
            &mut sl,
            &mut wsl,
            &mut NoExchange,
            &mut [&mut hl, &mut l_snap],
        );
        assert!(matches!(ol, RunOutcome::Finished { executed: 64 }));
        assert_eq!(sl.step, m + steps);

        // Field at the final global sync step.
        let scale = max_abs(&sg.u_now).max(1e-300);
        let field_err = max_abs_diff(&sl.u_now, &sg.u_now) / scale;
        assert!(field_err <= 1e-8, "field error {field_err:e} exceeds the 1e-8 gate");

        // Energy, reconstructed identically for both runs from the two final
        // sync fields (v = (u(T) - u(T - M dt0)) / (M dt0)). Comparing the
        // runs' native staggered proxies instead would measure the O(dt0)
        // offset between velocities staggered at -dt_own/2 vs -dt0/2 -- a
        // property of the proxy, not of the stepping scheme.
        let eg = energy_at_sync(&solver, g_prev_sync, &sg.u_now, plan.macro_dt());
        let el = energy_at_sync(&solver, &l_snap.prev, &sl.u_now, plan.macro_dt());
        let energy_err = ((el - eg) / eg.abs().max(1e-300)).abs();
        assert!(energy_err <= 1e-8, "energy error {energy_err:e} exceeds the 1e-8 gate");

        // Seismograms: one sample per sync step. The grouped run entered at
        // step M (not 0), so grouped sample j = u((j + 1) M dt0) = global
        // sample (j + 1) M.
        for (tg, tl) in sg.seismograms.iter().zip(&sl.seismograms) {
            assert_eq!(tl.dt, plan.macro_dt());
            assert_eq!(tl.n_samples(), steps as usize / m as usize);
            let tscale = max_abs(&tg.data).max(0.1 * scale);
            for j in 0..tl.n_samples() {
                let i = (j + 1) * m as usize;
                for c in 0..3 {
                    let d = (tl.data[3 * j + c] - tg.data[3 * i + c]).abs() / tscale;
                    assert!(d <= 1e-8, "trace sample {j} comp {c}: {d:e}");
                }
            }
        }
    }

    #[test]
    fn grouped_resume_from_checkpoint_is_bit_identical() {
        // Stopping a grouped run at a sync step and resuming it from the
        // checkpoint file written there replays the straight-through run to
        // the bit, seismograms included: the sync-step state is
        // self-contained and the trace continues without a seam.
        use quake_ckpt::{CheckpointPolicy, CheckpointReader, CheckpointWriter, PeriodicSink};
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.01));
        let plan = RateGroupPlan::build(&solver, 8);
        assert_eq!(plan.n_groups(), 3);
        let u0 = gaussian_pulse(&mesh);
        let v0 = vec![0.0; u0.len()];
        let recv = receivers_per_group(&plan);
        let harness = SolverHarness::new(&solver);

        let mut sa = plan.initial_state(&solver, recv.len(), Some((&u0, &v0)));
        let mut ws = solver.workspace();
        let mut ha = ReceiverHook::new(&recv);
        let cfg = RunConfig::to_step(32);
        let oa =
            harness.run_grouped(&plan, &cfg, &mut sa, &mut ws, &mut NoExchange, &mut [&mut ha]);
        assert!(matches!(oa, RunOutcome::Finished { executed: 32 }));

        let dir = std::env::temp_dir()
            .join("quake-solver-tests")
            .join(format!("lts-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = CheckpointWriter::new(&dir, "lts").unwrap();
        let policy = CheckpointPolicy::every_steps(16);
        let mut first_leg = plan.initial_state(&solver, recv.len(), Some((&u0, &v0)));
        {
            let mut sink = PeriodicSink::new(&writer, &policy);
            let mut hb = ReceiverHook::new(&recv);
            let mut ckpt = CheckpointHook::new(&mut sink);
            let o1 = harness.run_grouped(
                &plan,
                &RunConfig::to_step(16),
                &mut first_leg,
                &mut ws,
                &mut NoExchange,
                &mut [&mut hb, &mut ckpt],
            );
            assert!(matches!(o1, RunOutcome::Finished { executed: 16 }));
        }
        drop(first_leg); // resume must come purely from the file

        let (step, mut sb): (u64, SolverState) = CheckpointReader::new(&dir, "lts")
            .latest_valid(&quake_telemetry::Registry::disabled())
            .unwrap();
        assert_eq!((step, sb.step), (16, 16));
        let mut hb = ReceiverHook::new(&recv);
        let o2 =
            harness.run_grouped(&plan, &cfg, &mut sb, &mut ws, &mut NoExchange, &mut [&mut hb]);
        assert!(matches!(o2, RunOutcome::Finished { executed: 16 }));

        assert_eq!(sa.step, sb.step);
        assert_eq!(sa.u_prev, sb.u_prev);
        assert_eq!(sa.u_now, sb.u_now);
        for (ta, tb) in sa.seismograms.iter().zip(&sb.seismograms) {
            assert_eq!(ta.n_samples(), 32 / plan.cycle() as usize);
            assert_eq!(ta.data, tb.data);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lts_remains_stable_near_the_cfl_limit() {
        // The suffix-min factor ladder must keep every group inside its own
        // stability bound when the base dt sits near the global CFL limit.
        let mesh = three_level_mesh();
        let mut cfg = ElasticConfig::new(0.9);
        cfg.abc = [true, true, true, true, false, true];
        cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        let solver = ElasticSolver::new(&mesh, &cfg);
        let plan = RateGroupPlan::build(&solver, 8);
        assert_eq!(plan.cycle(), 4);
        let u0 = gaussian_pulse(&mesh);
        let v0 = vec![0.0; u0.len()];
        let harness = SolverHarness::new(&solver);
        let mut state = plan.initial_state(&solver, 0, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        let e0 = plan.energy(&solver, &state.u_prev, &state.u_now);
        let outcome = harness.run_grouped(
            &plan,
            &RunConfig::to_step(200),
            &mut state,
            &mut ws,
            &mut NoExchange,
            &mut [],
        );
        assert!(matches!(outcome, RunOutcome::Finished { executed: 200 }));
        assert!(state.u_now.iter().all(|v| v.is_finite()));
        let e = plan.energy(&solver, &state.u_prev, &state.u_now);
        // Damped + absorbing: the energy must not grow beyond the staggered
        // proxy's O((w dt)^2) oscillation band, let alone blow up.
        assert!(e.is_finite() && e <= 1.2 * e0, "energy grew: {e0:e} -> {e:e}");
    }

    #[test]
    fn per_group_fold_and_interp_match_global_bitwise() {
        // The per-group constraint partition must reproduce the global
        // hanging-node fold and interpolation *to the bit*, in any group
        // order: constraint clusters never span groups, so the per-cluster
        // accumulation order is identical.
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.02));
        let plan = RateGroupPlan::build(&solver, 8);
        let n = mesh.n_nodes();
        let ndof = 3 * n;
        let v: Vec<f64> =
            (0..ndof).map(|d| ((d.wrapping_mul(2654435761) % 2000) as f64) * 1e-3 - 1.0).collect();

        let mut folded_global = v.clone();
        mesh.fold_hanging_planar(&mut folded_global, 3);
        let mut folded_grouped = v.clone();
        for gp in plan.passes.iter().rev() {
            HexMesh::fold_constraints_planar(&gp.constraints, n, &mut folded_grouped, 3);
        }
        assert_eq!(folded_global, folded_grouped);

        let mut interp_global = v.clone();
        mesh.interpolate_hanging_planar(&mut interp_global, 3);
        let mut interp_grouped = v.clone();
        for gp in plan.passes.iter().rev() {
            HexMesh::interpolate_constraints_planar(&gp.constraints, n, &mut interp_grouped, 3);
        }
        assert_eq!(interp_global, interp_grouped);
    }

    #[test]
    fn hanging_interp_exact_for_linear_field_across_group_boundaries() {
        // Hanging nodes sit at level interfaces — which under LTS are also
        // rate-group boundaries. The constraint interpolation must reproduce
        // a linear field exactly there (midside = mean of 2, midface = mean
        // of 4), group by group.
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.02));
        let plan = RateGroupPlan::build(&solver, 8);
        let n = mesh.n_nodes();
        let mut exact = vec![0.0; 3 * n];
        for (nd, c) in mesh.coords.iter().enumerate() {
            exact[nd] = 1.0 + 0.25 * c[0] - 0.5 * c[1] + 2.0 * c[2];
            exact[n + nd] = -0.75 * c[0] + 0.125 * c[1] + c[2];
            exact[2 * n + nd] = 0.5 - c[0] + 0.375 * c[1] - 0.25 * c[2];
        }
        let mut u = exact.clone();
        let mut n_constraints = 0;
        for gp in &plan.passes {
            for c in &gp.constraints {
                n_constraints += 1;
                for comp in 0..3 {
                    // Poison, then let the group's interp restore it.
                    u[comp * n + c.node as usize] = f64::NAN;
                    let mut val = 0.0;
                    for &(mnd, wgt) in &c.masters {
                        val += wgt * u[comp * n + mnd as usize];
                    }
                    u[comp * n + c.node as usize] = val;
                    let err =
                        (u[comp * n + c.node as usize] - exact[comp * n + c.node as usize]).abs();
                    assert!(err <= 1e-12, "hanging node {} comp {comp}: {err:e}", c.node);
                }
            }
        }
        assert_eq!(n_constraints, mesh.constraints.len());
        assert!(n_constraints > 0);
    }

    #[test]
    fn hanging_interp_invariant_under_permuted_element_order() {
        // The interface interpolation must not depend on the order elements
        // are handed to the scope builder: a reversed element list recolors
        // the sweep, but the assembled result stays within roundoff and the
        // hanging nodes stay exactly on their masters' interpolation.
        let mesh = three_level_mesh();
        let solver = ElasticSolver::new(&mesh, &lts_config(0.02));
        assert!(mesh.n_hanging() > 0);
        let u0 = gaussian_pulse(&mesh);
        let v0 = vec![0.0; u0.len()];
        let n = mesh.n_nodes();
        let harness = SolverHarness::new(&solver);

        let all: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let mut permuted = all.clone();
        permuted.reverse();
        // An extra deterministic shuffle: swap strided pairs.
        let len = permuted.len();
        for i in (0..len / 2).step_by(3) {
            permuted.swap(i, len - 1 - i);
        }

        let mut finals = Vec::new();
        for elems in [&all, &permuted] {
            let scope = solver.scope(elems, None);
            let cfg = RunConfig::to_step(8).with_scope(&scope);
            let mut state = solver.initial_state(0, Some((&u0, &v0)));
            let mut ws = solver.workspace();
            let outcome = harness.run(&cfg, &mut state, &mut ws, &mut NoExchange, &mut []);
            assert!(matches!(outcome, RunOutcome::Finished { executed: 8 }));
            // Every hanging node is exactly its masters' interpolation.
            for c in &mesh.constraints {
                for comp in 0..3 {
                    let mut val = 0.0;
                    for &(mnd, wgt) in &c.masters {
                        val += wgt * state.u_now[comp * n + mnd as usize];
                    }
                    assert_eq!(val, state.u_now[comp * n + c.node as usize]);
                }
            }
            finals.push(state.u_now.clone());
        }
        let scale = max_abs(&finals[0]).max(1e-300);
        let err = max_abs_diff(&finals[0], &finals[1]) / scale;
        assert!(err <= 1e-12, "permuted element order diverged: {err:e}");
    }
}
