//! The production elastic wave solver (Section 2.1-2.2 of the paper).
//!
//! Explicit central differences on the lumped-mass Galerkin semidiscretization
//! of Navier's equations, exactly in the split form of eq. (2.4):
//!
//! ```text
//! [ (1 + a dt/2) M + (b dt/2) K_diag + (dt/2) C^AB_diag ] u_{k+1} =
//!   [ 2M - dt^2 (K + K^AB) - (b dt/2) K_off ] u_k
//! + [ (a dt/2 - 1) M + (b dt/2) K + (dt/2) C^AB ] u_{k-1} + dt^2 b_k
//! ```
//!
//! with elementwise Rayleigh constants `(a_e, b_e)` least-squares fitted to
//! the local soil's damping ratio, and Stacey absorbing boundaries. Hanging
//! nodes are eliminated by the projection `B^T A B ubar = B^T rhs`, which
//! keeps the update explicit because `A` is diagonal.
//!
//! The solver stores *no per-element matrices*: per element only `(h,
//! lambda, mu, rho, a, b)` plus one combined 24x24 stiffness *template* per
//! distinct `(h, lambda, mu)` class — on an octree mesh that is a handful of
//! templates for millions of elements (see [`crate::sweep`]).
//!
//! # Nodal state layout: planar (structure of arrays)
//!
//! All solver-internal nodal vectors (`u_prev`, `u_now`, `rhs`, `w`,
//! `f_ext`) are **planar**: component planes of length `n_nodes`, i.e.
//! `dof(comp, node) = comp * n_nodes + node`. The element gather/scatter,
//! the diagonal fill/tail passes, ABC, and the hanging-node fold/interp all
//! stream the x/y/z planes contiguously instead of striding through
//! interleaved `[f64; 3]` triples. Public *boundaries* stay interleaved
//! (`dof = 3 * node + comp`): [`ElasticSolver::initial_state`] accepts
//! interleaved fields, the harness's `run_to_state` returns them, and
//! [`crate::layout`] converts between the two.
//!
//! # Hot-path organization
//!
//! The step is built from three preallocated pieces so that its steady state
//! performs **zero heap allocations**:
//!
//! - [`StepScope`]: the element schedule (the class-major, blocked
//!   per-class template schedule of [`crate::sweep::SweepSchedule`]), the
//!   scope's absorbing-boundary faces, and the owned-node mask — all
//!   computed once per rank, not per step.
//! - [`StepWorkspace`]: the per-run scratch (the damping increment
//!   `w = u_k - u_{k-1}`, and the harness's `u_next`, force and gathered
//!   displacement), allocated once and reused every step and every run.
//! - `ElasticSolver::pass`: the one seven-phase step kernel. Global dt and
//!   every rate group of a local-time-stepping plan run the same pass; only
//!   its fill and tail have two forms (`Fields`: contiguous whole-domain
//!   streams vs a group's node lists).
//! - The fused kernels: damped elements apply `K_e` to the pre-combined
//!   vector `dt^2 u_k + (dt beta_e / 2) w` in a single template matvec
//!   (ONE 24x24 matrix instead of the two canonical ones — half the flops),
//!   the initial rhs fill folds the diagonal-damping term into the source
//!   term, and the post-exchange tail fuses the history axpy with the
//!   `lhs_inv` scale.
//!
//! The element sweep is serial within a rank, class by class in Morton
//! order: the schedule fixes a deterministic element order, and with it
//! the summation order at every node. Parallelism lives one level up, in
//! ranks and serve workers.

use crate::abc::{accumulate_abc_damping, apply_abc_stiffness_planar, build_abc_faces, AbcFace};
use crate::checkpoint::SolverState;
use crate::layout::to_planar3;
use crate::receivers::Seismogram;
use crate::sources::AssembledSource;
use crate::sweep::SweepSchedule;
use quake_fem::hex8::{elastic_hex_matrices, elastic_matvec, lumped_hex_mass};
use quake_machine::phases::{elastic_step_phases, ElasticStepShape};
use quake_mesh::{Constraint, HexMesh};
use quake_model::attenuation::{damping_target_for_vs, fit_rayleigh};
use quake_telemetry::{Registry, SpanId};
use std::sync::Arc;

/// Rayleigh-damping configuration: the frequency band the elementwise
/// least-squares fit targets.
#[derive(Clone, Copy, Debug)]
pub struct RayleighBand {
    pub f_lo: f64,
    pub f_hi: f64,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ElasticConfig {
    /// Simulated duration (s).
    pub duration: f64,
    /// Time step; `None` = CFL-limited (`cfl * min h/vp`).
    pub dt: Option<f64>,
    /// CFL safety factor.
    pub cfl: f64,
    /// Which domain faces absorb (0/1 -x/+x, 2/3 -y/+y, 4/5 -z/+z).
    /// Default: all but face 4 — z=0 is the free surface.
    pub abc: [bool; 6],
    /// Material attenuation; `None` = lossless.
    pub rayleigh: Option<RayleighBand>,
}

impl ElasticConfig {
    pub fn new(duration: f64) -> ElasticConfig {
        ElasticConfig {
            duration,
            dt: None,
            cfl: 0.5,
            abc: [true, true, true, true, false, true],
            rayleigh: None,
        }
    }
}

/// Outcome of a run: seismograms plus performance accounting.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub seismograms: Vec<Seismogram>,
    pub n_steps: usize,
    pub dt: f64,
    /// Analytic flop count of the run (see `quake-machine`).
    pub flops: u64,
    pub wall_secs: f64,
}

/// The per-rank step schedule: which elements to assemble (class-major, the
/// canonical summation order), which absorbing faces belong to those
/// elements, and which nodes' diagonal damping this rank owns. Built once
/// ([`ElasticSolver::scope`]), reused every step.
pub struct StepScope {
    /// Blocked per-class template schedule of the scope's elements (see
    /// [`crate::sweep`]).
    pub schedule: SweepSchedule,
    /// Absorbing faces owned by the scope's elements.
    pub faces: Vec<AbcFace>,
    /// Owned-node mask (`None` = the scope owns every node).
    pub owned: Option<Vec<bool>>,
}

/// One rate group's share of the time loop: how often it steps, at what
/// step size, and what it sweeps. Global dt is the plan with exactly one of
/// these ([`ElasticSolver::global_pass`]); a
/// [`RateGroupPlan`](crate::rategroup::RateGroupPlan) holds one per level.
pub(crate) struct Pass<'a> {
    /// Base-step stride: the pass runs at base points `s % factor == 0`.
    pub(crate) factor: u64,
    /// The pass's step `factor * dt0`.
    pub(crate) dt: f64,
    /// Element schedule (templates built at `dt`), absorbing faces and — for
    /// a distributed rank's whole-domain pass — the owned-node mask.
    pub(crate) scope: &'a StepScope,
    /// Hanging-node constraints the pass folds and interpolates.
    pub(crate) constraints: &'a [Constraint],
    /// Planar folded LHS inverse `1 / (Mf + dt/2 Cf)` at the pass's `dt`.
    pub(crate) lhs_inv: &'a [f64],
    /// The group's node lists; `None` = the pass owns the whole domain and
    /// runs the contiguous [`Fields::Whole`] form.
    pub(crate) group: Option<&'a GroupNodes>,
}

/// Node partition of one rate group's pass (all lists ascending) and the
/// factor ratios that rescale its halos' damping increments to its own `dt`.
pub(crate) struct GroupNodes {
    /// Nodes this group owns (their fill and tail run in its pass).
    pub(crate) own: Vec<u32>,
    /// Next-finer-owned corners the pass reads (exact shared time level).
    pub(crate) finer_halo: Vec<u32>,
    /// Next-coarser-owned corners the pass reads (leapfrog-interpolated).
    pub(crate) coarser_halo: Vec<u32>,
    /// `f_g / f_{g-1}` (0.0 for group 0, which has no finer neighbor).
    pub(crate) fine_scale: f64,
    /// `f_g / f_{g+1}` (0.0 for the coarsest group).
    pub(crate) coarse_scale: f64,
}

/// The fields one [`ElasticSolver::pass`] advances — the two forms its fill
/// and tail take.
pub(crate) enum Fields<'a> {
    /// The whole domain in contiguous streams: read `(u_prev, u_now)`, leave
    /// `u_{k+1}` in the rhs buffer (the caller rotates the three buffers).
    Whole { u_prev: &'a [f64], u_now: &'a [f64] },
    /// One rate group's node lists: advance the owned nodes of `(u_prev,
    /// u_now)` in place. `ue` receives the displacement the elements see —
    /// own and finer-halo nodes verbatim, coarser-halo nodes interpolated
    /// `u_prev + theta (u_now - u_prev)` inside the coarse group's
    /// straddling step.
    Group {
        u_prev: &'a mut [f64],
        u_now: &'a mut [f64],
        ue: &'a mut [f64],
        nodes: &'a GroupNodes,
        theta: f64,
    },
}

/// Preallocated per-run scratch for the explicit step. Reusing one of these
/// across steps makes the step's steady state allocation-free; reusing it
/// across harness runs makes a warm run allocation-free too.
///
/// The workspace also carries the step's telemetry: a per-rank
/// [`Registry`] (disabled by default — a disabled registry costs one branch
/// per phase) and the pre-interned span ids of the step's phases, so the
/// instrumented hot path performs no string lookups or allocations.
pub struct StepWorkspace {
    /// Damping increment `w = u_k - u_{k-1}`, refreshed each step.
    pub(crate) w: Vec<f64>,
    /// The harness's `u_next` (the pass rhs), force vector and — for plans
    /// with halos — gathered displacement: empty until a harness run sizes
    /// them, so a workspace that only calls `step_with` never carries them.
    pub(crate) u_next: Vec<f64>,
    pub(crate) f: Vec<f64>,
    pub(crate) ue: Vec<f64>,
    /// Per-rank metric registry (see [`ElasticSolver::workspace_instrumented`]).
    pub reg: Registry,
    /// Interned span ids of the step phases.
    pub(crate) ids: StepSpanIds,
}

/// Pre-interned telemetry span ids of the step's phases (see the phase map
/// in DESIGN.md's "Telemetry" section).
pub(crate) struct StepSpanIds {
    pub(crate) step: SpanId,
    pub(crate) fill: SpanId,
    pub(crate) elements: SpanId,
    pub(crate) abc: SpanId,
    pub(crate) fold: SpanId,
    pub(crate) exchange: SpanId,
    pub(crate) tail: SpanId,
    pub(crate) interp: SpanId,
    pub(crate) source: SpanId,
}

impl StepSpanIds {
    fn intern(reg: &Registry) -> StepSpanIds {
        StepSpanIds {
            step: reg.span_id("step"),
            fill: reg.span_id("step/fill"),
            elements: reg.span_id("step/elements"),
            abc: reg.span_id("step/abc"),
            fold: reg.span_id("step/fold"),
            exchange: reg.span_id("step/exchange"),
            tail: reg.span_id("step/tail"),
            interp: reg.span_id("step/interp"),
            source: reg.span_id("source"),
        }
    }
}

impl StepWorkspace {
    /// Move the accumulated telemetry out of the workspace.
    pub fn into_registry(self) -> Registry {
        self.reg
    }
}

/// The assembled explicit solver: a mesh borrow plus the shared, immutable
/// [`SolverData`] derived from it (read through `Deref`, so `solver.dt`,
/// `solver.n_steps` are its fields).
///
/// Hanging-node treatment: stiffness-like terms are applied matrix-free on
/// the full node set and folded exactly (`B^T K B`), while every *diagonal*
/// matrix (mass, damping) is lumped in master space — `diag(B^T D B)`, i.e.
/// squared-weight folding — and used identically on both sides of the
/// update. This keeps the master-space operator symmetric (plain leapfrog
/// stability analysis applies) and the update explicit, which is what the
/// paper means by "the projection preserves the diagonality of A".
pub struct ElasticSolver<'m> {
    pub mesh: &'m HexMesh,
    data: Arc<SolverData>,
}

/// Everything [`ElasticSolver::new`] derives from a mesh and a config — the
/// time step, the step diagonals, the absorbing faces, the Rayleigh
/// constants and the full-domain templates and schedule. It owns
/// its data and borrows nothing, so one build can serve any number of
/// solvers over the same mesh ([`ElasticSolver::attach`]): `quake-serve`
/// builds it once per variant and every worker attaches to the one copy.
pub struct SolverData {
    pub dt: f64,
    pub n_steps: usize,
    /// Lumped nodal mass per node (unprojected; diagnostics only).
    pub(crate) mass: Vec<f64>,
    /// The step diagonals, planar (`dof = comp * n + node`) — the one copy:
    /// the production step streams them, a rate-group plan
    /// ([`crate::rategroup`]) folds the first two into its per-group
    /// `lhs_inv`, and the frozen `reference` oracle indexes them per node.
    /// Projected (squared-weight folded) mass per dof.
    pub(crate) mass_fp: Vec<f64>,
    /// Projected diagonal damping per dof: `a M + b K_diag + C^AB_diag`.
    pub(crate) cdiag_fp: Vec<f64>,
    /// Unprojected `alpha M + C^AB` diagonal (the damping matvec `C w` term
    /// contributed by the owner of each node).
    pub(crate) damp_diag_p: Vec<f64>,
    /// Folded inverse LHS diagonal `1 / (Mf + dt/2 Cf)`.
    pub(crate) lhs_inv_p: Vec<f64>,
    pub(crate) faces: Vec<AbcFace>,
    /// Per-element Rayleigh stiffness constants.
    pub(crate) beta: Vec<f64>,
    /// Full-domain schedule (cached for the serial step's hot path).
    full_scope: StepScope,
}

impl std::ops::Deref for ElasticSolver<'_> {
    type Target = SolverData;

    fn deref(&self) -> &SolverData {
        &self.data
    }
}

impl SolverData {
    /// Assemble the solver data of `mesh` under `cfg` (the work of
    /// [`ElasticSolver::new`]).
    pub fn build(mesh: &HexMesh, cfg: &ElasticConfig) -> SolverData {
        let n = mesh.n_nodes();
        let ndof = 3 * n;
        let mats = elastic_hex_matrices();

        // CFL-limited time step: dt_crit = h / (sqrt(3) vp) for the lumped
        // trilinear hex (tensor-product eigenvalue bound).
        let mut h_over_vp = f64::INFINITY;
        for e in &mesh.elements {
            h_over_vp = h_over_vp.min(e.h / e.material.vp());
        }
        let dt = cfg.dt.unwrap_or(cfg.cfl * h_over_vp / 3.0f64.sqrt());
        assert!(dt > 0.0 && dt.is_finite(), "bad time step {dt}");
        let duration = cfg.duration;
        assert!(duration >= 0.0 && duration.is_finite(), "bad duration {duration}");
        let n_steps = (cfg.duration / dt).ceil() as usize;

        // Rayleigh constants per element.
        let ne = mesh.n_elements();
        let mut alpha = vec![0.0; ne];
        let mut beta = vec![0.0; ne];
        if let Some(band) = cfg.rayleigh {
            for (i, e) in mesh.elements.iter().enumerate() {
                let zeta = damping_target_for_vs(e.material.vs());
                let fit = fit_rayleigh(zeta, band.f_lo, band.f_hi, 16);
                alpha[i] = fit.alpha;
                beta[i] = fit.beta;
            }
        }

        // Assemble lumped mass, aM diag, bK diag. The diagonals are
        // assembled and folded interleaved (`dof = 3 * node + comp`, the
        // mesh's constraint layout) and kept planar only.
        let mut mass = vec![0.0; n];
        let mut am_diag = vec![0.0; ndof];
        let mut bk_diag = vec![0.0; ndof];
        for (i, e) in mesh.elements.iter().enumerate() {
            let me = lumped_hex_mass(e.material.rho, e.h);
            for (c, &nd) in e.nodes.iter().enumerate() {
                mass[nd as usize] += me;
                for comp in 0..3 {
                    am_diag[nd as usize * 3 + comp] += alpha[i] * me;
                    let kd = e.h
                        * (e.material.lambda * mats.k_lambda_diag[3 * c + comp]
                            + e.material.mu * mats.k_mu_diag[3 * c + comp]);
                    bk_diag[nd as usize * 3 + comp] += beta[i] * kd;
                }
            }
        }

        // Stacey faces and their lumped damping.
        let faces = build_abc_faces(mesh, cfg.abc);
        let mut cab_diag = vec![0.0; ndof];
        accumulate_abc_damping(&faces, &mut cab_diag);

        // Projected diagonals: squared-weight folding, used identically on
        // both sides of the update.
        let mut mass_f = vec![0.0; ndof];
        for nd in 0..n {
            for comp in 0..3 {
                mass_f[3 * nd + comp] = mass[nd];
            }
        }
        mesh.fold_hanging_diag(&mut mass_f, 3);
        let mut cdiag_f = vec![0.0; ndof];
        for d in 0..ndof {
            cdiag_f[d] = am_diag[d] + bk_diag[d] + cab_diag[d];
        }
        mesh.fold_hanging_diag(&mut cdiag_f, 3);
        let (mass_fp, cdiag_fp) = (to_planar3(&mass_f), to_planar3(&cdiag_f));

        let mut lhs_inv_p = vec![0.0; ndof];
        for d in 0..ndof {
            lhs_inv_p[d] = 1.0 / (mass_fp[d] + 0.5 * dt * cdiag_fp[d]);
        }

        // Owner-contributed diagonal damping `alpha M + C^AB` (one vector —
        // the step reads it once per dof).
        let mut damp_diag = am_diag;
        for d in 0..ndof {
            damp_diag[d] += cab_diag[d];
        }
        let damp_diag_p = to_planar3(&damp_diag);

        let all: Vec<u32> = (0..ne as u32).collect();
        let full_scope = StepScope {
            schedule: SweepSchedule::build(mesh, &all, &beta, dt),
            faces: faces.clone(),
            owned: None,
        };

        SolverData {
            dt,
            n_steps,
            mass,
            mass_fp,
            cdiag_fp,
            damp_diag_p,
            lhs_inv_p,
            faces,
            beta,
            full_scope,
        }
    }
}

impl<'m> ElasticSolver<'m> {
    pub fn new(mesh: &'m HexMesh, cfg: &ElasticConfig) -> ElasticSolver<'m> {
        ElasticSolver::attach(mesh, Arc::new(SolverData::build(mesh, cfg)))
    }

    /// A solver over `mesh` sharing already-built `data`. `data` must have
    /// been built from this mesh (or an identical one); a mesh of another
    /// shape is refused.
    pub fn attach(mesh: &'m HexMesh, data: Arc<SolverData>) -> ElasticSolver<'m> {
        assert_eq!(
            (mesh.n_nodes(), mesh.n_elements()),
            (data.mass.len(), data.beta.len()),
            "solver data was built from a different mesh"
        );
        ElasticSolver { mesh, data }
    }

    /// A fresh preallocated step workspace for this solver's mesh, with
    /// telemetry disabled (the hot path pays one branch per phase).
    pub fn workspace(&self) -> StepWorkspace {
        self.workspace_with(Registry::disabled())
    }

    /// A workspace whose [`Registry`] records per-phase span timings for
    /// `rank` (use rank 0 for serial runs). Read the result from
    /// [`StepWorkspace::reg`] or [`StepWorkspace::into_registry`].
    pub fn workspace_instrumented(&self, rank: usize) -> StepWorkspace {
        self.workspace_with(Registry::new(rank))
    }

    /// A workspace driven by a caller-built [`Registry`] — for drivers that
    /// need a shared epoch across ranks or a flight recorder attached before
    /// the first step (see [`Registry::with_epoch`] /
    /// [`Registry::enable_trace`]).
    pub fn workspace_with(&self, reg: Registry) -> StepWorkspace {
        let ids = StepSpanIds::intern(&reg);
        let (u_next, f, ue) = (Vec::new(), Vec::new(), Vec::new());
        StepWorkspace { w: vec![0.0; 3 * self.mesh.n_nodes()], u_next, f, ue, reg, ids }
    }

    /// The cached full-domain step schedule (the one [`ElasticSolver::step_with`] runs).
    pub fn full_scope(&self) -> &StepScope {
        &self.full_scope
    }

    /// The analytic per-step shape of a scope (damped/undamped element
    /// split, nodes, hanging nodes, faces) for `quake-machine`'s per-phase
    /// cost model. `exchange_doubles` is zero — only the caller that built
    /// the exchange plan knows the interface volume.
    pub fn phase_shape(&self, scope: &StepScope) -> ElasticStepShape {
        self.pass_shape(&self.global_pass(scope))
    }

    /// [`ElasticSolver::phase_shape`] of one pass: a rate group's pass
    /// counts its own elements, faces and constraint clusters and the nodes
    /// it advances (halo gathers are not modeled).
    pub(crate) fn pass_shape(&self, pass: &Pass<'_>) -> ElasticStepShape {
        let schedule = &pass.scope.schedule;
        let n_damped = schedule.n_damped() as u64;
        ElasticStepShape {
            n_damped,
            n_undamped: schedule.n_elements() as u64 - n_damped,
            // Whole domain: fill/tail are replicated over all dofs on every rank.
            n_nodes: pass.group.map_or(self.mesh.n_nodes(), |g| g.own.len()) as u64,
            n_hanging: pass.constraints.len() as u64,
            n_abc_faces: pass.scope.faces.len() as u64,
            exchange_doubles: 0,
            n_lanes: schedule.n_lanes() as u64,
        }
    }

    /// Record the analytic flop/byte counts of `n_steps` steps of `shape`
    /// (a scope's [`ElasticSolver::phase_shape`], or a caller-adjusted one
    /// with a distributed rank's real `exchange_doubles`) into `reg` as
    /// `step/<phase>/flops` and `step/<phase>/bytes` counters (absolute set,
    /// so calling again after more steps overwrites). These are the
    /// denominators the roofline report divides the measured span times into.
    pub fn record_step_costs(&self, shape: &ElasticStepShape, n_steps: u64, reg: &Registry) {
        if !reg.is_enabled() {
            return;
        }
        for p in elastic_step_phases(shape) {
            reg.set(&format!("step/{}/flops", p.name), p.flops * n_steps);
            reg.set(&format!("step/{}/bytes", p.name), p.bytes * n_steps);
        }
        // The lanes the element matvec computed for those flops: lanes beyond
        // the element count are executed work no element uses.
        reg.set("step/elements/lanes", shape.n_lanes * n_steps);
    }

    /// Build the step schedule for an element subset: the class-major
    /// sweep schedule, the subset's absorbing faces, and the
    /// owned-node mask (`None` = owns everything). One-time cost per rank.
    pub fn scope(&self, elems: &[u32], owned: Option<Vec<bool>>) -> StepScope {
        self.scope_at(elems, owned, self.dt)
    }

    /// [`ElasticSolver::scope`] with the sweep templates built at `dt` — a
    /// rate group's pass steps its elements at a multiple of the base step.
    pub(crate) fn scope_at(&self, elems: &[u32], owned: Option<Vec<bool>>, dt: f64) -> StepScope {
        let mut mine = vec![false; self.mesh.n_elements()];
        for &e in elems {
            mine[e as usize] = true;
        }
        StepScope {
            schedule: SweepSchedule::build(self.mesh, elems, &self.beta, dt),
            faces: self.faces.iter().filter(|f| mine[f.element as usize]).copied().collect(),
            owned,
        }
    }

    /// Global dt as a [`Pass`]: the one group that steps every base step at
    /// the solver's `dt` and owns every node of `scope`.
    pub(crate) fn global_pass<'a>(&'a self, scope: &'a StepScope) -> Pass<'a> {
        Pass {
            factor: 1,
            dt: self.dt,
            scope,
            constraints: &self.mesh.constraints,
            lhs_inv: &self.lhs_inv_p,
            group: None,
        }
    }

    /// One explicit step over the full domain, reusing `ws` — the
    /// allocation-free hot path: given `u_prev = u_{k-1}`, `u_now = u_k`
    /// (both with hanging nodes interpolated) and the external force `f_ext`
    /// (physical units, at time level k), fill `u_next`. All four vectors
    /// are **planar** (`dof = comp * n_nodes + node`; see [`crate::layout`]).
    pub fn step_with(
        &self,
        u_prev: &[f64],
        u_now: &[f64],
        f_ext: &[f64],
        u_next: &mut [f64],
        ws: &mut StepWorkspace,
    ) {
        // The global pass over the full domain, with no exchange to fail.
        let pass = self.global_pass(&self.full_scope);
        let fields = Fields::Whole { u_prev, u_now };
        let StepWorkspace { w, reg, ids, .. } = ws;
        let done = self.pass(&pass, fields, f_ext, u_next, w, reg, ids, &mut |_, _| Ok(()));
        debug_assert!(done.is_ok(), "a step without an exchange cannot fail");
    }

    /// The seven-phase pass (fill, elements, abc, fold, exchange, tail,
    /// interp) — the one step kernel. `pass` selects what is swept (a rank's
    /// scope at the global dt, or one rate group's elements at its own dt)
    /// and `fields` what is advanced; only fill and tail differ between the
    /// two forms of [`Fields`], everything between them exists once.
    ///
    /// `f_ext` must hold only this rank's share of the sources; the scope's
    /// owned-node mask (`None` = all) selects the nodes whose diagonal
    /// damping term this rank contributes — exactly one rank must own each
    /// node. All partial terms are constraint-folded *before* `exchange`
    /// (the fold is linear, so per-rank folded partials sum to the global
    /// fold); everything after the exchange is local and replicated. A
    /// failed exchange aborts the pass before the tail, so `fields` still
    /// describes the last completed pass.
    ///
    /// All nodal vectors — including the rhs handed to `exchange` — are
    /// planar. `w`, `reg` and `ids` are pieces of the caller's
    /// [`StepWorkspace`], whose other buffers the rhs and fields may borrow.
    /// The closure also receives `reg`, so an instrumented exchange can
    /// attribute `wait`/`copy` sub-intervals under the open `step/exchange`
    /// span. It is a trait object, not a generic, so that `step_with` and
    /// `SolverHarness` run one compiled copy of this kernel: with a copy
    /// each, the harness's `tail` phase ran 1.2–1.5× slower than
    /// `step_with`'s on the same mesh.
    ///
    /// Steady-state heap allocations: **zero** (scratch lives in the
    /// workspace, the face list and schedule in the pass).
    pub(crate) fn pass(
        &self,
        pass: &Pass<'_>,
        mut fields: Fields<'_>,
        f_ext: &[f64],
        rhs: &mut [f64],
        w: &mut [f64],
        reg: &Registry,
        ids: &StepSpanIds,
        exchange: &mut dyn FnMut(&mut [f64], &Registry) -> Result<(), String>,
    ) -> Result<(), String> {
        let n = self.mesh.n_nodes();
        let ndof = 3 * n;
        assert_eq!(f_ext.len(), ndof);
        assert_eq!(rhs.len(), ndof);
        assert_eq!(w.len(), ndof);
        let dt = pass.dt;
        let dt2 = dt * dt;
        let SolverData { mass_fp, cdiag_fp, damp_diag_p, .. } = &*self.data;

        // The explicit step allocates nothing (scratch lives in the
        // workspace, span ids are pre-interned; the root tests/alloc_free.rs
        // counts it) and is bit-deterministic (the root tests/bit_pins.rs
        // pins its output).
        reg.enter(ids.step);

        // Fused initial fill: one pass computes the damping increment
        // `w = u_k - u_{k-1}`, the source term, and the owner's diagonal
        // damping contribution -(dt/2) (alpha M + C^AB) w into the rhs.
        reg.enter(ids.fill);
        match &mut fields {
            // Planar layout: the unmasked whole-domain fill is one
            // contiguous stream over all three planes.
            Fields::Whole { u_prev, u_now } => {
                let (u_prev, u_now) = (*u_prev, *u_now);
                assert_eq!(u_prev.len(), ndof);
                assert_eq!(u_now.len(), ndof);
                match &pass.scope.owned {
                    None => {
                        for d in 0..ndof {
                            let wd = u_now[d] - u_prev[d];
                            w[d] = wd;
                            rhs[d] = dt2 * f_ext[d] - 0.5 * dt * damp_diag_p[d] * wd;
                        }
                    }
                    Some(mask) => {
                        for comp in 0..3 {
                            for (nd, &own) in mask.iter().enumerate() {
                                let d = comp * n + nd;
                                let wd = u_now[d] - u_prev[d];
                                w[d] = wd;
                                rhs[d] = dt2 * f_ext[d]
                                    - if own { 0.5 * dt * damp_diag_p[d] * wd } else { 0.0 };
                            }
                        }
                    }
                }
            }
            // Fused gather + fill over the group's active nodes. Own nodes:
            // the whole-domain fill verbatim at this group's dt. Halo nodes:
            // gather-only (their rhs is scratch this pass never consumes),
            // with the damping increment rescaled to this pass's dt and the
            // coarser halo leapfrog-interpolated to this pass's time level.
            Fields::Group { u_prev, u_now, ue, nodes, theta } => {
                let (u_prev, u_now, ue) = (&**u_prev, &**u_now, &mut **ue);
                assert_eq!(u_prev.len(), ndof);
                assert_eq!(u_now.len(), ndof);
                assert_eq!(ue.len(), ndof);
                for comp in 0..3 {
                    let base = comp * n;
                    for &nd in &nodes.own {
                        let d = base + nd as usize;
                        let wd = u_now[d] - u_prev[d];
                        ue[d] = u_now[d];
                        w[d] = wd;
                        rhs[d] = dt2 * f_ext[d] - 0.5 * dt * damp_diag_p[d] * wd;
                    }
                    for &nd in &nodes.finer_halo {
                        let d = base + nd as usize;
                        ue[d] = u_now[d];
                        w[d] = nodes.fine_scale * (u_now[d] - u_prev[d]);
                        rhs[d] = 0.0;
                    }
                    for &nd in &nodes.coarser_halo {
                        let d = base + nd as usize;
                        let delta = u_now[d] - u_prev[d];
                        ue[d] = u_prev[d] + *theta * delta;
                        w[d] = nodes.coarse_scale * delta;
                        rhs[d] = 0.0;
                    }
                }
            }
        }
        reg.exit(ids.fill);

        // The displacement the elements see: the state itself, or the
        // group's gathered (halo-interpolated) copy.
        let disp: &[f64] = match &fields {
            Fields::Whole { u_now, .. } => u_now,
            Fields::Group { ue, .. } => ue,
        };

        // Element stiffness/damping sweep, class-major (the canonical
        // summation order), blocked per class.
        reg.enter(ids.elements);
        pass.scope.schedule.sweep(disp, w, rhs);
        reg.exit(ids.elements);

        // Stacey tangential coupling (K^AB) of this pass's faces, applied
        // as a traction force directly into the rhs (pre-scaled by dt^2).
        reg.enter(ids.abc);
        apply_abc_stiffness_planar(&pass.scope.faces, disp, rhs, dt2);
        reg.exit(ids.abc);

        // Project this rank's partial terms BEFORE the exchange. The fold is
        // linear, so the sum of per-rank folded partials equals the fold of
        // the assembled sum — and no rank ever needs hanging-node values it
        // did not itself assemble. (A rate group folds only its own
        // constraint clusters: they never cross groups.)
        reg.enter(ids.fold);
        HexMesh::fold_constraints_planar(pass.constraints, n, rhs, 3);
        reg.exit(ids.fold);

        // Sum-exchange the partially assembled terms at interface nodes
        // (planar dof indices).
        reg.enter(ids.exchange);
        let exchanged = exchange(rhs, reg);
        reg.exit(ids.exchange);
        if exchanged.is_err() {
            reg.exit(ids.step);
            return exchanged;
        }

        // Fused tail: master-space history terms with the *projected*
        // diagonals (same matrices as the LHS — this symmetry is what keeps
        // the constrained update stable) and the diagonal solve, one pass:
        //   u+ = lhs_inv * (rhs + 2 Mf u0 - Mf u- + (dt/2) Cf u0)
        // then the hanging nodes of the new field are interpolated.
        reg.enter(ids.tail);
        let advanced: &mut [f64] = match fields {
            // Whole domain: `u+` lands in the rhs buffer (the caller's
            // `u_next`); the caller rotates the three buffers.
            Fields::Whole { u_prev, u_now } => {
                for d in 0..ndof {
                    rhs[d] = (rhs[d] + (2.0 * mass_fp[d] + 0.5 * dt * cdiag_fp[d]) * u_now[d]
                        - mass_fp[d] * u_prev[d])
                        * pass.lhs_inv[d];
                }
                rhs
            }
            // Rate group: groups advance staggered node subsets, so the
            // history shifts in place per owned node instead.
            Fields::Group { u_prev, u_now, nodes, .. } => {
                for comp in 0..3 {
                    let base = comp * n;
                    for &nd in &nodes.own {
                        let d = base + nd as usize;
                        let val = (rhs[d] + (2.0 * mass_fp[d] + 0.5 * dt * cdiag_fp[d]) * u_now[d]
                            - mass_fp[d] * u_prev[d])
                            * pass.lhs_inv[d];
                        u_prev[d] = u_now[d];
                        u_now[d] = val;
                    }
                }
                u_now
            }
        };
        reg.exit(ids.tail);
        reg.enter(ids.interp);
        HexMesh::interpolate_constraints_planar(pass.constraints, n, advanced, 3);
        reg.exit(ids.interp);
        reg.exit(ids.step);
        Ok(())
    }

    /// Run the full simulation with the given sources and receiver nodes.
    /// `u0`/`v0` optionally set an initial state (e.g. a plane-wave pulse).
    ///
    /// Thin shim over [`SolverHarness::run_simulation`](crate::harness::SolverHarness::run_simulation)
    /// — resumable, instrumented, or checkpointed runs drive the harness
    /// directly with their own workspace, state, and hooks.
    pub fn run(
        &self,
        sources: &[AssembledSource],
        receiver_nodes: &[u32],
        initial: Option<(&[f64], &[f64])>,
    ) -> RunResult {
        let mut ws = self.workspace();
        let state = self.initial_state(receiver_nodes.len(), initial);
        let (result, _) = crate::harness::SolverHarness::new(self)
            .run_simulation(sources, receiver_nodes, state, &mut ws, None)
            .expect("no checkpoint sink, so no failure mode");
        result
    }

    /// Fresh [`SolverState`] at step 0 with empty traces. `u0`/`v0`
    /// optionally seed an initial displacement/velocity field — both given
    /// in the public *interleaved* layout (`dof = 3 * node + comp`); the
    /// state they seed is planar (see [`crate::layout`]).
    pub fn initial_state(
        &self,
        n_receivers: usize,
        initial: Option<(&[f64], &[f64])>,
    ) -> SolverState {
        self.staggered_state(n_receivers, initial, |_| self.dt, self.dt)
    }

    /// The backward start behind every `initial_state`: `u_now = u(0)` and
    /// `u_prev = u(-dt) ~ u0 - dt v0` with each node's own staggered step
    /// `node_dt(node)` (first order is enough: the error is O(dt^2),
    /// matching the scheme); seismograms sample every `sample_dt`.
    pub(crate) fn staggered_state(
        &self,
        n_receivers: usize,
        initial: Option<(&[f64], &[f64])>,
        node_dt: impl Fn(usize) -> f64,
        sample_dt: f64,
    ) -> SolverState {
        let n = self.mesh.n_nodes();
        let ndof = 3 * n;
        let mut u_prev = vec![0.0; ndof];
        let mut u_now = vec![0.0; ndof];
        if let Some((u0, v0)) = initial {
            check_seed(u0, v0, ndof);
            for nd in 0..n {
                let dt = node_dt(nd);
                for comp in 0..3 {
                    let d = comp * n + nd;
                    let i = 3 * nd + comp;
                    u_now[d] = u0[i];
                    u_prev[d] = u0[i] - dt * v0[i];
                }
            }
        }
        SolverState {
            step: 0,
            u_prev,
            u_now,
            seismograms: (0..n_receivers).map(|_| Seismogram::new(sample_dt, 3)).collect(),
        }
    }

    /// Total mechanical energy `1/2 v^T M v + 1/2 u^T K u` with
    /// `v = (u_now - u_prev)/dt`, over vectors in the solver's *planar*
    /// layout (`dof = comp * n_nodes + node`) — the layout of
    /// [`SolverState::u_prev`]/[`SolverState::u_now`].
    pub fn energy_planar(&self, u_prev: &[f64], u_now: &[f64]) -> f64 {
        self.energy_sum(u_prev, u_now, |_| self.dt)
    }

    /// The whole-mesh [`ElasticSolver::energy_over`]: every node, every
    /// element, in mesh order.
    pub(crate) fn energy_sum(
        &self,
        u_prev: &[f64],
        u_now: &[f64],
        node_dt: impl Fn(usize) -> f64,
    ) -> f64 {
        let (n_nodes, n_elements) = (self.mesh.n_nodes(), self.mesh.n_elements());
        self.energy_over(0..n_nodes, 0..n_elements, u_prev, u_now, node_dt)
    }

    /// The one kinetic + strain sum behind every energy entry point, over
    /// planar vectors: kinetic energy of `nodes`, strain energy of
    /// `elements`, each summed in the order given. `node_dt(node)` is the
    /// node's staggered step `v = (u_now - u_prev)/dt` is taken over —
    /// uniform under global dt, the owner group's at a rate-group sync step.
    pub(crate) fn energy_over(
        &self,
        nodes: impl Iterator<Item = usize>,
        elements: impl Iterator<Item = usize>,
        u_prev: &[f64],
        u_now: &[f64],
        node_dt: impl Fn(usize) -> f64,
    ) -> f64 {
        let n = self.mesh.n_nodes();
        let dof = |nd: usize, comp: usize| comp * n + nd;
        let mats = elastic_hex_matrices();
        let mut e_kin = 0.0;
        for nd in nodes {
            let (m, dt) = (self.mass[nd], node_dt(nd));
            for comp in 0..3 {
                let d = dof(nd, comp);
                let v = (u_now[d] - u_prev[d]) / dt;
                e_kin += 0.5 * m * v * v;
            }
        }
        let mut e_str = 0.0;
        for ei in elements {
            let e = &self.mesh.elements[ei];
            let mut x = [0.0; 24];
            for (c, &nd) in e.nodes.iter().enumerate() {
                for comp in 0..3 {
                    x[3 * c + comp] = u_now[dof(nd as usize, comp)];
                }
            }
            let mut y = [0.0; 24];
            elastic_matvec(mats, e.material.lambda, e.material.mu, e.h, &x, &mut y);
            for i in 0..24 {
                e_str += 0.5 * x[i] * y[i];
            }
        }
        e_kin + e_str
    }
}

/// Refuse a seed field that is not `ndof` values long or holds a NaN or
/// +-inf, naming the field and the first bad index: leapfrog would carry
/// the bad value into every step.
pub(crate) fn check_seed(u0: &[f64], v0: &[f64], ndof: usize) {
    for (name, field) in [("u0", u0), ("v0", v0)] {
        assert_eq!(field.len(), ndof, "initial {name} must hold {ndof} values");
        if let Some(i) = field.iter().position(|v| !v.is_finite()) {
            panic!("initial {name}[{i}] is {}, not finite", field[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_mesh::HexMesh;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};

    fn uniform_mesh(level: u8, l: f64, lambda: f64, mu: f64, rho: f64) -> HexMesh {
        HexMesh::from_octree(&LinearOctree::uniform(level), l, |_, _, _, _| ElemMaterial {
            lambda,
            mu,
            rho,
        })
    }

    /// Shorthand: drive the harness's source-free loop to a final state.
    fn run_to_state(
        solver: &ElasticSolver<'_>,
        initial: Option<(&[f64], &[f64])>,
        n_steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        crate::harness::SolverHarness::new(solver).run_to_state(initial, n_steps)
    }

    /// Energy of an interleaved `run_to_state` result: converted to the
    /// solver's planar layout at the test boundary.
    fn energy(solver: &ElasticSolver<'_>, u_prev: &[f64], u_now: &[f64]) -> f64 {
        solver.energy_planar(&to_planar3(u_prev), &to_planar3(u_now))
    }

    /// Gaussian shear pulse traveling in +x: u_y = exp(-((x-x0)/w)^2).
    fn shear_pulse(mesh: &HexMesh, x0: f64, w: f64, vs: f64) -> (Vec<f64>, Vec<f64>) {
        let n = mesh.n_nodes();
        let mut u = vec![0.0; 3 * n];
        let mut v = vec![0.0; 3 * n];
        for (i, c) in mesh.coords.iter().enumerate() {
            let a = (c[0] - x0) / w;
            let g = (-a * a).exp();
            u[3 * i + 1] = g;
            // For a rightward-traveling wave f(x - vs t): du/dt = -vs f'.
            v[3 * i + 1] = vs * 2.0 * a / w * g;
        }
        (u, v)
    }

    #[test]
    fn zero_state_stays_zero() {
        let mesh = uniform_mesh(2, 8.0, 2.0, 1.0, 1.0);
        let solver = ElasticSolver::new(&mesh, &ElasticConfig::new(1.0));
        let (up, un) = run_to_state(&solver, None, 10);
        assert!(up.iter().chain(&un).all(|&v| v == 0.0));
    }

    #[test]
    fn non_finite_or_negative_durations_are_refused_at_build() {
        let mesh = uniform_mesh(1, 8.0, 2.0, 1.0, 1.0);
        for duration in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let built = std::panic::catch_unwind(|| {
                SolverData::build(&mesh, &ElasticConfig::new(duration))
            });
            let err = built.err().unwrap_or_else(|| panic!("duration {duration} was accepted"));
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("duration"), "duration {duration}: {msg}");
        }
    }

    #[test]
    fn dt_respects_cfl() {
        let mesh = uniform_mesh(3, 8.0, 2.0, 1.0, 1.0);
        let solver = ElasticSolver::new(&mesh, &ElasticConfig::new(1.0));
        let h = 1.0;
        let vp = ((2.0 + 2.0) / 1.0f64).sqrt();
        assert!(solver.dt <= 0.5 * h / vp + 1e-12);
    }

    #[test]
    fn energy_conserved_without_damping_or_abc() {
        let mesh = uniform_mesh(3, 8.0, 2.0, 1.0, 1.0);
        let mut cfg = ElasticConfig::new(0.5);
        cfg.abc = [false; 6];
        // Well inside the stability limit: the staggered-velocity energy
        // proxy oscillates with O((dt w)^2) amplitude near the CFL limit.
        cfg.dt = Some(0.05);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.0, 1.0);
        let (up1, un1) = run_to_state(&solver, Some((&u0, &v0)), 1);
        let e_start = energy(&solver, &up1, &un1);
        let (up, un) = run_to_state(&solver, Some((&u0, &v0)), 200);
        let e_end = energy(&solver, &up, &un);
        assert!((e_end - e_start).abs() < 5e-3 * e_start, "energy drift {e_start} -> {e_end}");
        assert!(e_start > 0.0);
    }

    #[test]
    fn pulse_travels_at_shear_speed() {
        // d'Alembert: a rightward shear pulse at x0 arrives at x0 + vs*T.
        // Free boundaries pollute from the y/z faces at vp, so measure at the
        // center before pollution arrives.
        let (lambda, mu, rho) = (2.0f64, 1.0f64, 1.0f64);
        let vs = (mu / rho).sqrt(); // 1.0
        let mesh = uniform_mesh(4, 16.0, lambda, mu, rho); // h = 1
        let mut cfg = ElasticConfig::new(1.0);
        cfg.abc = [false; 6];
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 5.0, 2.5, vs);
        let travel = 3.0; // seconds; pollution needs 8/vp = 4 s to reach center
        let n_steps = (travel / solver.dt).round() as usize;
        let (_, un) = run_to_state(&solver, Some((&u0, &v0)), n_steps);
        // Compare u_y along the center line y = z = 8 against the analytic
        // translated pulse.
        let t_actual = n_steps as f64 * solver.dt;
        let mut err = 0.0;
        let mut norm = 0.0;
        for (i, c) in mesh.coords.iter().enumerate() {
            if (c[1] - 8.0).abs() < 1e-9 && (c[2] - 8.0).abs() < 1e-9 {
                let a = (c[0] - 5.0 - vs * t_actual) / 2.5;
                let exact = (-a * a).exp();
                let got = un[3 * i + 1];
                err += (got - exact) * (got - exact);
                norm += exact * exact;
            }
        }
        let rel = (err / norm).sqrt();
        assert!(rel < 0.08, "relative waveform error {rel}");
    }

    #[test]
    fn abc_absorbs_outgoing_pulse() {
        let mesh = uniform_mesh(3, 8.0, 2.0, 1.0, 1.0);
        let mut cfg = ElasticConfig::new(1.0);
        cfg.abc = [true; 6];
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.0, 1.0);
        let (up1, un1) = run_to_state(&solver, Some((&u0, &v0)), 1);
        let e_start = energy(&solver, &up1, &un1);
        // After the pulse crosses the domain (8 units at vs = 1 -> 8 s) it
        // should be mostly gone.
        let n_steps = (10.0 / solver.dt).round() as usize;
        let (up, un) = run_to_state(&solver, Some((&u0, &v0)), n_steps);
        let e_end = energy(&solver, &up, &un);
        // Stacey is exact only at normal incidence; the 1-D pulse grazes the
        // four side faces, which is the worst case — ~10-15% residual is the
        // expected behaviour (compare the reflecting control test: > 90%).
        assert!(e_end < 0.2 * e_start, "ABC left {:.1}% of the energy", 100.0 * e_end / e_start);
    }

    #[test]
    fn reflecting_box_keeps_energy_in() {
        // Control for the ABC test: with free boundaries the energy stays.
        let mesh = uniform_mesh(3, 8.0, 2.0, 1.0, 1.0);
        let mut cfg = ElasticConfig::new(1.0);
        cfg.abc = [false; 6];
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.0, 1.0);
        let (up1, un1) = run_to_state(&solver, Some((&u0, &v0)), 1);
        let e_start = energy(&solver, &up1, &un1);
        let n_steps = (10.0 / solver.dt).round() as usize;
        let (up, un) = run_to_state(&solver, Some((&u0, &v0)), n_steps);
        let e_end = energy(&solver, &up, &un);
        assert!(e_end > 0.9 * e_start, "free box lost energy: {e_start} -> {e_end}");
    }

    #[test]
    fn rayleigh_damping_decays_energy() {
        let mesh = uniform_mesh(3, 8.0, 2.0, 1.0, 1.0);
        let mut cfg = ElasticConfig::new(1.0);
        cfg.abc = [false; 6];
        cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.0, 1.0);
        let (up1, un1) = run_to_state(&solver, Some((&u0, &v0)), 1);
        let e_start = energy(&solver, &up1, &un1);
        let n_steps = (8.0 / solver.dt).round() as usize;
        let (up, un) = run_to_state(&solver, Some((&u0, &v0)), n_steps);
        let e_end = energy(&solver, &up, &un);
        assert!(e_end < 0.7 * e_start, "damping too weak: {e_start} -> {e_end}");
        assert!(e_end > 0.0);
    }

    #[test]
    fn hanging_node_mesh_propagates_smoothly() {
        // A multiresolution mesh must carry a pulse across the refinement
        // interface without blowing up and with bounded interface artifacts:
        // compare against the uniform-coarse solution on shared nodes.
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut tree = LinearOctree::build(|o| o.level < 3 || (o.level < 4 && o.x < half));
        tree.balance(BalanceMode::Full);
        let mk = |t: &LinearOctree| {
            HexMesh::from_octree(t, 8.0, |_, _, _, _| ElemMaterial {
                lambda: 2.0,
                mu: 1.0,
                rho: 1.0,
            })
        };
        let mesh_fine = mk(&tree);
        assert!(mesh_fine.n_hanging() > 0);
        let mesh_coarse = mk(&LinearOctree::uniform(3));
        let mut cfg = ElasticConfig::new(1.0);
        cfg.abc = [false; 6];
        // Use the same dt for comparability.
        cfg.dt = Some(0.1);
        let s_fine = ElasticSolver::new(&mesh_fine, &cfg);
        let s_coarse = ElasticSolver::new(&mesh_coarse, &cfg);
        let (u0f, v0f) = shear_pulse(&mesh_fine, 4.0, 1.5, 1.0);
        let (u0c, v0c) = shear_pulse(&mesh_coarse, 4.0, 1.5, 1.0);
        let n_steps = 20;
        let (_, unf) = run_to_state(&s_fine, Some((&u0f, &v0f)), n_steps);
        let (_, unc) = run_to_state(&s_coarse, Some((&u0c, &v0c)), n_steps);
        // Compare on the coarse mesh's nodes.
        let mut fine_by_grid = std::collections::HashMap::new();
        for (i, g) in mesh_fine.grid_coords.iter().enumerate() {
            fine_by_grid.insert(*g, i);
        }
        let mut err = 0.0;
        let mut norm = 0.0;
        for (i, g) in mesh_coarse.grid_coords.iter().enumerate() {
            let j = fine_by_grid[g];
            let d = unf[3 * j + 1] - unc[3 * i + 1];
            err += d * d;
            norm += unc[3 * i + 1] * unc[3 * i + 1];
        }
        let rel = (err / norm).sqrt();
        assert!(rel < 0.1, "fine/coarse mismatch {rel}");
        assert!(unf.iter().all(|v| v.is_finite()));
    }

    /// A hanging-node mesh with Rayleigh damping and ABC — the satellite
    /// equivalence scenario.
    fn damped_hanging_setup() -> (HexMesh, ElasticConfig) {
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut tree = LinearOctree::build(|o| o.level < 3 || (o.level < 4 && o.x < half));
        tree.balance(BalanceMode::Full);
        let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(0.05);
        cfg.abc = [true, true, true, true, false, true];
        cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        (mesh, cfg)
    }

    #[test]
    fn fused_step_matches_reference_on_damped_hanging_mesh() {
        // The overhauled step (planar SoA state, per-class template sweep,
        // blocked batches, in-place ABC) against the frozen pre-optimization
        // interleaved reference step: <= 1e-12 relative on every dof after
        // several steps.
        let (mesh, cfg) = damped_hanging_setup();
        assert!(mesh.n_hanging() > 0);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.5, 1.0);
        let ndof = 3 * mesh.n_nodes();

        // Path A (production): planar state.
        let mut up_b = vec![0.0; ndof];
        let mut un_b = u0.clone();
        for d in 0..ndof {
            up_b[d] = u0[d] - solver.dt * v0[d];
        }
        let mut up_a = crate::layout::to_planar3(&up_b);
        let mut un_a = crate::layout::to_planar3(&un_b);
        let mut next_a = vec![0.0; ndof];
        let mut next_b = vec![0.0; ndof];
        let f = vec![0.0; ndof];
        let mut ws = solver.workspace();
        for _ in 0..25 {
            solver.step_with(&up_a, &un_a, &f, &mut next_a, &mut ws);
            crate::reference::reference_step(&solver, &up_b, &un_b, &f, &mut next_b);
            std::mem::swap(&mut up_a, &mut un_a);
            std::mem::swap(&mut un_a, &mut next_a);
            std::mem::swap(&mut up_b, &mut un_b);
            std::mem::swap(&mut un_b, &mut next_b);
        }
        let un_a = crate::layout::to_interleaved3(&un_a);
        let scale = un_b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(scale > 0.0);
        let mut worst = 0.0f64;
        for d in 0..ndof {
            worst = worst.max((un_a[d] - un_b[d]).abs() / scale);
        }
        assert!(worst <= 1e-12, "fused vs reference relative error {worst}");
    }

    #[test]
    fn instrumented_step_accounts_every_phase() {
        // Under global dt (the one-group plan) and under a 3-group rate
        // plan alike: the seven phases are the only children of the `step`
        // span, and the analytic work attached to them counts every pass.
        use crate::harness::{NoExchange, RunConfig, SolverHarness, TelemetryHook};
        use crate::rategroup::RateGroupPlan;
        let mesh = crate::rategroup::tests::three_level_mesh();
        let (_, mut cfg) = damped_hanging_setup();
        cfg.dt = Some(0.02);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let harness = SolverHarness::new(&solver);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.5, 1.0);
        let n_steps = 8u64;
        let run_cfg = RunConfig::to_step(n_steps);
        const PHASES: [&str; 7] = ["fill", "elements", "abc", "fold", "exchange", "tail", "interp"];

        for plan in [None, Some(RateGroupPlan::build(&solver, 8))] {
            let mut ws = solver.workspace_instrumented(0);
            let mut telemetry = TelemetryHook::new(&solver);
            let hooks: &mut [&mut dyn crate::harness::StepHook] = &mut [&mut telemetry];
            // Passes executed, element updates performed and matvec lanes
            // computed over the run.
            let (n_passes, element_updates, lanes) = match &plan {
                None => {
                    let mut state = solver.initial_state(0, Some((&u0, &v0)));
                    harness.run(&run_cfg, &mut state, &mut ws, &mut NoExchange, hooks);
                    let lanes = solver.full_scope().schedule.n_lanes() as u64;
                    (n_steps, n_steps * mesh.n_elements() as u64, n_steps * lanes)
                }
                Some(plan) => {
                    assert_eq!(plan.factors(), &[1, 2, 4]);
                    let mut state = plan.initial_state(&solver, 0, Some((&u0, &v0)));
                    harness.run_grouped(
                        plan,
                        &run_cfg,
                        &mut state,
                        &mut ws,
                        &mut NoExchange,
                        hooks,
                    );
                    let cycles = n_steps / plan.cycle();
                    let lanes: u64 = plan
                        .passes()
                        .iter()
                        .map(|p| plan.cycle() / p.factor * p.scope.schedule.n_lanes() as u64)
                        .sum();
                    (
                        cycles * (4 + 2 + 1),
                        cycles * plan.element_updates_per_cycle(),
                        cycles * lanes,
                    )
                }
            };
            let reg = ws.into_registry();

            // One `step` span per pass; the seven phases are its only
            // children, so their total time must equal the step's child
            // time exactly (no lost nanoseconds).
            let step = reg.span_stats("step").unwrap();
            assert_eq!(step.count, n_passes);
            let mut child_ns = 0;
            for ph in PHASES {
                let s = reg.span_stats(&format!("step/{ph}")).unwrap();
                assert_eq!(s.count, n_passes, "phase {ph} missed a pass");
                child_ns += s.total_ns;
            }
            assert_eq!(child_ns, step.child_ns);

            // Analytic work was attached to every phase (exchange has zero
            // flops but the counter still exists), per pass: the element
            // phase counts each group's elements at the group's own rate,
            // not the full mesh every base step.
            for ph in PHASES {
                assert!(reg.counter(&format!("step/{ph}/flops")).is_some());
                assert!(reg.counter(&format!("step/{ph}/bytes")).is_some());
            }
            assert_eq!(
                reg.counter("step/elements/flops").unwrap(),
                quake_machine::flops::TEMPLATE_HEX_ELEMENT * element_updates
            );
            // The lanes the matvec computed for them: never fewer than the
            // elements, each pass's own schedule at its own rate.
            assert_eq!(reg.counter("step/elements/lanes").unwrap(), lanes);
            assert!(lanes >= element_updates);
            if plan.is_none() {
                // The one-group plan's totals are the full-domain shape's.
                let full = Registry::new(0);
                solver.record_step_costs(&solver.phase_shape(solver.full_scope()), n_steps, &full);
                for ph in PHASES {
                    for unit in ["flops", "bytes"] {
                        let name = format!("step/{ph}/{unit}");
                        assert_eq!(reg.counter(&name), full.counter(&name), "{name}");
                    }
                }
            }
        }
        let shape = solver.phase_shape(solver.full_scope());
        assert_eq!(shape.n_damped + shape.n_undamped, mesh.n_elements() as u64);
        assert!(shape.n_damped > 0, "rayleigh config should damp elements");
    }

    #[test]
    fn disabled_workspace_records_nothing() {
        let (mesh, cfg) = damped_hanging_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let ndof = 3 * mesh.n_nodes();
        let mut ws = solver.workspace();
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.5, 1.0);
        let mut up = vec![0.0; ndof];
        for d in 0..ndof {
            up[d] = u0[d] - solver.dt * v0[d];
        }
        let mut next = vec![0.0; ndof];
        let f = vec![0.0; ndof];
        solver.step_with(&up, &u0, &f, &mut next, &mut ws);
        solver.record_step_costs(&solver.phase_shape(solver.full_scope()), 1, &ws.reg);
        let reg = ws.into_registry();
        assert!(!reg.is_enabled());
        assert!(reg.span_stats("step").is_none());
        assert!(reg.counter("step/fill/flops").is_none());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_straight_run() {
        use crate::harness::{CheckpointHook, NoExchange, ReceiverHook, RunConfig, SolverHarness};
        use quake_ckpt::{CheckpointPolicy, CheckpointReader, CheckpointWriter, PeriodicSink};
        let (mesh, cfg) = damped_hanging_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let harness = SolverHarness::new(&solver);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.5, 1.0);
        let receivers: Vec<u32> = vec![0, (mesh.n_nodes() / 2) as u32];
        let n = solver.n_steps as u64;
        let half = n / 2;
        assert!(half >= 2);

        // Straight run: all n steps without interruption.
        let mut ws = solver.workspace();
        let mut straight = solver.initial_state(receivers.len(), Some((&u0, &v0)));
        let mut recv = ReceiverHook::new(&receivers);
        harness.run(
            &RunConfig::to_step(n),
            &mut straight,
            &mut ws,
            &mut NoExchange,
            &mut [&mut recv],
        );

        // Interrupted run: advance to n/2 writing a checkpoint there, then
        // restore from disk into a FRESH state and finish.
        let dir = std::env::temp_dir()
            .join("quake-solver-tests")
            .join(format!("resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = CheckpointWriter::new(&dir, "elastic").unwrap();
        let policy = CheckpointPolicy::every_steps(half);
        let mut first_leg = solver.initial_state(receivers.len(), Some((&u0, &v0)));
        {
            let mut sink = PeriodicSink::new(&writer, &policy);
            let mut recv = ReceiverHook::new(&receivers);
            let mut ckpt = CheckpointHook::new(&mut sink);
            harness.run(
                &RunConfig::to_step(half),
                &mut first_leg,
                &mut ws,
                &mut NoExchange,
                &mut [&mut recv, &mut ckpt],
            );
        }
        drop(first_leg); // resume must come purely from the file

        let reader = CheckpointReader::new(&dir, "elastic");
        let (step, mut resumed): (u64, SolverState) =
            reader.latest_valid(&quake_telemetry::Registry::disabled()).unwrap();
        assert_eq!(step, half);
        assert_eq!(resumed.step, half);
        let mut recv = ReceiverHook::new(&receivers);
        harness.run(
            &RunConfig::to_step(n),
            &mut resumed,
            &mut ws,
            &mut NoExchange,
            &mut [&mut recv],
        );

        // Bit-identical: every displacement dof and every trace sample.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&straight.u_prev), bits(&resumed.u_prev));
        assert_eq!(bits(&straight.u_now), bits(&resumed.u_now));
        for (a, b) in straight.seismograms.iter().zip(&resumed.seismograms) {
            assert_eq!(bits(&a.data), bits(&b.data));
            assert_eq!(a.n_samples(), n as usize);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_simulation_matches_run_shim() {
        use crate::harness::SolverHarness;
        let (mesh, cfg) = damped_hanging_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = shear_pulse(&mesh, 4.0, 1.5, 1.0);
        let receivers: Vec<u32> = vec![3];
        let baseline = solver.run(&[], &receivers, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        let state = solver.initial_state(receivers.len(), Some((&u0, &v0)));
        let (result, fin) = SolverHarness::new(&solver)
            .run_simulation(&[], &receivers, state, &mut ws, None)
            .unwrap();
        assert_eq!(fin.step, solver.n_steps as u64);
        assert_eq!(result.seismograms[0].data, baseline.seismograms[0].data);
        assert_eq!(result.flops, baseline.flops);
    }
}
