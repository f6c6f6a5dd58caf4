//! The one canonical explicit time loop — [`SolverHarness`] — and the
//! [`StepHook`] surface that composes every cross-cutting concern onto it.
//!
//! Before this module, each feature of the elastic solver forked the leapfrog
//! loop into a new `run_*` variant: telemetry, checkpointing, resumability,
//! distribution, fault injection, local time stepping and their combinations
//! were near-duplicate copies of the same recurrence. The harness inverts
//! that: there is exactly **one** step loop, driven by a [`RunConfig`], with
//! an ordered list of hooks observing it. Every public entry point —
//! [`SolverHarness::run`], `run_grouped`, `run_simulation`,
//! `ElasticSolver::run`, `run_distributed`, `run_distributed_recoverable`,
//! `run_forward` — assembles arguments (a plan, a hook list, a
//! [`StepWorkspace`]) and delegates here.
//!
//! The loop steps a *plan*: a list of rate-group passes, finest first, group
//! `g` due every `f_g` base steps (see [`crate::rategroup`]). **Global dt is
//! the one-group plan** — a single pass with `f = 1` that owns every node —
//! so its macro cycle `M = f_{G-1}` is 1 and the structure below degenerates
//! to the plain leapfrog loop, bit-identical to every variant it replaced:
//!
//! ```text
//! for k in first..until step M:             # k is a global sync step
//!     before_step(hooks)                    # FaultHook kills here;
//!                                           # ReceiverHook samples u_now = u(k dt0)
//!     for s in k..k+M:                      # base points of the macro cycle
//!         f = sum of sources at t = s dt0   # skipped when there are none
//!         for each group g due at s (s % f_g == 0), coarsest first:
//!             solver.pass(g):  fill, elements, abc, fold,
//!                 pre_exchange(hooks)       # FaultHook drops/delays here
//!                 exchange.exchange(s, g, rhs)
//!                              tail, interp
//!     state.step = k + M
//!     after_step(hooks)                     # HealthHook checks, CheckpointHook
//!                                           # offers the state to its StepSink
//! on_run_end(hooks)                         # TelemetryHook records analytic
//!                                           # step costs
//! ```
//!
//! A whole-domain pass computes `u_{k+1}` into the workspace's `u_next` and
//! the loop rotates the three buffers; a rate group advances its owned nodes
//! in place. Between sync steps the groups' histories are staggered, so
//! hooks only ever see the state at sync steps, and both the entry step and
//! `until_step` must be multiples of `M`. A warm workspace runs again
//! without allocating: it owns every run buffer.
//!
//! Hooks that touch disjoint state commute — the displacement history is
//! bit-identical under any permutation (tested). The one ordering contract
//! is [`crate::health::HealthHook`] before [`CheckpointHook`], on the
//! checkpoint cadence (`after_step` stops at the first erroring hook, so no
//! state that failed the health check is persisted).
//!
//! Hooks are zero-cost in the no-op case: an empty hook slice costs one
//! empty-slice iteration per phase, and `bench_step --check-overhead` gates
//! the no-op-hook harness against the bare step kernel.

use crate::checkpoint::SolverState;
use crate::elastic::{ElasticSolver, Fields, Pass, RunResult, StepScope, StepWorkspace};
use crate::health::HealthReport;
use crate::rategroup::RateGroupPlan;
use crate::receivers::record_sample_planar;
use crate::sources::AssembledSource;
use quake_ckpt::{CkptError, StepSink};
use quake_machine::phases::ElasticStepShape;
use quake_parcomm::RankFaults;
use quake_telemetry::Registry;

/// Immutable facts about the run a hook can read from any phase.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo<'a> {
    /// Telemetry rank of the driving workspace (0 for serial runs).
    pub rank: usize,
    /// Base time-step size (the finest group's; *the* step under global dt).
    pub dt: f64,
    /// First step index this run executes (`state.step` at entry).
    pub first_step: u64,
    /// One past the last step index (exclusive bound).
    pub until_step: u64,
    /// The plan's macro cycle `M` in base steps: `before_step`/`after_step`
    /// fire every `M` steps (1 under global dt).
    pub cycle: u64,
    /// Analytic work of one macro cycle: every pass's shape weighted by its
    /// `M / f_g` executions (under global dt, one step of the scope).
    pub cycle_shape: ElasticStepShape,
    /// Each node's owner-group step — the stagger of `u_prev` at a sync step
    /// (`None` = every node steps at `dt`).
    pub node_dt: Option<&'a [f64]>,
}

/// What a hook sees between steps: the run facts, the mutable solver state,
/// the workspace registry, and whether the state is tainted (an exchange was
/// skipped, so the fields are suspect and must not be persisted).
pub struct HookCtx<'a> {
    pub info: &'a RunInfo<'a>,
    pub state: &'a mut SolverState,
    pub reg: &'a Registry,
    pub tainted: bool,
}

/// A hook's verdict on the mid-step interface exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeFlow {
    /// Perform the exchange normally.
    Proceed,
    /// Skip it (fault injection). The run is tainted from this step on.
    Skip,
}

/// Why a run stopped before its final step.
#[derive(Debug)]
pub enum StopReason {
    /// A hook killed the rank (scripted fault) before executing the step.
    Killed,
    /// The mid-step exchange failed (dead peer, protocol skew).
    Comm(String),
    /// A checkpoint sink failed to persist the state.
    Ckpt(CkptError),
    /// The numerics health watchdog ([`crate::health::HealthHook`]) found a
    /// violation (NaN/Inf in the fields, or unphysical energy growth); the
    /// report says what, where, and which state last passed the check.
    Health(HealthReport),
}

/// How a harness run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Reached `until_step`; `executed` steps were performed by this call.
    Finished { executed: u64 },
    /// Stopped at `step` (the step being executed, or — for a checkpoint
    /// failure — the step just completed) for `reason`.
    Stopped { step: u64, reason: StopReason },
}

/// Observer/controller of the canonical step loop. Every method defaults to
/// a no-op, so implementations override only the phases they care about.
pub trait StepHook {
    /// Before the first step. Errors abort the run before any step executes.
    fn on_run_start(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// At the top of each macro cycle (every step under global dt), before
    /// forces are assembled; `ctx.state.step` is the sync step about to
    /// execute and `ctx.state.u_now` the globally consistent displacement at
    /// its time level. Errors stop the run at this step.
    fn before_step(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// Mid-pass, just before the interface exchange of each due group at
    /// base step `step`. The solver state is borrowed by the step kernel
    /// here, so only the run facts are visible. Returning
    /// [`ExchangeFlow::Skip`] suppresses the exchange and taints the run.
    fn pre_exchange(&mut self, _info: &RunInfo<'_>, _step: u64) -> ExchangeFlow {
        ExchangeFlow::Proceed
    }

    /// After the macro cycle: `ctx.state.step` is the *next* sync step and
    /// `ctx.state.u_now` the just-computed displacement at its time level.
    /// `ctx.state.u_prev` trails it by one step of each node's owner group
    /// ([`RunInfo::node_dt`]) — under global dt, the displacement at the
    /// completed step's time level.
    fn after_step(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// After the loop finished normally (not called on early stops, matching
    /// the accounting of the collapsed variants).
    fn on_run_end(&mut self, _ctx: &mut HookCtx<'_>) {}
}

/// The default hook: observes nothing, costs nothing.
pub struct NoopHook;

impl StepHook for NoopHook {}

/// The mid-pass interface exchange. Serial runs use [`NoExchange`]; the
/// distributed entry points plug the `quake-parcomm` fabric in.
pub trait Exchange {
    /// Sum-exchange the partially assembled interface values of rate group
    /// `group`'s pass at base step `step` (group 0 of 1 under global dt).
    /// Only the dofs whose node `group` owns are consumed by the pass, so an
    /// implementation with per-group neighbor lists moves just those. `reg`
    /// is the driving workspace's registry: an instrumented exchange records
    /// its `wait`/`copy` split there (the `step/exchange` span is open
    /// around this call, so recorded sub-intervals nest under it).
    fn exchange(
        &mut self,
        step: u64,
        group: usize,
        rhs: &mut [f64],
        reg: &Registry,
    ) -> Result<(), String>;
}

/// No communication: the serial exchange.
pub struct NoExchange;

impl Exchange for NoExchange {
    fn exchange(&mut self, _: u64, _: usize, _: &mut [f64], _: &Registry) -> Result<(), String> {
        Ok(())
    }
}

/// What to run: the sources, the step bound, and (for distributed ranks) the
/// step schedule. Defaults: no sources, the solver's full-domain scope.
pub struct RunConfig<'a> {
    sources: &'a [AssembledSource],
    until_step: u64,
    scope: Option<&'a StepScope>,
}

impl<'a> RunConfig<'a> {
    /// Run source-free on the full domain up to (exclusive) `until_step`.
    /// Note the bound is **not** clamped to the solver's configured step
    /// count — callers that want the simulation end pass `solver.n_steps`.
    pub fn to_step(until_step: u64) -> RunConfig<'a> {
        RunConfig { sources: &[], until_step, scope: None }
    }

    /// Drive the run with these assembled sources.
    pub fn with_sources(mut self, sources: &'a [AssembledSource]) -> RunConfig<'a> {
        self.sources = sources;
        self
    }

    /// Restrict the step to a rank's schedule (elements, faces, owned nodes).
    pub fn with_scope(mut self, scope: &'a StepScope) -> RunConfig<'a> {
        self.scope = Some(scope);
        self
    }
}

/// The one canonical step loop. See the module docs for the loop structure
/// and the hook phase map.
pub struct SolverHarness<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
}

impl<'s, 'm> SolverHarness<'s, 'm> {
    pub fn new(solver: &'s ElasticSolver<'m>) -> SolverHarness<'s, 'm> {
        SolverHarness { solver }
    }

    /// Advance `state` at the global dt from `state.step` up to (exclusive)
    /// `cfg.until_step`, invoking `hooks` in order at each phase. The loop's
    /// scratch lives in `ws`, so a warm workspace runs again with no heap
    /// allocation (the `quake-serve` workers keep one per worker).
    pub fn run(
        &self,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
    ) -> RunOutcome {
        let scope = cfg.scope.unwrap_or_else(|| self.solver.full_scope());
        let plan = [self.solver.global_pass(scope)];
        self.drive(&plan, None, cfg, state, ws, exchange, hooks)
    }

    /// [`SolverHarness::run`] on a rate-group stepping plan: advance `state`
    /// by whole **macro cycles** (`plan.cycle()` base steps each), stepping
    /// each rate group at its own dt on the nested LTS schedule (see
    /// [`crate::rategroup`]).
    ///
    /// `state.step` still counts *base* steps; both the entry step and
    /// `cfg.until_step` must be global sync steps (multiples of
    /// `plan.cycle()`) — between sync steps the groups' histories are
    /// staggered and there is no meaningful whole-domain state to stop at.
    /// For the same reason a mid-cycle comm failure leaves `state` torn
    /// (some groups advanced past `state.step`); recovery must restart from
    /// a checkpointed sync step, which is exactly what the checkpoint
    /// cadence provides.
    pub fn run_grouped(
        &self,
        plan: &RateGroupPlan,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
    ) -> RunOutcome {
        assert!(
            cfg.scope.is_none(),
            "a rate-group plan steps the full domain (no distributed LTS)"
        );
        self.drive(&plan.passes(), Some(plan.node_dt()), cfg, state, ws, exchange, hooks)
    }

    /// THE step loop (see the module docs): advance `state` through the
    /// macro cycles of `plan` — passes finest first, the last one's stride
    /// the cycle length — firing `hooks` at the sync steps.
    fn drive(
        &self,
        plan: &[Pass<'_>],
        node_dt: Option<&[f64]>,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
    ) -> RunOutcome {
        let solver = self.solver;
        let ndof = 3 * solver.mesh.n_nodes();
        assert_eq!(state.u_prev.len(), ndof, "state does not match this mesh");
        assert_eq!(state.u_now.len(), ndof, "state does not match this mesh");
        // One destructure: the passes borrow the buffers and the registry
        // disjointly. `clear` + `resize` zeroes each buffer in its warmed
        // capacity; only a plan with halos needs the gathered `ue`.
        let StepWorkspace { w, u_next, f, ue, reg, ids } = ws;
        let halos = plan.iter().any(|p| p.group.is_some());
        for buf in [&mut *u_next, &mut *f].into_iter().chain(halos.then_some(&mut *ue)) {
            buf.clear();
            buf.resize(ndof, 0.0);
        }
        let m = plan.last().map_or(1, |p| p.factor);
        assert_eq!(state.step % m, 0, "runs start at a global sync step (multiple of the cycle)");
        assert_eq!(cfg.until_step % m, 0, "runs end at a global sync step (multiple of the cycle)");
        let mut cycle_shape = ElasticStepShape::default();
        for pass in plan {
            let (shape, times) = (solver.pass_shape(pass), m / pass.factor);
            cycle_shape.n_damped += times * shape.n_damped;
            cycle_shape.n_undamped += times * shape.n_undamped;
            cycle_shape.n_nodes += times * shape.n_nodes;
            cycle_shape.n_hanging += times * shape.n_hanging;
            cycle_shape.n_abc_faces += times * shape.n_abc_faces;
            cycle_shape.n_lanes += times * shape.n_lanes;
        }
        let info = RunInfo {
            rank: reg.rank(),
            dt: solver.dt,
            first_step: state.step,
            until_step: cfg.until_step,
            cycle: m,
            cycle_shape,
            node_dt,
        };
        let mut tainted = false;

        {
            let mut ctx = HookCtx { info: &info, state, reg, tainted };
            for h in hooks.iter_mut() {
                if let Err(reason) = h.on_run_start(&mut ctx) {
                    return RunOutcome::Stopped { step: info.first_step, reason };
                }
            }
        }

        let mut k = info.first_step;
        while k < info.until_step {
            {
                let mut ctx = HookCtx { info: &info, state, reg, tainted };
                for h in hooks.iter_mut() {
                    if let Err(reason) = h.before_step(&mut ctx) {
                        return RunOutcome::Stopped { step: k, reason };
                    }
                }
            }
            for s in k..k + m {
                if !cfg.sources.is_empty() {
                    let t = s as f64 * solver.dt;
                    f.iter_mut().for_each(|v| *v = 0.0);
                    reg.enter(ids.source);
                    for src in cfg.sources {
                        src.add_force_planar(t, f);
                    }
                    reg.exit(ids.source);
                }
                // Every due group, coarsest first: a finer group then finds
                // its coarser halo's (u_prev, u_now) bracketing its own time
                // level, theta in [0, 1) into the coarse straddling step.
                for (g, pass) in plan.iter().enumerate().rev() {
                    if !s.is_multiple_of(pass.factor) {
                        continue;
                    }
                    let fields = match pass.group {
                        None => Fields::Whole { u_prev: &state.u_prev, u_now: &state.u_now },
                        Some(nodes) => Fields::Group {
                            u_prev: &mut state.u_prev,
                            u_now: &mut state.u_now,
                            ue,
                            nodes,
                            theta: plan.get(g + 1).map_or(0.0, |coarser| {
                                (s % coarser.factor) as f64 / coarser.factor as f64
                            }),
                        },
                    };
                    let stepped =
                        solver.pass(pass, fields, f, u_next, w, reg, ids, &mut |rhs, reg| {
                            let mut flow = ExchangeFlow::Proceed;
                            for h in hooks.iter_mut() {
                                if h.pre_exchange(&info, s) == ExchangeFlow::Skip {
                                    flow = ExchangeFlow::Skip;
                                }
                            }
                            if flow == ExchangeFlow::Skip {
                                tainted = true;
                                return Ok(());
                            }
                            // A comm fabric allocates here: one payload Vec per neighbor
                            // message (the channel takes ownership), outside the element
                            // sweep and timed as `step/exchange/copy`. Failures come back
                            // as CommError.
                            exchange.exchange(s, g, rhs, reg)
                        });
                    // A failed exchange aborts before the tail: under global
                    // dt the state keeps describing the last completed step.
                    if let Err(e) = stepped {
                        return RunOutcome::Stopped { step: s, reason: StopReason::Comm(e) };
                    }
                    if pass.group.is_none() {
                        std::mem::swap(&mut state.u_prev, &mut state.u_now);
                        std::mem::swap(&mut state.u_now, u_next);
                    }
                }
            }
            k += m;
            state.step = k;
            {
                let mut ctx = HookCtx { info: &info, state, reg, tainted };
                for h in hooks.iter_mut() {
                    if let Err(reason) = h.after_step(&mut ctx) {
                        return RunOutcome::Stopped { step: k - m, reason };
                    }
                }
            }
        }

        let executed = state.step - info.first_step;
        {
            let mut ctx = HookCtx { info: &info, state, reg, tainted };
            for h in hooks.iter_mut() {
                h.on_run_end(&mut ctx);
            }
        }
        RunOutcome::Finished { executed }
    }

    /// Run source-free from an optional initial `(u0, v0)` for `n_steps` and
    /// return the final `(u_prev, u_now)` pair (for field tests). The bound
    /// is *not* clamped to the solver's configured duration. Both the inputs
    /// and the returned pair use the public interleaved layout; the planar
    /// internal state never leaks out of this call.
    pub fn run_to_state(
        &self,
        initial: Option<(&[f64], &[f64])>,
        n_steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut state = self.solver.initial_state(0, initial);
        let cfg = RunConfig::to_step(n_steps as u64);
        // A temporary workspace: its buffers are gone before the copies.
        self.run(&cfg, &mut state, &mut self.solver.workspace(), &mut NoExchange, &mut []);
        (
            crate::layout::to_interleaved3(&state.u_prev),
            crate::layout::to_interleaved3(&state.u_now),
        )
    }

    /// Drive a full global-dt simulation to the solver's configured end:
    /// sources on, receivers sampled through a [`ReceiverHook`], analytic
    /// step costs recorded through a [`TelemetryHook`], and — when `sink` is
    /// given — the state offered to it after every step through a
    /// [`CheckpointHook`]. Returns the run accounting and the final state;
    /// `flops` and step costs cover only the steps executed by *this* call
    /// (a resumed run accounts only its own tail).
    pub fn run_simulation(
        &self,
        sources: &[AssembledSource],
        receiver_nodes: &[u32],
        mut state: SolverState,
        ws: &mut StepWorkspace,
        sink: Option<&mut dyn StepSink<SolverState>>,
    ) -> Result<(RunResult, SolverState), CkptError> {
        let solver = self.solver;
        let t0 = std::time::Instant::now();
        let executed = (solver.n_steps as u64).saturating_sub(state.step);
        let cfg = RunConfig::to_step(solver.n_steps as u64).with_sources(sources);
        let mut receivers = ReceiverHook::new(receiver_nodes);
        let mut telemetry = TelemetryHook::new(solver);
        let mut ckpt = sink.map(CheckpointHook::new);
        let mut hooks: Vec<&mut dyn StepHook> = vec![&mut receivers];
        if let Some(ckpt) = ckpt.as_mut() {
            hooks.push(ckpt);
        }
        hooks.push(&mut telemetry);
        let outcome = self.run(&cfg, &mut state, ws, &mut NoExchange, &mut hooks);
        match outcome {
            RunOutcome::Finished { .. } => {}
            RunOutcome::Stopped { reason: StopReason::Ckpt(e), .. } => return Err(e),
            RunOutcome::Stopped { reason, .. } => {
                unreachable!("serial run cannot stop for {reason:?}")
            }
        }
        let flops = quake_machine::flops::elastic_total(
            solver.mesh.n_elements() as u64,
            solver.mesh.n_nodes() as u64,
            solver.faces.len() as u64,
            executed,
        );
        let result = RunResult {
            seismograms: state.seismograms.clone(),
            n_steps: solver.n_steps,
            dt: solver.dt,
            flops,
            wall_secs: t0.elapsed().as_secs_f64(),
        };
        Ok((result, state))
    }
}

/// The central-difference recurrence every solver in this crate shares:
/// seed `(u_prev, u_now)` from an optional `(u0, v0)` (first-order backward
/// start, matching the scheme's order), run `n_steps` force-free steps via
/// `step`, swap-swap, and return the final pair. [`SolverHarness`] embeds
/// these semantics; the tet baseline's `run_to_state` delegates here so the
/// two cannot drift in their start/finish handling again.
pub fn leapfrog_to_state(
    ndof: usize,
    dt: f64,
    initial: Option<(&[f64], &[f64])>,
    n_steps: usize,
    mut step: impl FnMut(&[f64], &[f64], &[f64], &mut [f64]),
) -> (Vec<f64>, Vec<f64>) {
    let mut u_prev = vec![0.0; ndof];
    let mut u_now = vec![0.0; ndof];
    let mut u_next = vec![0.0; ndof];
    let f = vec![0.0; ndof];
    if let Some((u0, v0)) = initial {
        u_now.copy_from_slice(u0);
        for d in 0..ndof {
            u_prev[d] = u0[d] - dt * v0[d];
        }
    }
    for _ in 0..n_steps {
        step(&u_prev, &u_now, &f, &mut u_next);
        std::mem::swap(&mut u_prev, &mut u_now);
        std::mem::swap(&mut u_now, &mut u_next);
    }
    (u_prev, u_now)
}

/// Samples receiver displacements into the state's seismograms — the single
/// home of the interpolation that used to be copy-pasted into every loop.
/// It samples `u_now` in `before_step`, i.e. at every global sync step, where
/// the displacement is consistent across rate groups: sample `j` of every
/// trace is the displacement at time `j M dt0` (`M` the plan's macro cycle;
/// sample `k` = `u(k dt)` under global dt). A snapshot taken after step `k`
/// therefore already holds step `k`'s sample, and a resumed run continues
/// the trace without a seam.
pub struct ReceiverHook<'a> {
    nodes: &'a [u32],
}

/// Alias of [`ReceiverHook`] under the name rate-group runs import it by
/// (`benchmark/` is frozen on it); dropped with the next benchmark change.
pub type SyncReceiverHook<'a> = ReceiverHook<'a>;

impl<'a> ReceiverHook<'a> {
    pub fn new(nodes: &'a [u32]) -> ReceiverHook<'a> {
        ReceiverHook { nodes }
    }
}

impl StepHook for ReceiverHook<'_> {
    fn on_run_start(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        assert_eq!(
            ctx.state.seismograms.len(),
            self.nodes.len(),
            "state has one seismogram per receiver node"
        );
        Ok(())
    }

    fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        record_sample_planar(&mut ctx.state.seismograms, self.nodes, &ctx.state.u_now);
        Ok(())
    }
}

/// Offers the post-step state to a [`StepSink`] (skipping while the run is
/// tainted, so suspect fields never reach disk). The sink owns cadence and
/// atomicity; a sink failure stops the run with [`StopReason::Ckpt`].
pub struct CheckpointHook<'a> {
    sink: &'a mut dyn StepSink<SolverState>,
}

impl<'a> CheckpointHook<'a> {
    pub fn new(sink: &'a mut dyn StepSink<SolverState>) -> CheckpointHook<'a> {
        CheckpointHook { sink }
    }
}

impl StepHook for CheckpointHook<'_> {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if ctx.tainted {
            return Ok(());
        }
        self.sink.offer(ctx.state.step, ctx.state, ctx.reg).map_err(StopReason::Ckpt)
    }
}

/// Records the run's analytic per-phase step costs on completion (joining
/// the measured spans to the roofline model). The per-pass phase spans
/// themselves are emitted by the step kernel via the workspace registry —
/// this hook only adds the end-of-run accounting: the plan's per-cycle work
/// ([`RunInfo::cycle_shape`]) times the macro cycles executed.
pub struct TelemetryHook<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
    shape: Option<ElasticStepShape>,
}

impl<'s, 'm> TelemetryHook<'s, 'm> {
    /// Costs of the plan the run steps (the full-domain step for serial
    /// global-dt runs).
    pub fn new(solver: &'s ElasticSolver<'m>) -> TelemetryHook<'s, 'm> {
        TelemetryHook { solver, shape: None }
    }

    /// Costs of a caller-adjusted per-cycle shape (a distributed rank's scope
    /// with its true interface exchange volume).
    pub fn shaped(solver: &'s ElasticSolver<'m>, shape: ElasticStepShape) -> TelemetryHook<'s, 'm> {
        TelemetryHook { solver, shape: Some(shape) }
    }
}

impl StepHook for TelemetryHook<'_, '_> {
    fn on_run_end(&mut self, ctx: &mut HookCtx<'_>) {
        let executed = ctx.state.step - ctx.info.first_step;
        let shape = self.shape.unwrap_or(ctx.info.cycle_shape);
        self.solver.record_step_costs(&shape, executed / ctx.info.cycle, ctx.reg);
    }
}

/// Injects a scripted [`FaultPlan`](quake_parcomm::FaultPlan) into the loop:
/// kills the rank at the top of its scripted step, corrupts a solution entry
/// with NaN (a silent numerical fault only a `HealthHook` can catch), and
/// drops or delays the mid-step exchange. Kills and corruptions act on the
/// whole-domain state, which exists only at sync steps: one scripted for
/// base step `s` fires at the first sync step `>= s` (at `s` itself under
/// global dt). Drops and delays fire at exactly `s`, on every pass due
/// there. The production configuration is simply *no FaultHook in the list*
/// — injection support costs nothing when absent.
pub struct FaultHook<'p> {
    faults: RankFaults<'p>,
}

impl<'p> FaultHook<'p> {
    pub fn new(faults: RankFaults<'p>) -> FaultHook<'p> {
        FaultHook { faults }
    }
}

impl StepHook for FaultHook<'_> {
    fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        // The base steps whose first sync step is this one: the macro cycle
        // just completed, `(k - M, k]` (just `k` under global dt).
        let k = ctx.state.step;
        for s in k.saturating_sub(ctx.info.cycle - 1)..=k {
            if self.faults.kills(s) {
                return Err(StopReason::Killed);
            }
            if let Some(index) = self.faults.corrupts(s) {
                let i = index % ctx.state.u_now.len().max(1);
                ctx.state.u_now[i] = f64::NAN;
            }
        }
        Ok(())
    }

    fn pre_exchange(&mut self, _info: &RunInfo<'_>, step: u64) -> ExchangeFlow {
        if self.faults.drops(step) {
            return ExchangeFlow::Skip;
        }
        let delay = self.faults.delay_ms(step);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        ExchangeFlow::Proceed
    }
}
