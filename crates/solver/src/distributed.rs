//! Rank-parallel elastic solver (owner-computes + interface sum-exchange).
//!
//! Each rank assembles the stiffness/force terms of its own elements, the
//! partially assembled interface values are sum-exchanged once per step via
//! `quake-parcomm`, and the (replicated) diagonal solve and constraint
//! projection are local. The result is bit-identical to the serial solver —
//! the property the scalability experiments of Table 2.1 rest on. Timing of
//! machines larger than this host is the job of `quake-machine`.
//!
//! One rank driver (`run_rank`) runs under one attempt supervisor
//! (`supervise`): [`run_distributed`] is its one-attempt case without
//! checkpoints, [`run_distributed_recoverable`] gives it a [`RecoveryConfig`].
//! A recoverable run is always watched and always explains itself: every
//! rank checks its own share of the energy against the seed's whole-mesh
//! energy ([`HealthHook`]) on the checkpoint cadence before it persists a
//! state, and every rank that does not finish an attempt leaves one NDJSON
//! post-mortem (`rank{r}.attempt{a}.postmortem.ndjson`) beside its
//! checkpoints.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::checkpoint::SolverState;
use crate::elastic::{check_seed, ElasticSolver, StepScope};
use crate::harness::{
    CheckpointHook, Exchange, FaultHook, HookCtx, RunConfig, RunOutcome, SolverHarness, StepHook,
    StopReason, TelemetryHook,
};
use crate::health::HealthHook;
use crate::layout::to_interleaved3;
use quake_ckpt::{CheckpointPolicy, CheckpointReader, CheckpointWriter, CkptError, PeriodicSink};
use quake_mesh::{partition_morton, ExchangePlan, HexMesh, RateGroups};
use quake_parcomm::{run_spmd, CommError, Communicator, FaultPlan};
use quake_telemetry::json::Json;
use quake_telemetry::{try_reduce_across_ranks, Reduced, Registry, Snapshot, SpanId, TraceBuffer};

/// What to run distributed: rank count, step count, optional initial
/// `(u0, v0)` field, and the per-rank flight-recorder capacity. Both entry
/// points honor every field.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig<'a> {
    pub n_ranks: usize,
    pub n_steps: usize,
    pub initial: Option<(&'a [f64], &'a [f64])>,
    /// Per-rank telemetry with a flight recorder of this many events. When
    /// set, every rank steps with an instrumented registry sharing one
    /// epoch and records span slices (including the exchange's
    /// `wait`/`copy` split, [`DistributedRun::traces`]), a [`TelemetryHook`]
    /// records its analytic phase costs (including the true interface
    /// exchange volume), a per-step imbalance gauge is taken, and the run
    /// ends with a collective min/max/mean reduction over the phase metrics
    /// all ranks share ([`DistributedRun::snapshots`],
    /// [`DistributedRun::reduced`]).
    pub trace_capacity: Option<usize>,
}

impl<'a> DistConfig<'a> {
    pub fn new(n_ranks: usize, n_steps: usize) -> DistConfig<'a> {
        DistConfig { n_ranks, n_steps, initial: None, trace_capacity: None }
    }

    /// Seed every rank with the initial `(u0, v0)` field.
    pub fn with_initial(mut self, u0: &'a [f64], v0: &'a [f64]) -> DistConfig<'a> {
        self.initial = Some((u0, v0));
        self
    }

    /// Step with per-rank telemetry and a flight recorder of `capacity`
    /// events, and return the snapshots, the cross-rank reduction and the
    /// merged-timeline buffers with the run.
    pub fn with_trace(mut self, capacity: usize) -> DistConfig<'a> {
        self.trace_capacity = Some(capacity);
        self
    }
}

/// The step-tagged interface exchange of every distributed run: the exchange
/// of base step `k` carries tag [`STEP_TAG_BASE`]` + k`, so a peer that
/// skipped a step is detected as protocol skew and surfaces as a
/// run-stopping error ([`StopReason::Comm`]) instead of silently summing
/// stale data.
///
/// `neighbors[g]` lists rate group `g`'s links as *planar dof* indices
/// (`comp * n_nodes + node`, matching the rhs layout the step hands out),
/// expanded identically on both sides of each link from the exchange plan's
/// node order — so the exchange runs with `ncomp = 1` and the fabric stays
/// layout-agnostic. Global dt is the single group holding every shared dof
/// (see [`DistSetup::neighbors`]).
struct CommExchange<'c> {
    comm: &'c Communicator,
    neighbors: Vec<Vec<(usize, Vec<u32>)>>,
    /// Lazily interned `(wait, copy)` sub-span ids.
    spans: Option<(SpanId, SpanId)>,
}

impl Exchange for CommExchange<'_> {
    fn exchange(
        &mut self,
        step: u64,
        group: usize,
        rhs: &mut [f64],
        reg: &Registry,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let timing = self
            .comm
            .try_exchange_sum(&self.neighbors[group], rhs, 1, STEP_TAG_BASE + step)
            .map_err(|e| e.to_string())?;
        if reg.is_enabled() {
            // Record the wait/copy split as sub-spans of the already-open
            // `step/exchange` span (so the phase-accounting invariant —
            // children sum into the parent's `child_ns` — still holds). The
            // split is rendered copy-then-wait: durations are exact, but the
            // true per-neighbor interleaving (pack → block → unpack) is not
            // preserved in slice start times.
            let (wait, copy) = *self.spans.get_or_insert_with(|| {
                (reg.span_id("step/exchange/wait"), reg.span_id("step/exchange/copy"))
            });
            let t0_ns = reg.since_epoch_ns(t0);
            reg.record_span(copy, t0_ns, timing.copy_ns);
            reg.record_span(wait, t0_ns + timing.copy_ns, timing.wait_ns);
        }
        Ok(())
    }
}

/// Per-step cross-rank load-imbalance gauge: after every step each rank
/// takes the wall-time delta of its `step/elements` span, the ranks
/// allreduce max and sum, and every rank records `imbalance` =
/// max / mean (≥ 1.0; 1.0 = perfectly balanced) as a gauge (last step),
/// a histogram sample (distribution over steps), and — when a flight
/// recorder is attached — a timeline mark. The reduced values are identical
/// on every rank, so the metric participates cleanly in the end-of-run
/// cross-rank reduction.
struct ImbalanceHook<'c> {
    comm: &'c Communicator,
    mark: SpanId,
    prev_elements_ns: u64,
}

impl StepHook for ImbalanceHook<'_> {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        let total = ctx.reg.span_stats("step/elements").map_or(0, |s| s.total_ns);
        let delta = (total - self.prev_elements_ns) as f64;
        self.prev_elements_ns = total;
        // Two tiny collectives per step; this hook only runs on the
        // instrumented path, so the steady-state loop never sees them. A
        // dead peer stops the run like a failed exchange does.
        let comm_stop = |e: CommError| StopReason::Comm(e.to_string());
        let mut sum = [delta];
        self.comm.try_allreduce_sum(&mut sum).map_err(comm_stop)?;
        let max = self.comm.try_allreduce_max(delta).map_err(comm_stop)?;
        let mean = sum[0] / self.comm.size() as f64;
        let imb = if mean > 0.0 { max / mean } else { 1.0 };
        ctx.reg.gauge("imbalance", imb);
        ctx.reg.observe("imbalance", imb);
        if ctx.reg.trace_is_enabled() {
            ctx.reg.trace_mark(self.mark, imb);
        }
        Ok(())
    }
}

/// Per-rank outcome of a distributed run. A rank's state vectors are valid
/// (identical to the serial solver) exactly on the nodes its own elements
/// touch — values elsewhere are never communicated, exactly as in a real
/// distributed-memory code where they would not even be allocated.
#[derive(Default)]
pub struct DistributedRun {
    /// `(u_prev, u_now)` per rank (empty vectors for a rank that did not
    /// finish — only possible in an unfinished [`RecoveredRun`]).
    pub states: Vec<(Vec<f64>, Vec<f64>)>,
    /// Elements owned by each rank.
    pub elements: Vec<Vec<u32>>,
    /// Interface exchange volume (node values per step) per rank.
    pub volumes: Vec<usize>,
    /// Per-rank telemetry snapshots (empty unless
    /// [`DistConfig::with_trace`] was requested).
    pub snapshots: Vec<Snapshot>,
    /// Min/max/mean across ranks of every common metric — the per-phase load
    /// imbalance view of the paper's scaling tables. Empty unless
    /// [`DistConfig::with_trace`] was requested.
    pub reduced: Vec<Reduced>,
    /// Per-rank flight-recorder buffers sharing one epoch (empty unless
    /// [`DistConfig::with_trace`] was requested). Merge with
    /// [`quake_telemetry::json::chrome_trace`] for a per-rank-track timeline.
    pub traces: Vec<TraceBuffer>,
}

/// Run the elastic solver on [`DistConfig::n_ranks`] SPMD ranks with a
/// Morton element partition: every rank drives the **same**
/// [`SolverHarness`] loop as the serial solver, scoped to its own elements,
/// with the step-tagged sum-exchange plugged into the mid-step hook point.
/// This is the supervisor's one-attempt case with no checkpoint writer and
/// no faults; it is fail-stop — a rank that stops (a dead peer) is a bug
/// here, so the run is asserted finished.
pub fn run_distributed(solver: &ElasticSolver<'_>, cfg: &DistConfig<'_>) -> DistributedRun {
    let run = supervise(solver, cfg, None, &Registry::disabled());
    assert!(run.finished, "fail-stop distributed run stopped: {:?}", run.outcomes);
    run.last
}

/// The rank decomposition of a distributed run: Morton element partition,
/// interface exchange plan, lowest-rank node ownership, and the per-rank
/// step schedules (built once, reused every step and every recovery
/// attempt).
struct DistSetup {
    per_rank: Vec<Vec<u32>>,
    scopes: Vec<StepScope>,
    plan: ExchangePlan,
    volumes: Vec<usize>,
}

impl DistSetup {
    fn build(solver: &ElasticSolver<'_>, n_ranks: usize) -> DistSetup {
        assert!(n_ranks > 0, "DistConfig::n_ranks must be > 0");
        let mesh: &HexMesh = solver.mesh;
        let parts = partition_morton(mesh.n_elements(), n_ranks);
        let plan = ExchangePlan::build(mesh, &parts, n_ranks);
        let volumes: Vec<usize> = (0..n_ranks).map(|p| plan.exchange_volume(p)).collect();

        let mut per_rank: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
        for (e, &p) in parts.iter().enumerate() {
            per_rank[p as usize].push(e as u32);
        }

        // Node ownership: the lowest-numbered rank whose elements touch a
        // node contributes its diagonal damping term.
        let mut owner = vec![u32::MAX; mesh.n_nodes()];
        for (e, &p) in parts.iter().enumerate() {
            for &nd in &mesh.elements[e].nodes {
                if p < owner[nd as usize] {
                    owner[nd as usize] = p;
                }
            }
        }
        // Per-rank step schedules (element sweep + boundary faces + owned
        // mask), built ONCE.
        let scopes: Vec<StepScope> = (0..n_ranks)
            .map(|r| {
                solver.scope(&per_rank[r], Some(owner.iter().map(|&o| o == r as u32).collect()))
            })
            .collect();
        DistSetup { per_rank, scopes, plan, volumes }
    }

    /// This rank's neighbor links per rate group, as *planar dof* lists:
    /// entry `g` expands, component-major (`comp * n_nodes + node`), the
    /// plan's shared nodes *owned by rate group `g`* — exactly the dofs whose
    /// partially assembled sums the group-`g` pass consumes in its tail.
    /// `groups = None` is global dt: one group owning every shared node.
    ///
    /// Both ends of a link filter the same (mesh-global) `node_group` in the
    /// same plan node order, so the packed send/receive streams line up,
    /// links empty for a group are dropped on both sides symmetrically, and
    /// the per-dof accumulation order (one contribution per neighbor per
    /// dof, neighbors visited in plan order) is the same through any list —
    /// summing a group's dofs via its group list is bit-identical to summing
    /// them via the one-group list, the bit-identity guarantee of the
    /// distributed solver.
    fn neighbors(
        &self,
        rank: usize,
        n_nodes: usize,
        groups: Option<&RateGroups>,
    ) -> Vec<Vec<(usize, Vec<u32>)>> {
        (0..groups.map_or(1, |gr| gr.n_groups))
            .map(|g| {
                self.plan.plans[rank]
                    .iter()
                    .filter_map(|(q, nodes)| {
                        let mut dofs = Vec::new();
                        for comp in 0..3u32 {
                            for &nd in nodes {
                                if groups.is_none_or(|gr| gr.node_group[nd as usize] as usize == g)
                                {
                                    dofs.push(comp * n_nodes as u32 + nd);
                                }
                            }
                        }
                        (!dofs.is_empty()).then_some((*q as usize, dofs))
                    })
                    .collect()
            })
            .collect()
    }
}

/// Tag base of the interface exchange (`CommExchange`): the exchange of
/// step `k` uses tag `STEP_TAG_BASE + k`. A peer that skipped an exchange
/// (injected [`quake_parcomm::Fault::DropExchange`], or a bug) is detected by
/// its neighbors as tag skew — a [`quake_parcomm::CommError::Protocol`] error
/// — on the very next message.
pub const STEP_TAG_BASE: u64 = 0xE000_0000;

/// Configuration of the checkpoint/recovery supervisor.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Directory holding the per-rank checkpoint files (`rank{r}.*.qckpt`).
    pub ckpt_dir: PathBuf,
    /// Checkpoint cadence in steps (all ranks checkpoint the same steps, so
    /// a consistent restore line always exists). It is also the cadence of
    /// every rank's [`HealthHook`], which runs just before the checkpoint
    /// hook: each state a rank persists has passed the check, and the
    /// restore line after a watchdog stop predates the corruption.
    pub every_steps: u64,
    /// Give up after this many attempts (≥ 1; each recovery is one retry).
    pub max_attempts: usize,
    /// Scripted faults, injected through a per-rank
    /// [`FaultHook`] on the **first attempt only** (so a retry is clean).
    /// [`FaultPlan::none`] is the production configuration.
    pub faults: FaultPlan,
}

impl RecoveryConfig {
    /// Fault-free supervisor over `ckpt_dir` with a step cadence and retry
    /// budget.
    pub fn new(ckpt_dir: PathBuf, every_steps: u64, max_attempts: usize) -> RecoveryConfig {
        RecoveryConfig { ckpt_dir, every_steps, max_attempts, faults: FaultPlan::none() }
    }

    /// Inject this fault plan on the first attempt.
    pub fn with_faults(mut self, faults: FaultPlan) -> RecoveryConfig {
        self.faults = faults;
        self
    }
}

/// How one rank ended one attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankOutcome {
    /// Ran to the final step.
    Finished,
    /// Killed by the fault plan before executing `step`.
    Killed { step: u64 },
    /// Observed a failure (dead peer, protocol skew, checkpoint write
    /// error, health violation) during `step` and exited.
    Aborted { step: u64, reason: String },
}

/// Result of a recoverable distributed run.
pub struct RecoveredRun {
    /// The final attempt: states, partition, and — when the [`DistConfig`]
    /// asked for them — that attempt's per-rank snapshots, cross-rank
    /// reduction and flight-recorder buffers.
    pub last: DistributedRun,
    /// Attempts executed (1 = no failure).
    pub attempts: usize,
    /// Restarts from the restore line (`attempts - 1`).
    pub recoveries: usize,
    /// Step every rank of the final attempt started from (0 = from scratch).
    pub restored_step: u64,
    /// Per-attempt, per-rank outcomes (diagnostics).
    pub outcomes: Vec<Vec<RankOutcome>>,
    /// Did the run reach the final step on every rank within
    /// `max_attempts`?
    pub finished: bool,
}

/// What one rank hands back from one attempt.
struct RankRun {
    outcome: RankOutcome,
    /// Final `(u_prev, u_now)`, interleaved; empty unless the rank finished.
    state: (Vec<f64>, Vec<f64>),
    snapshot: Option<Snapshot>,
    reduced: Vec<Reduced>,
    trace: Option<TraceBuffer>,
}

/// Run the distributed elastic solver under the checkpoint/recovery
/// supervisor.
///
/// Each rank is the rank of [`run_distributed`] with more hooks composed
/// onto the same [`SolverHarness`] loop: a [`FaultHook`] injects the scripted
/// kills/drops/delays/corruptions, a [`HealthHook`] checks the energy of the
/// rank's own elements against the seed's whole-mesh energy and a
/// [`CheckpointHook`] then offers the state to a per-rank [`PeriodicSink`],
/// both every [`RecoveryConfig::every_steps`] steps, and the mid-step
/// exchange is **step-tagged** (`CommExchange`). There is **no
/// barrier in the step loop** — a dead rank must not be able to hang
/// survivors — so failure propagates through the communication fabric
/// itself: a rank that stops for any reason drops its channel endpoints,
/// every neighbor's next exchange observes `RankFailure` (or `Protocol`
/// skew) and aborts, and the cascade reaches every connected rank.
/// `run_spmd`'s thread join is the survivor barrier. The supervisor then
/// computes the **restore line** — the highest step at which *every* rank
/// has a checksum-valid checkpoint (corrupt or truncated files are skipped
/// per rank) — reloads all ranks there, and relaunches. Faults are injected
/// on the first attempt only, so a retry is clean; a rank that *dropped* an
/// exchange is tainted and its [`CheckpointHook`] stops persisting, keeping
/// corrupt state off disk.
///
/// Every rank that does not finish an attempt writes one post-mortem,
/// `rank{r}.attempt{a}.postmortem.ndjson`, into
/// [`RecoveryConfig::ckpt_dir`] before the supervisor decides whether to
/// retry: a `post_mortem` header line (rank, attempt, step, reason, and for
/// a watchdog stop the [`HealthReport`](crate::health::HealthReport)'s
/// fields) followed by the tail of
/// the rank's flight recorder — the one [`DistConfig::with_trace`]
/// attached, else a small one of its own. The checkpoint reader only
/// parses `<base>.<step>.qckpt` names, so the dumps never reach a restore
/// line.
///
/// The final states are bit-identical to an unfaulted run: restore is exact
/// (raw `f64` bit patterns) and the element sweep order is deterministic.
///
/// `reg` receives supervisor telemetry: `recover/attempts`,
/// `recover/recoveries`, `recover/restored_step` counters, a `ckpt_restore`
/// span per reloaded rank, and one NDJSON `recover_attempt` event per
/// attempt. Per-rank telemetry is the [`DistConfig`]'s business, exactly as
/// in [`run_distributed`].
pub fn run_distributed_recoverable(
    solver: &ElasticSolver<'_>,
    cfg: &DistConfig<'_>,
    rcfg: &RecoveryConfig,
    reg: &Registry,
) -> Result<RecoveredRun, CkptError> {
    assert!(rcfg.every_steps > 0, "RecoveryConfig::every_steps must be > 0");
    assert!(rcfg.max_attempts >= 1, "RecoveryConfig::max_attempts must be >= 1");
    // A fault on a rank the run does not have never fires: a recovery test
    // scripted with it would pass without recovering anything.
    for fault in rcfg.faults.faults() {
        assert!(
            fault.rank() < cfg.n_ranks,
            "RecoveryConfig::faults: {fault:?} names a rank outside the {} ranks of the run",
            cfg.n_ranks
        );
    }
    // Every attempt, restored or not, continues the seed's run, so the
    // seed's whole-mesh energy is every attempt's watchdog reference.
    let seed_energy = cfg.initial.map_or(0.0, |seed| {
        let seed = solver.initial_state(0, Some(seed));
        solver.energy_planar(&seed.u_prev, &seed.u_now)
    });
    let writers: Vec<CheckpointWriter> = (0..cfg.n_ranks)
        .map(|r| CheckpointWriter::new(&rcfg.ckpt_dir, &format!("rank{r}")))
        .collect::<Result<_, _>>()?;
    let recovery = Recovery { rcfg, writers: &writers, seed_energy };
    Ok(supervise(solver, cfg, Some(recovery), reg))
}

/// What a recoverable run adds to every attempt's ranks.
#[derive(Clone, Copy)]
struct Recovery<'r> {
    rcfg: &'r RecoveryConfig,
    /// One checkpoint writer per rank.
    writers: &'r [CheckpointWriter],
    /// The seed's whole-mesh energy, the reference of every rank's
    /// [`HealthHook`]. The wave carries energy from one rank's part of the
    /// mesh into another's, so a rank's own early peak bounds nothing, but
    /// no share of a source-free run's energy outgrows the whole.
    seed_energy: f64,
}

/// The attempt loop behind both entry points. Without `recovery` it is one
/// attempt from the initial state; with it, every attempt starts from the
/// restore line and failed attempts are retried up to
/// [`RecoveryConfig::max_attempts`].
fn supervise(
    solver: &ElasticSolver<'_>,
    cfg: &DistConfig<'_>,
    recovery: Option<Recovery<'_>>,
    reg: &Registry,
) -> RecoveredRun {
    // Refused here, on the caller's thread: inside a rank the panic would
    // surface only as "rank panicked".
    if let Some((u0, v0)) = cfg.initial {
        check_seed(u0, v0, 3 * solver.mesh.n_nodes());
    }
    let n_ranks = cfg.n_ranks;
    let setup = DistSetup::build(solver, n_ranks);
    // One epoch for every rank's registry (and every attempt): per-rank
    // timestamps land on a common timeline, so the merged trace shows true
    // cross-rank skew.
    let epoch = Instant::now();
    let max_attempts = recovery.map_or(1, |r| r.rcfg.max_attempts);
    let mut outcomes: Vec<Vec<RankOutcome>> = Vec::new();
    let mut attempt = 0;
    let (runs, restored_step, finished) = loop {
        // Restore line: the highest step where ALL ranks hold a valid
        // checkpoint; from scratch if there is none. States are decoded
        // serially here (the supervisor survives rank deaths by
        // construction) and each rank clones its own.
        let ndof = 3 * solver.mesh.n_nodes();
        let restored = recovery.and_then(|r| restore_line(&r.rcfg.ckpt_dir, n_ranks, ndof, reg));
        let restored_step = restored.as_ref().map_or(0, |(step, _)| *step);

        let runs = run_spmd(n_ranks, |comm: &Communicator| {
            let state = match &restored {
                Some((_, states)) => states[comm.rank()].clone(),
                None => solver.initial_state(0, cfg.initial),
            };
            run_rank(solver, &setup, cfg, comm, state, epoch, recovery, attempt)
        });

        let finished = runs.iter().all(|r| r.outcome == RankOutcome::Finished);
        outcomes.push(runs.iter().map(|r| r.outcome.clone()).collect());
        reg.event(
            "recover_attempt",
            &[
                ("attempt", attempt as f64),
                ("restored_step", restored_step as f64),
                ("finished", if finished { 1.0 } else { 0.0 }),
            ],
        );
        attempt += 1;
        if finished || attempt == max_attempts {
            break (runs, restored_step, finished);
        }
    };
    reg.set("recover/attempts", attempt as u64);
    reg.set("recover/recoveries", (attempt - 1) as u64);
    reg.set("recover/restored_step", restored_step);
    let mut last = DistributedRun {
        elements: setup.per_rank,
        volumes: setup.volumes,
        ..DistributedRun::default()
    };
    for run in runs {
        last.states.push(run.state);
        last.snapshots.extend(run.snapshot);
        last.traces.extend(run.trace);
        if last.reduced.is_empty() {
            last.reduced = run.reduced; // identical on every rank
        }
    }
    RecoveredRun {
        last,
        attempts: attempt,
        recoveries: attempt - 1,
        restored_step,
        outcomes,
        finished,
    }
}

/// One rank of one attempt: the canonical harness loop scoped to the rank's
/// elements, with the step-tagged exchange and one hook list assembled from
/// what the run is — [`FaultHook`] (a recoverable first attempt with faults),
/// [`TelemetryHook`] and `ImbalanceHook` ([`DistConfig::trace_capacity`]),
/// then for a recoverable run [`HealthHook`] and [`CheckpointHook`]:
/// `after_step` stops at the first erroring hook, so a state that fails the
/// health check is never offered to the checkpoint sink. A recoverable rank
/// that does not finish writes its post-mortem. No barriers (see
/// [`run_distributed_recoverable`]): a dead peer stops the loop with a comm
/// error, whether the exchange or a hook's collective observed it.
fn run_rank(
    solver: &ElasticSolver<'_>,
    setup: &DistSetup,
    cfg: &DistConfig<'_>,
    comm: &Communicator,
    mut state: SolverState,
    epoch: Instant,
    recovery: Option<Recovery<'_>>,
    attempt: usize,
) -> RankRun {
    // Flight-recorder capacity of the post-mortem path: enough for the tail
    // of a run's phase slices without measurable steady-state cost.
    const DUMP_TRACE_EVENTS: usize = 4096;
    let rank = comm.rank();
    let scope = &setup.scopes[rank];
    let n_steps = cfg.n_steps as u64;
    let rcfg = recovery.map(|r| r.rcfg);
    let telemetry = cfg.trace_capacity.is_some();
    let mut ws = match cfg.trace_capacity.or(rcfg.map(|_| DUMP_TRACE_EVENTS)) {
        Some(cap) => {
            let reg = Registry::with_epoch(rank, epoch);
            reg.enable_trace(cap);
            solver.workspace_with(reg)
        }
        None => solver.workspace(),
    };
    let mut exchange = CommExchange {
        comm,
        neighbors: setup.neighbors(rank, solver.mesh.n_nodes(), None),
        spans: None,
    };

    let mut fault = rcfg
        .filter(|r| attempt == 0 && !r.faults.is_empty())
        .map(|r| FaultHook::new(r.faults.rank_view(rank)));
    let mut telemetry_hooks = telemetry.then(|| {
        // This rank's true interface traffic: 3 doubles per shared node,
        // each sent AND received.
        let mut shape = solver.phase_shape(scope);
        shape.exchange_doubles = 2 * 3 * setup.volumes[rank] as u64;
        let mark = ws.reg.span_id("imbalance");
        (TelemetryHook::shaped(solver, shape), ImbalanceHook { comm, mark, prev_elements_ns: 0 })
    });
    let mut health = recovery
        .map(|r| HealthHook::new(solver, &setup.per_rank[rank], r.rcfg.every_steps, r.seed_energy));
    let mut sink = recovery.map(|r| {
        PeriodicSink::new(&r.writers[rank], &CheckpointPolicy::every_steps(r.rcfg.every_steps))
    });
    let mut ckpt = sink.as_mut().map(|s| CheckpointHook::new(s));

    let mut hooks: Vec<&mut dyn StepHook> = Vec::new();
    if let Some(h) = fault.as_mut() {
        hooks.push(h);
    }
    if let Some((t, i)) = telemetry_hooks.as_mut() {
        hooks.push(t);
        hooks.push(i);
    }
    if let Some(h) = health.as_mut() {
        hooks.push(h);
    }
    if let Some(h) = ckpt.as_mut() {
        hooks.push(h);
    }
    let run_cfg = RunConfig::to_step(n_steps).with_scope(scope);
    let harness = SolverHarness::new(solver);
    let mut report = None;
    let mut outcome = match harness.run(&run_cfg, &mut state, &mut ws, &mut exchange, &mut hooks) {
        RunOutcome::Finished { .. } => RankOutcome::Finished,
        RunOutcome::Stopped { step, reason } => match reason {
            StopReason::Killed => RankOutcome::Killed { step },
            StopReason::Comm(e) => RankOutcome::Aborted { step, reason: e },
            StopReason::Ckpt(e) => {
                RankOutcome::Aborted { step, reason: format!("checkpoint write: {e}") }
            }
            StopReason::Health(r) => {
                let reason = format!("health watchdog: step {}: {}", r.step, r.reason);
                report = Some(r);
                RankOutcome::Aborted { step, reason }
            }
        },
    };

    // Free the workspace's buffers before the interleaved state copies.
    let reg = ws.into_registry();
    // Reduce the metrics across the ranks that finished (a peer lost
    // mid-reduction fails this rank's attempt like one lost mid-run).
    let snapshot = telemetry.then(|| reg.snapshot());
    let mut reduced = Vec::new();
    if let (Some(snap), RankOutcome::Finished) = (&snapshot, &outcome) {
        match try_reduce_across_ranks(comm, snap) {
            Ok(r) => reduced = r,
            Err(e) => {
                let reason = format!("cross-rank metric reduction: {e}");
                outcome = RankOutcome::Aborted { step: n_steps, reason };
            }
        }
    }

    let failure = match &outcome {
        RankOutcome::Finished => None,
        RankOutcome::Killed { step } => Some((*step, "killed by fault plan")),
        RankOutcome::Aborted { step, reason } => Some((*step, reason.as_str())),
    };
    if let (Some(rcfg), Some((step, reason))) = (rcfg, failure) {
        let path = rcfg.ckpt_dir.join(format!("rank{rank}.attempt{attempt}.postmortem.ndjson"));
        let mut header = vec![
            ("type", "post_mortem".into()),
            ("rank", rank.into()),
            ("attempt", attempt.into()),
            ("step", step.into()),
            ("reason", reason.into()),
        ];
        if let Some(r) = &report {
            header.extend([
                ("dt", r.dt.into()),
                ("energy", r.energy.into()),
                ("peak_energy", r.peak_energy.into()),
                ("bad_dofs", Json::arr(r.bad_dofs.iter().map(|&(a, b)| Json::arr([a, b])))),
                ("last_valid_ckpt", r.last_valid_ckpt.into()),
            ]);
        }
        // Best effort: a failed dump must not mask the rank outcome.
        let _ = write_post_mortem(&path, &Json::obj(header), &reg, DUMP_TRACE_EVENTS);
    }
    // Public boundary: hand the states back interleaved.
    let state = if outcome == RankOutcome::Finished {
        (to_interleaved3(&state.u_prev), to_interleaved3(&state.u_now))
    } else {
        Default::default()
    };
    let trace = cfg.trace_capacity.map(|_| reg.trace_buffer());
    RankRun { outcome, state, snapshot, reduced, trace }
}

/// One NDJSON post-mortem: the header record, then the last `last_events`
/// events of the rank's flight recorder.
fn write_post_mortem(
    path: &Path,
    header: &Json,
    reg: &Registry,
    last_events: usize,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{}", header.line())?;
    file.write_all(reg.trace_buffer().ndjson_tail(last_events).as_bytes())?;
    file.flush()
}

/// The consistent restore line: the highest step at which **every** rank's
/// checkpoint file fully decodes (magic, version, kind, CRC) and holds
/// `ndof` dofs per field. Per-rank corruption just lowers the line for
/// everyone — ranks whose newer files are intact reload the older
/// consistent step instead — and a line left by a run on another mesh is
/// skipped the same way instead of reaching a rank.
fn restore_line(
    dir: &Path,
    n_ranks: usize,
    ndof: usize,
    reg: &Registry,
) -> Option<(u64, Vec<SolverState>)> {
    let readers: Vec<CheckpointReader> =
        (0..n_ranks).map(|r| CheckpointReader::new(dir, &format!("rank{r}"))).collect();
    let mut candidates = readers[0].steps();
    candidates.reverse(); // descending: newest line first
    for step in candidates {
        let span = reg.span("ckpt_restore");
        let loaded: Result<Vec<SolverState>, CkptError> =
            readers.iter().map(|r| r.load::<SolverState>(step).map(|(_, s)| s)).collect();
        drop(span);
        match loaded {
            Ok(states)
                if states.iter().all(|s| s.u_prev.len() == ndof && s.u_now.len() == ndof) =>
            {
                return Some((step, states))
            }
            _ => reg.add("ckpt/skipped_invalid", 1),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticConfig;
    use crate::rategroup::RateGroupPlan;
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};

    #[test]
    fn grouped_exchange_moves_exactly_the_groups_dofs() {
        // The group-aware exchange of the LTS path: summing rate group g's
        // shared dofs through its filtered neighbor lists must be
        // bit-identical to the one-group (global dt) exchange on those dofs,
        // leave every other dof untouched, and the groups' dof sets must
        // tile the full shared set.
        let half = 1u32 << (MAX_LEVEL - 1);
        let quarter = 1u32 << (MAX_LEVEL - 2);
        let mut tree = LinearOctree::build(|o| {
            o.level < 3
                || (o.level < 4 && o.x < half && o.y < half)
                || (o.level < 5 && o.x < quarter && o.y < quarter && o.z < quarter)
        });
        tree.balance(BalanceMode::Full);
        let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(0.05);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let groups = quake_mesh::RateGroups::build(&mesh, 8);
        assert!(groups.n_groups > 1);
        let n_ranks = 2;
        let setup = DistSetup::build(&solver, n_ranks);
        let n = mesh.n_nodes();
        let ndof = 3 * n;

        run_spmd(n_ranks, |comm: &Communicator| {
            let rank = comm.rank();
            let reg = Registry::disabled();
            let mut full =
                CommExchange { comm, neighbors: setup.neighbors(rank, n, None), spans: None };
            let mut grouped = CommExchange {
                comm,
                neighbors: setup.neighbors(rank, n, Some(&groups)),
                spans: None,
            };
            // The groups' shared-dof lists tile the one-group list exactly.
            let all_dofs = |ex: &CommExchange<'_>| {
                let mut dofs: Vec<u32> = ex
                    .neighbors
                    .iter()
                    .flat_map(|per_group| per_group.iter().flat_map(|(_, d)| d.iter().copied()))
                    .collect();
                dofs.sort_unstable();
                dofs
            };
            assert_eq!(full.neighbors.len(), 1);
            assert_eq!(
                all_dofs(&full),
                all_dofs(&grouped),
                "rank {rank}: group lists do not tile the shared set"
            );

            // Deterministic rank-dependent partial sums.
            let base: Vec<f64> = (0..ndof)
                .map(|d| ((d * (rank + 2) + 7 * rank) % 1000) as f64 * 1e-3 - 0.25)
                .collect();
            let mut reference = base.clone();
            full.exchange(0, 0, &mut reference, &reg).unwrap();

            for g in 0..groups.n_groups {
                let mut rhs = base.clone();
                grouped.exchange(0, g, &mut rhs, &reg).unwrap();
                for nd in 0..n {
                    let in_group = groups.node_group[nd] as usize == g;
                    for comp in 0..3 {
                        let d = comp * n + nd;
                        if in_group {
                            assert_eq!(
                                rhs[d], reference[d],
                                "rank {rank} group {g} node {nd}: summed dof differs"
                            );
                        } else {
                            assert_eq!(
                                rhs[d], base[d],
                                "rank {rank} group {g} node {nd}: foreign dof touched"
                            );
                        }
                    }
                }
            }
        });
    }

    fn pulse(mesh: &HexMesh) -> (Vec<f64>, Vec<f64>) {
        pulse_at(mesh, [4.0; 3], 1.0)
    }

    /// A Gaussian `u_y` pulse of width `sigma` centred at `centre`, at rest.
    fn pulse_at(mesh: &HexMesh, centre: [f64; 3], sigma: f64) -> (Vec<f64>, Vec<f64>) {
        let n = mesh.n_nodes();
        let mut u = vec![0.0; 3 * n];
        let v = vec![0.0; 3 * n];
        for (i, c) in mesh.coords.iter().enumerate() {
            let r2 = (0..3).map(|k| (c[k] - centre[k]).powi(2)).sum::<f64>();
            u[3 * i + 1] = (-r2 / (2.0 * sigma * sigma)).exp();
        }
        let mut uu = u;
        mesh.interpolate_hanging(&mut uu, 3);
        (uu, v)
    }

    #[test]
    fn distributed_matches_serial_exactly() {
        // Multiresolution mesh (constraints cross partition boundaries), ABC
        // on, several rank counts: the distributed run must agree with the
        // serial solver to rounding.
        let (mesh, cfg) = recovery_setup();
        assert!(mesh.n_hanging() > 0);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let steps = 12;
        let (sp, sn) =
            crate::harness::SolverHarness::new(&solver).run_to_state(Some((&u0, &v0)), steps);
        for ranks in [1usize, 2, 4] {
            let run =
                run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));
            for (rank, (dp, dn)) in run.states.iter().enumerate() {
                // Compare on the nodes this rank's elements touch.
                let mut touched = vec![false; mesh.n_nodes()];
                for &ei in &run.elements[rank] {
                    for &nd in &mesh.elements[ei as usize].nodes {
                        touched[nd as usize] = true;
                    }
                }
                let mut err = 0.0f64;
                for nd in 0..mesh.n_nodes() {
                    if !touched[nd] {
                        continue;
                    }
                    for c in 0..3 {
                        err = err.max((sn[3 * nd + c] - dn[3 * nd + c]).abs());
                        err = err.max((sp[3 * nd + c] - dp[3 * nd + c]).abs());
                    }
                }
                assert!(err < 1e-12, "ranks {ranks}, rank {rank}: err {err}");
            }
            if ranks > 1 {
                assert!(run.volumes.iter().any(|&v| v > 0), "no exchange at P={ranks}");
            }
            // Uninstrumented runs carry no telemetry.
            assert!(run.snapshots.is_empty() && run.reduced.is_empty());
        }
    }

    #[test]
    fn instrumented_run_reduces_phase_metrics_across_ranks() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 6usize);
        let run = run_distributed(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0).with_trace(4096),
        );

        assert_eq!(run.snapshots.len(), ranks);
        // Every rank stepped every phase `steps` times.
        for (rank, snap) in run.snapshots.iter().enumerate() {
            for ph in ["step", "step/fill", "step/elements", "step/exchange", "step/tail"] {
                let count = snap.get(&format!("span.{ph}.count"));
                assert_eq!(count, Some(steps as f64), "rank {rank} phase {ph}");
            }
        }
        // The reduction is present, covers the step span, and is coherent.
        let by = |n: &str| {
            run.reduced.iter().find(|r| r.name == n).unwrap_or_else(|| {
                panic!("missing reduced metric {n}");
            })
        };
        let secs = by("span.step.secs");
        assert!(secs.min > 0.0 && secs.min <= secs.mean && secs.mean <= secs.max);
        // Exchange traffic: some rank moves bytes, and the analytic counter
        // matches the plan's volume (2 directions x 3 comps x 8 bytes).
        let xbytes = by("ctr.step/exchange/bytes");
        let max_vol = run.volumes.iter().copied().max().unwrap() as f64;
        assert_eq!(xbytes.max, max_vol * 2.0 * 3.0 * 8.0 * steps as f64);
        // Every metric of a rank's snapshot is reduced, in snapshot order.
        for snap in &run.snapshots {
            let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
            let reduced: Vec<&str> = run.reduced.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, reduced);
        }
    }

    #[test]
    fn dead_peer_stops_a_telemetry_rank_with_a_comm_reason_instead_of_panicking() {
        // Rank 1 joins the step-0 exchange and then exits, so the first
        // operation of rank 0 that misses it is the imbalance hook's
        // collective — the survivor must stop with a Comm reason, not panic.
        let mesh = HexMesh::from_octree(&LinearOctree::uniform(2), 8.0, |_, _, _, _| {
            ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 }
        });
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(0.05);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let dist = DistConfig::new(2, 4).with_initial(&u0, &v0).with_trace(256);
        let setup = DistSetup::build(&solver, 2);
        let outcomes = run_spmd(2, |comm: &Communicator| {
            if comm.rank() == 1 {
                let neighbors = setup.neighbors(1, mesh.n_nodes(), None);
                let mut rhs = vec![0.0; 3 * mesh.n_nodes()];
                comm.try_exchange_sum(&neighbors[0], &mut rhs, 1, STEP_TAG_BASE).unwrap();
                return None;
            }
            let state = solver.initial_state(0, dist.initial);
            Some(run_rank(&solver, &setup, &dist, comm, state, Instant::now(), None, 0).outcome)
        });
        match &outcomes[0] {
            Some(RankOutcome::Aborted { reason, .. }) => {
                assert!(reason.contains("rank 1 failed"), "{reason}");
            }
            other => panic!("survivor did not stop with a comm reason: {other:?}"),
        }
    }

    #[test]
    fn traced_run_splits_exchange_and_merges_rank_timelines() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 6usize);
        let run = run_distributed(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0).with_trace(4096),
        );

        // One flight recorder per rank, none wrapped at this size.
        assert_eq!(run.traces.len(), ranks);
        for (rank, buf) in run.traces.iter().enumerate() {
            assert_eq!(buf.rank, rank);
            assert_eq!(buf.dropped, 0);
            let count = |n: &str| buf.events.iter().filter(|e| e.name == n).count();
            assert_eq!(count("step"), steps, "rank {rank}");
            // The timed exchange recorded its split every step...
            assert_eq!(count("step/exchange/wait"), steps, "rank {rank}");
            assert_eq!(count("step/exchange/copy"), steps, "rank {rank}");
            // ...and the sub-slices nest inside their step's exchange slice.
            for name in ["step/exchange/wait", "step/exchange/copy"] {
                for sub in buf.events.iter().filter(|e| e.name == name) {
                    assert!(
                        buf.events.iter().any(|x| x.name == "step/exchange"
                            && x.t0_ns <= sub.t0_ns
                            && sub.t0_ns + sub.dur_ns <= x.t0_ns + x.dur_ns),
                        "rank {rank}: {name} slice outside every exchange slice"
                    );
                }
            }
            // The imbalance hook dropped one mark per step.
            assert_eq!(
                buf.events
                    .iter()
                    .filter(|e| e.name == "imbalance" && e.kind == quake_telemetry::TraceKind::Mark)
                    .count(),
                steps,
                "rank {rank}"
            );
        }
        // The split feeds the aggregate stats too, nested under exchange.
        for snap in &run.snapshots {
            for ph in ["step/exchange/wait", "step/exchange/copy"] {
                assert_eq!(snap.get(&format!("span.{ph}.count")), Some(steps as f64));
            }
        }
        // The imbalance gauge reduces coherently (identical on all ranks).
        let imb = run.reduced.iter().find(|r| r.name == "gauge.imbalance").unwrap();
        assert!(imb.min >= 1.0 && (imb.max - imb.min).abs() < 1e-12, "{imb:?}");

        // The merged Chrome trace carries one track per rank.
        let json = quake_telemetry::json::chrome_trace(&run.traces);
        for rank in 0..ranks {
            assert!(json.contains(&format!("\"rank {rank}\"")), "missing track for rank {rank}");
        }
        assert!(json.contains("\"step/exchange/wait\""));
        assert!(json.contains("\"step/exchange/copy\""));
    }

    /// The multiresolution test mesh (hanging nodes cross partition
    /// boundaries) and its solver config.
    fn recovery_setup() -> (HexMesh, ElasticConfig) {
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut tree = LinearOctree::build(|o| o.level < 2 || (o.level < 3 && o.x < half));
        tree.balance(BalanceMode::Full);
        let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        let mut cfg = ElasticConfig::new(1.0);
        cfg.dt = Some(0.05);
        (mesh, cfg)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("quake-dist-recover-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A recovered run against the plain distributed run: same partition,
    /// and states equal bitwise on each rank's touched nodes.
    fn assert_matches_unfaulted(mesh: &HexMesh, run: &RecoveredRun, reference: &DistributedRun) {
        assert_eq!(run.last.elements, reference.elements);
        assert_eq!(run.last.volumes, reference.volumes);
        assert_eq!(run.last.states.len(), reference.states.len());
        for (rank, (dp, dn)) in run.last.states.iter().enumerate() {
            let (rp, rn) = &reference.states[rank];
            let mut touched = vec![false; mesh.n_nodes()];
            for &ei in &run.last.elements[rank] {
                for &nd in &mesh.elements[ei as usize].nodes {
                    touched[nd as usize] = true;
                }
            }
            for nd in 0..mesh.n_nodes() {
                if !touched[nd] {
                    continue;
                }
                for c in 0..3 {
                    assert_eq!(
                        dn[3 * nd + c].to_bits(),
                        rn[3 * nd + c].to_bits(),
                        "rank {rank} node {nd} comp {c} (u_now)"
                    );
                    assert_eq!(
                        dp[3 * nd + c].to_bits(),
                        rp[3 * nd + c].to_bits(),
                        "rank {rank} node {nd} comp {c} (u_prev)"
                    );
                }
            }
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical_to_unfaulted_run() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 12usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("kill-resume");
        let cfg_r = RecoveryConfig::new(dir.clone(), 4, 3);
        // Kill rank 2 just before step 7 (mid-run, after the step-8 line is
        // NOT yet written: last full line is step 4).
        let faults = FaultPlan::kill(2, 7);
        let reg = Registry::new(0);
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &cfg_r.clone().with_faults(faults.clone()),
            &reg,
        )
        .unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!(run.attempts, 2, "recovery within one retry");
        assert_eq!(run.recoveries, 1);
        assert_eq!(run.restored_step, 4, "restored from the last full line");
        // Attempt 0: rank 2 killed at step 7; every survivor aborted (dead
        // peer or cascade), none hung.
        assert_eq!(run.outcomes[0][2], RankOutcome::Killed { step: 7 });
        for r in [0usize, 1, 3] {
            assert!(
                matches!(run.outcomes[0][r], RankOutcome::Aborted { .. }),
                "rank {r}: {:?}",
                run.outcomes[0][r]
            );
        }
        assert!(run.outcomes[1].iter().all(|o| *o == RankOutcome::Finished));
        assert_eq!(reg.counter("recover/recoveries"), Some(1));
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_clean_attempt_is_run_distributed_bit_for_bit() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let dcfg = DistConfig::new(4, 12).with_initial(&u0, &v0);
        let reference = run_distributed(&solver, &dcfg);

        let dir = tmpdir("one-attempt");
        let cfg_r = RecoveryConfig::new(dir.clone(), 4, 1);
        let run =
            run_distributed_recoverable(&solver, &dcfg, &cfg_r, &Registry::disabled()).unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!((run.attempts, run.recoveries, run.restored_step), (1, 0, 0));
        assert_matches_unfaulted(&mesh, &run, &reference);
        // Untraced config: no telemetry on either entry point.
        assert!(run.last.snapshots.is_empty() && run.last.traces.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_run_carries_the_final_attempts_telemetry() {
        // DistConfig::with_trace means the same under the supervisor as under
        // run_distributed: the final attempt (restored at step 4 after the
        // kill) hands back one snapshot and one flight recorder per rank and
        // the cross-rank reduction — and tracing does not change the bits.
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 12usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("traced-recovery");
        let cfg_r = RecoveryConfig::new(dir.clone(), 4, 3).with_faults(FaultPlan::kill(2, 7));
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0).with_trace(4096),
            &cfg_r,
            &Registry::disabled(),
        )
        .unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!((run.attempts, run.restored_step), (2, 4));
        assert_matches_unfaulted(&mesh, &run, &reference);

        let resumed = (steps as u64 - run.restored_step) as usize;
        assert_eq!(run.last.snapshots.len(), ranks);
        assert_eq!(run.last.traces.len(), ranks);
        for (rank, buf) in run.last.traces.iter().enumerate() {
            assert_eq!(buf.rank, rank);
            for name in ["step", "step/exchange/wait", "step/exchange/copy"] {
                let n = buf.events.iter().filter(|e| e.name == name).count();
                assert_eq!(n, resumed, "rank {rank}: {name} slices");
            }
            let count = run.last.snapshots[rank].get("span.step/exchange/wait.count");
            assert_eq!(count, Some(resumed as f64), "rank {rank}");
        }
        assert!(run.last.reduced.iter().any(|r| r.name == "span.step.secs" && r.min > 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_corruption_is_caught_dumped_and_recovered_bit_identically() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 16usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("nan-watchdog");
        // Checkpoint and watchdog cadence 4 (health precedes ckpt in the
        // hook list, so no persisted line can hold the corruption).
        // Rank 1 silently NaNs one velocity entry before executing step 8:
        // the step-8 line (written after step 7) is clean, detection comes
        // at the next cadence boundary (post-step index 12, while executing
        // step 11) — within one cadence window of the corruption.
        let cfg_r = RecoveryConfig::new(dir.clone(), 4, 3).with_faults(
            FaultPlan::none().and(quake_parcomm::Fault::CorruptState {
                rank: 1,
                step: 8,
                index: 10,
            }),
        );
        let reg = Registry::new(0);
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &cfg_r,
            &reg,
        )
        .unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!(run.attempts, 2, "one watchdog abort, one clean retry");
        assert_eq!(run.recoveries, 1);
        assert_eq!(run.restored_step, 8, "restored from the last pre-corruption line");
        // Attempt 0: rank 1 aborted by the watchdog within one cadence
        // window; every other rank also stopped (NaN contamination caught by
        // its own watchdog, or a dead-peer comm error), none hung.
        match &run.outcomes[0][1] {
            RankOutcome::Aborted { step, reason } => {
                assert!(reason.contains("health watchdog: step 12"), "{reason}");
                assert!(reason.contains("non-finite"), "{reason}");
                assert_eq!(*step, 11, "caught at the first cadence boundary after step 8");
            }
            o => panic!("rank 1: {o:?}"),
        }
        for r in [0usize, 2, 3] {
            assert!(
                matches!(run.outcomes[0][r], RankOutcome::Aborted { .. }),
                "rank {r}: {:?}",
                run.outcomes[0][r]
            );
        }
        assert!(run.outcomes[1].iter().all(|o| *o == RankOutcome::Finished));

        // The rank's post-mortem: a header carrying the watchdog's report,
        // then the flight-recorder tail with the recent step slices.
        let dump = std::fs::read_to_string(dir.join("rank1.attempt0.postmortem.ndjson")).unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"type\":\"post_mortem\""));
        assert!(lines[0].contains("\"step\":11"));
        assert!(lines[0].contains("\"energy\":null"), "{}", lines[0]);
        assert!(lines[0].contains("\"last_valid_ckpt\":8"));
        assert!(lines[0].contains("\"bad_dofs\":[["));
        assert!(lines.len() > 1, "flight-recorder tail expected");
        assert!(lines[1..].iter().filter(|l| l.contains("\"name\":\"step\"")).count() >= 4);

        // Resume from the last valid line is bit-identical to an unfaulted
        // run: no persisted checkpoint ever held the corruption.
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_newest_checkpoint_lowers_the_restore_line() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (2usize, 12usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("corrupt-fallback");
        let cfg_r = RecoveryConfig::new(dir.clone(), 3, 3);
        let faults = FaultPlan::kill(1, 8);
        // First: let attempt 0 run and fail, producing checkpoints at steps
        // 3 and 6. Corrupt rank 0's step-6 file before the retry by running
        // the supervisor with max_attempts = 1 (so it stops after the fault),
        // flipping a byte, then resuming with a fresh supervisor call.
        let reg = Registry::disabled();
        let first = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &RecoveryConfig { max_attempts: 1, ..cfg_r.clone() }.with_faults(faults.clone()),
            &reg,
        )
        .unwrap();
        assert!(!first.finished);
        let victim = dir.join("rank0.0000000006.qckpt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        // The resumed supervisor (no faults this time) must skip the
        // corrupted step-6 line and restore everyone from step 3.
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &cfg_r,
            &reg,
        )
        .unwrap();
        assert!(run.finished);
        assert_eq!(run.restored_step, 3, "corrupt step-6 file must lower the line");
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_from_another_mesh_are_skipped_not_restored() {
        // A run directory left behind by a run on another mesh: its lines
        // decode, but their states do not fit this mesh. The supervisor
        // skips them like corrupt lines and starts from scratch instead of
        // handing the ranks states of the wrong length.
        let (mesh, cfg) = recovery_setup();
        let other = HexMesh::from_octree(&LinearOctree::uniform(2), 8.0, |_, _, _, _| {
            ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 }
        });
        assert_ne!(other.n_nodes(), mesh.n_nodes());
        let dir = tmpdir("foreign-mesh");
        let cfg_r = RecoveryConfig::new(dir.clone(), 3, 1);
        let foreign = ElasticSolver::new(&other, &cfg);
        let (fu0, fv0) = pulse(&other);
        let fcfg = DistConfig::new(2, 6).with_initial(&fu0, &fv0);
        let first =
            run_distributed_recoverable(&foreign, &fcfg, &cfg_r, &Registry::disabled()).unwrap();
        assert!(first.finished);

        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let dcfg = DistConfig::new(2, 12).with_initial(&u0, &v0);
        let reference = run_distributed(&solver, &dcfg);
        let reg = Registry::new(0);
        let run = run_distributed_recoverable(&solver, &dcfg, &cfg_r, &reg).unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!((run.attempts, run.restored_step), (1, 0), "started from scratch");
        assert_eq!(reg.counter("ckpt/skipped_invalid"), Some(2), "both foreign lines skipped");
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delayed_exchange_does_not_change_results_or_need_recovery() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 8usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("delay");
        let cfg_r = RecoveryConfig::new(dir.clone(), 4, 2);
        let faults = FaultPlan::none().and(quake_parcomm::Fault::DelayExchange {
            rank: 1,
            step: 3,
            millis: 20,
        });
        let reg = Registry::disabled();
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &cfg_r.clone().with_faults(faults.clone()),
            &reg,
        )
        .unwrap();
        assert!(run.finished);
        assert_eq!(run.attempts, 1, "a slow rank is not a failure");
        assert_eq!(run.recoveries, 0);
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_exchange_is_detected_and_recovered() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let (ranks, steps) = (4usize, 10usize);
        let reference =
            run_distributed(&solver, &DistConfig::new(ranks, steps).with_initial(&u0, &v0));

        let dir = tmpdir("drop");
        let cfg_r = RecoveryConfig::new(dir.clone(), 5, 3);
        let faults = FaultPlan::none().and(quake_parcomm::Fault::DropExchange { rank: 0, step: 6 });
        let reg = Registry::disabled();
        let run = run_distributed_recoverable(
            &solver,
            &DistConfig::new(ranks, steps).with_initial(&u0, &v0),
            &cfg_r.clone().with_faults(faults.clone()),
            &reg,
        )
        .unwrap();
        assert!(run.finished, "outcomes: {:?}", run.outcomes);
        assert_eq!(run.attempts, 2, "tag skew must be detected, then recovered");
        // Rank 0 is tainted from step 6 and must not have persisted any
        // checkpoint past the pre-fault line.
        assert_eq!(run.restored_step, 5);
        assert!(run.outcomes[0].iter().any(|o| matches!(o, RankOutcome::Aborted { .. })));
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Energy flows between the ranks' parts of the mesh: a rank whose part
    /// starts almost at rest gains orders of magnitude when the wave
    /// arrives. A pulse in one corner, run until it has crossed the mesh,
    /// trips a growth check against the far rank's own running peak, yet the
    /// recoverable run — which measures growth against the seed's
    /// whole-mesh energy — finishes in one attempt, bit-identical to the
    /// unwatched run.
    #[test]
    fn a_wave_crossing_into_a_quiet_rank_does_not_trip_the_watchdog() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse_at(&mesh, [1.2; 3], 0.48);
        // P waves travel 2 per unit time: 200 steps of 0.05 cross the
        // 8-wide mesh more than twice.
        let (ranks, steps, every) = (2usize, 200usize, 4u64);
        let setup = DistSetup::build(&solver, ranks);
        let far = &setup.per_rank[ranks - 1];
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let mut peak_only = HealthHook::new(&solver, far, every, 0.0);
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(steps as u64),
            &mut state,
            &mut solver.workspace(),
            &mut crate::harness::NoExchange,
            &mut [&mut peak_only],
        );
        let RunOutcome::Stopped { reason: StopReason::Health(report), .. } = outcome else {
            panic!("the far rank's share must outgrow its own early peak, got {outcome:?}");
        };
        assert!(report.reason.contains("energy growth"), "{}", report.reason);

        let dcfg = DistConfig::new(ranks, steps).with_initial(&u0, &v0);
        let reference = run_distributed(&solver, &dcfg);
        let dir = tmpdir("quiet-rank");
        let rcfg = RecoveryConfig::new(dir.clone(), every, 3);
        let run =
            run_distributed_recoverable(&solver, &dcfg, &rcfg, &Registry::disabled()).unwrap();
        assert!(run.finished && run.attempts == 1, "{:?}", run.outcomes);
        assert_matches_unfaulted(&mesh, &run, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every fault that stops ranks leaves one post-mortem per rank that did
    /// not finish attempt 0 — a header naming the rank, the step and the
    /// reason, then the flight-recorder tail — and none for the clean
    /// retry. The faulted rank's reason names its fault. The dumps sit beside the checkpoints, yet neither
    /// the reader's step list nor the restore line changes when they go.
    #[test]
    fn every_stopped_rank_leaves_one_post_mortem_beside_an_unchanged_restore_line() {
        use quake_parcomm::Fault::*;
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let dcfg = DistConfig::new(4, 12).with_initial(&u0, &v0);
        let reference = run_distributed(&solver, &dcfg);
        let ndof = 3 * mesh.n_nodes();
        let cases = [
            ("kill", Kill { rank: 2, step: 7 }, "killed by fault plan"),
            ("drop", DropExchange { rank: 0, step: 6 }, "protocol mismatch"),
            ("corrupt", CorruptState { rank: 1, step: 8, index: 10 }, "health watchdog"),
        ];
        for (name, fault, faulted_reason) in cases {
            let dir = tmpdir(&format!("post-mortem-{name}"));
            let rcfg =
                RecoveryConfig::new(dir.clone(), 4, 3).with_faults(FaultPlan::none().and(fault));
            let run =
                run_distributed_recoverable(&solver, &dcfg, &rcfg, &Registry::disabled()).unwrap();
            assert!(run.finished && run.attempts == 2, "{name}: {:?}", run.outcomes);
            assert_matches_unfaulted(&mesh, &run, &reference);

            let mut dumps: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|f| f.ends_with(".postmortem.ndjson"))
                .collect();
            dumps.sort();
            let mut expected = Vec::new();
            for (rank, outcome) in run.outcomes[0].iter().enumerate() {
                let (step, reason) = match outcome {
                    RankOutcome::Finished => continue,
                    RankOutcome::Killed { step } => (*step, "killed by fault plan"),
                    RankOutcome::Aborted { step, reason } => (*step, reason.as_str()),
                };
                let file = format!("rank{rank}.attempt0.postmortem.ndjson");
                let dump = std::fs::read_to_string(dir.join(&file)).unwrap();
                let lines: Vec<&str> = dump.lines().collect();
                assert!(lines.len() > 1, "{name} {file}: no flight-recorder tail");
                for line in &lines[1..] {
                    assert!(line.starts_with("{\"type\":\"trace\""), "{name} {file}: {line}");
                }
                let header = format!(
                    "{{\"type\":\"post_mortem\",\"rank\":{rank},\"attempt\":0,\"step\":{step},\"reason\":{}",
                    Json::from(reason).line()
                );
                assert!(lines[0].starts_with(&header), "{name} {file}: {}", lines[0]);
                if rank == fault.rank() {
                    assert!(reason.contains(faulted_reason), "{name} {file}: {reason}");
                }
                expected.push(file);
            }
            assert!(expected.iter().any(|f| f.starts_with(&format!("rank{}.", fault.rank()))));
            assert_eq!(dumps, expected, "{name}: one dump per stopped rank, none for the retry");

            let reg = Registry::disabled();
            let line = |dir: &Path| restore_line(dir, 4, ndof, &reg).map(|(step, _)| step);
            let (steps, restored) = (CheckpointReader::new(&dir, "rank0").steps(), line(&dir));
            for f in &dumps {
                std::fs::remove_file(dir.join(f)).unwrap();
            }
            assert_eq!(CheckpointReader::new(&dir, "rank0").steps(), steps, "{name}");
            assert_eq!(line(&dir), restored, "{name}");
            assert_eq!(restored, Some(12), "{name}: the finished retry's last line");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A watchdog cadence that would switch it off, and rank, cadence or
    /// retry counts that cannot run, panic naming their field.
    #[test]
    fn invalid_settings_are_refused_naming_the_field() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let dir = tmpdir("invalid-settings");
        let recover = |ranks, rcfg: RecoveryConfig| {
            let dist = DistConfig::new(ranks, 4);
            let _ = run_distributed_recoverable(&solver, &dist, &rcfg, &Registry::disabled());
        };
        let rcfg = |every, attempts| RecoveryConfig::new(dir.clone(), every, attempts);
        let cases: Vec<(&str, Box<dyn Fn() + '_>)> = vec![
            ("HealthHook cadence", Box::new(|| drop(HealthHook::new(&solver, &[0], 0, 0.0)))),
            (
                "DistConfig::n_ranks",
                Box::new(|| drop(run_distributed(&solver, &DistConfig::new(0, 4)))),
            ),
            ("DistConfig::n_ranks", Box::new(|| recover(0, rcfg(4, 1)))),
            ("RecoveryConfig::every_steps", Box::new(|| recover(2, rcfg(0, 1)))),
            ("RecoveryConfig::max_attempts", Box::new(|| recover(2, rcfg(4, 0)))),
        ];
        for (field, case) in &cases {
            let msg = refusal(field, case);
            assert!(msg.contains(field), "{field}: panicked with {msg:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The panic message of a case that must be refused.
    fn refusal(what: &str, case: &dyn Fn()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case))
            .expect_err(&format!("{what}: accepted"));
        let msg = err.downcast_ref::<String>().map(String::as_str);
        msg.or_else(|| err.downcast_ref::<&str>().copied()).unwrap_or_default().to_string()
    }

    /// A NaN or +-inf seed and a fault on a rank the run does not have are
    /// refused, naming the field, the first bad index or the fault. The
    /// distributed refusals come from the caller's thread (a panic inside a
    /// rank would read "rank panicked"); a fault is refused before the
    /// checkpoint directory exists.
    #[test]
    fn bad_seeds_and_unreachable_faults_are_refused_before_any_rank_starts() {
        let (mesh, cfg) = recovery_setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let plan = RateGroupPlan::build(&solver, 8);
        let (u0, v0) = pulse(&mesh);
        let with = |field: &[f64], i: usize, bad: f64| {
            let mut f = field.to_vec();
            f[i] = bad;
            f
        };
        let (u_nan, v_inf) = (with(&u0, 5, f64::NAN), with(&v0, 7, f64::INFINITY));
        let u_neg_inf = with(&u0, 3, f64::NEG_INFINITY);
        let dir = std::env::temp_dir()
            .join("quake-dist-recover-tests")
            .join(format!("refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recover = |dist: DistConfig<'_>, faults: FaultPlan| {
            let rcfg = RecoveryConfig::new(dir.clone(), 4, 2).with_faults(faults);
            let _ = run_distributed_recoverable(&solver, &dist, &rcfg, &Registry::disabled());
        };
        let fault = |f: quake_parcomm::Fault| {
            move || recover(DistConfig::new(2, 4), FaultPlan::none().and(f))
        };
        use quake_parcomm::Fault::*;
        let cases: Vec<(&str, Box<dyn Fn() + '_>)> = vec![
            (
                "initial u0[5] is NaN",
                Box::new(|| drop(solver.initial_state(0, Some((&u_nan, &v0))))),
            ),
            (
                "initial v0[7] is inf",
                Box::new(|| drop(solver.initial_state(0, Some((&u0, &v_inf))))),
            ),
            (
                "initial u0[3] is -inf",
                Box::new(|| drop(plan.initial_state(&solver, 0, Some((&u_neg_inf, &v0))))),
            ),
            (
                "initial u0 must hold",
                Box::new(|| drop(solver.initial_state(0, Some((&u0[1..], &v0))))),
            ),
            (
                "initial u0[5] is NaN",
                Box::new(|| {
                    drop(run_distributed(&solver, &DistConfig::new(2, 4).with_initial(&u_nan, &v0)))
                }),
            ),
            (
                "initial v0[7] is inf",
                Box::new(|| {
                    recover(DistConfig::new(2, 4).with_initial(&u0, &v_inf), FaultPlan::none())
                }),
            ),
            ("RecoveryConfig::faults: Kill { rank: 2", Box::new(fault(Kill { rank: 2, step: 1 }))),
            (
                "RecoveryConfig::faults: DelayExchange { rank: 3",
                Box::new(fault(DelayExchange { rank: 3, step: 1, millis: 1 })),
            ),
            (
                "RecoveryConfig::faults: DropExchange { rank: 2",
                Box::new(fault(DropExchange { rank: 2, step: 1 })),
            ),
            (
                "RecoveryConfig::faults: CorruptState { rank: 9",
                Box::new(fault(CorruptState { rank: 9, step: 1, index: 0 })),
            ),
        ];
        for (what, case) in &cases {
            let msg = refusal(what, case);
            assert!(msg.contains(what), "{what}: panicked with {msg:?}");
            let faulty = what.starts_with("RecoveryConfig");
            assert!(!(faulty && dir.exists()), "{what}: a checkpoint directory was created");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
