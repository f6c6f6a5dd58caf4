//! Numerics health watchdog — catches silent solution corruption.
//!
//! Comm-layer defenses (step tags, checkpoints, CRCs) catch *infrastructure*
//! faults: dead ranks, dropped exchanges, corrupt files. None of them can see
//! a silent numerical fault — a NaN written by a bit flip or a kernel bug, or
//! an instability pumping energy into the field — because the corrupted state
//! checkpoints and exchanges just fine. The [`HealthHook`] closes that gap:
//! on a configurable step cadence it scans the solution for non-finite
//! values and samples the discrete energy
//! `E_k = 1/2 v^T M v + 1/2 u^T K u` (the invariant a source-free,
//! boundary-less leapfrog run conserves to rounding), aborts the run on a
//! violation, and — before aborting — writes an NDJSON post-mortem dump:
//! one diagnostic header line (step, dt, energy history, offending dof
//! ranges, last checkpoint line expected valid) followed by the tail of the
//! registry's flight recorder ([`TraceBuffer::ndjson_tail`]).
//!
//! **Hook order matters**: place the `HealthHook` *before* any
//! `CheckpointHook` in the harness hook list and give it a cadence that
//! divides the checkpoint cadence (`run_distributed_recoverable` refuses
//! one that does not). `after_step` processing stops at the first erroring
//! hook, so every state a checkpoint sink persists has passed the health
//! check — a detected corruption can never poison the newest restore line,
//! and resume from the reported `last_valid_ckpt` is bit-identical to an
//! unfaulted run up to that line.
//!
//! The watchdog is an opt-in hook: runs that do not install it pay nothing.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::elastic::ElasticSolver;
use crate::harness::{HookCtx, StepHook, StopReason};
use quake_telemetry::json::Json;
use quake_telemetry::Registry;

/// The watchdog aborts when the sampled energy exceeds this many times the
/// running peak (leapfrog conserves discrete energy to rounding in a
/// source-free interior; damping and ABCs only remove energy, so sustained
/// growth is unphysical). Values below a tiny absolute floor are ignored so
/// a quiescent field cannot trip the ratio.
const MAX_ENERGY_GROWTH: f64 = 10.0;

/// Flight-recorder events in the tail of a violation dump.
const DUMP_LAST_EVENTS: usize = 256;

/// Watchdog configuration. `Default` checks every step and dumps nowhere.
#[derive(Clone, Debug)]
pub struct HealthConfig {
    /// Check when `state.step % cadence == 0` (post-step step index). A
    /// corruption is caught within one cadence window of appearing.
    pub cadence: u64,
    /// Where to write the post-mortem NDJSON dump on violation (`None` =
    /// report in the [`StopReason::Health`] string only).
    pub dump_path: Option<PathBuf>,
    /// Checkpoint cadence of the surrounding run, if it checkpoints — lets
    /// the dump name the last checkpoint line expected valid (see the module
    /// docs for the hook-order contract that makes that line trustworthy).
    pub ckpt_every: Option<u64>,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig { cadence: 1, dump_path: None, ckpt_every: None }
    }
}

impl HealthConfig {
    /// Check every `cadence` steps.
    pub fn every(cadence: u64) -> HealthConfig {
        HealthConfig { cadence: cadence.max(1), ..HealthConfig::default() }
    }

    /// Write the post-mortem dump here on violation.
    pub fn with_dump(mut self, path: PathBuf) -> HealthConfig {
        self.dump_path = Some(path);
        self
    }

    /// Name the surrounding run's checkpoint cadence in dumps.
    pub fn with_ckpt_every(mut self, every: u64) -> HealthConfig {
        self.ckpt_every = Some(every);
        self
    }

    /// Refuse, naming the field, settings that defeat the watchdog (cadence
    /// 0) or crash its report (`ckpt_every` 0).
    pub(crate) fn validate(&self) {
        assert!(self.cadence > 0, "HealthConfig::cadence must be > 0");
        assert_ne!(self.ckpt_every, Some(0), "HealthConfig::ckpt_every must be > 0 when set");
    }
}

/// What the watchdog found when it aborted a run.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Post-step step index at detection (`state.step`, the *next* step).
    pub step: u64,
    pub dt: f64,
    /// Human-readable violation.
    pub reason: String,
    /// Energy at detection (NaN when the field itself is non-finite).
    pub energy: f64,
    /// Running peak energy over all previous samples.
    pub peak_energy: f64,
    /// Offending planar dof ranges `[start, end)` (capped; non-finite scans
    /// only).
    pub bad_dofs: Vec<(usize, usize)>,
    /// Highest checkpoint line expected valid (multiples of
    /// [`HealthConfig::ckpt_every`] strictly below `step`).
    pub last_valid_ckpt: Option<u64>,
}

/// The watchdog hook. See the module docs for placement rules.
pub struct HealthHook<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
    cfg: HealthConfig,
    peak_energy: f64,
    /// Set when the hook aborted the run (for drivers that want the full
    /// report, not just the [`StopReason::Health`] string).
    report: Option<HealthReport>,
}

impl<'s, 'm> HealthHook<'s, 'm> {
    /// Panics on a [`HealthConfig`] that would disable or crash the watchdog.
    pub fn new(solver: &'s ElasticSolver<'m>, cfg: HealthConfig) -> HealthHook<'s, 'm> {
        cfg.validate();
        HealthHook { solver, cfg, peak_energy: 0.0, report: None }
    }

    /// The violation report, if this hook aborted the run.
    pub fn report(&self) -> Option<&HealthReport> {
        self.report.as_ref()
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

    fn violation(&mut self, ctx: &HookCtx<'_>, reason: String, energy: f64) -> StopReason {
        let step = ctx.state.step;
        let report = HealthReport {
            step,
            dt: ctx.info.dt,
            reason: reason.clone(),
            energy,
            peak_energy: self.peak_energy,
            bad_dofs: Self::bad_ranges(&ctx.state.u_prev, &ctx.state.u_now, 8),
            last_valid_ckpt: self
                .cfg
                .ckpt_every
                .map(|every| (step.saturating_sub(1) / every) * every),
        };
        if let Some(path) = &self.cfg.dump_path {
            // Best effort: a failed dump must not mask the violation itself.
            let _ = write_health_dump(path, ctx.reg, &report, DUMP_LAST_EVENTS);
        }
        let msg = format!("step {step}: {reason}");
        self.report = Some(report);
        StopReason::Health(msg)
    }
}

impl StepHook for HealthHook<'_, '_> {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if !ctx.state.step.is_multiple_of(self.cfg.cadence) {
            return Ok(());
        }
        let bad_now = ctx.state.u_now.iter().any(|v| !v.is_finite());
        let bad_prev = bad_now || ctx.state.u_prev.iter().any(|v| !v.is_finite());
        if bad_prev {
            let reason = "non-finite field values (NaN/Inf) in solution state".to_string();
            return Err(self.violation(ctx, reason, f64::NAN));
        }
        // Staggered velocity over each node's own step: the owner group's
        // under a rate-group plan, the global dt otherwise.
        let info = ctx.info;
        let energy = self.solver.energy_sum(&ctx.state.u_prev, &ctx.state.u_now, |nd| {
            info.node_dt.map_or(info.dt, |dts| dts[nd])
        });
        if !energy.is_finite() {
            let reason = "non-finite discrete energy".to_string();
            return Err(self.violation(ctx, reason, energy));
        }
        // Absolute floor: a quiescent field's rounding noise must not trip
        // the relative growth check.
        const ENERGY_FLOOR: f64 = 1e-300;
        if self.peak_energy > ENERGY_FLOOR && energy > MAX_ENERGY_GROWTH * self.peak_energy {
            let reason = format!(
                "energy growth: E = {energy:.6e} exceeds {MAX_ENERGY_GROWTH}x running peak {:.6e}",
                self.peak_energy
            );
            return Err(self.violation(ctx, reason, energy));
        }
        self.peak_energy = self.peak_energy.max(energy);
        Ok(())
    }
}

/// Write a health-violation post-mortem: one `health_violation` header line
/// followed by the last `last_events` flight-recorder events (NDJSON).
pub fn write_health_dump(
    path: &Path,
    reg: &Registry,
    report: &HealthReport,
    last_events: usize,
) -> std::io::Result<()> {
    let bad_dofs = report.bad_dofs.iter().map(|&(a, b)| Json::arr([a, b]));
    let mut header = vec![
        ("type", "health_violation".into()),
        ("rank", reg.rank().into()),
        ("step", report.step.into()),
        ("dt", report.dt.into()),
        ("reason", report.reason.as_str().into()),
        ("energy", report.energy.into()),
        ("peak_energy", report.peak_energy.into()),
        ("bad_dofs", Json::arr(bad_dofs)),
    ];
    header.extend(report.last_valid_ckpt.map(|ck| ("last_valid_ckpt", ck.into())));
    write_dump(path, reg, Json::obj(header), last_events)
}

/// Write a generic post-mortem for a rank that failed for a non-numerics
/// reason (killed, comm abort, checkpoint error): one `post_mortem` header
/// line followed by the flight-recorder tail. Used by the distributed
/// recovery supervisor when a dump directory is configured.
pub fn dump_post_mortem(
    path: &Path,
    reg: &Registry,
    reason: &str,
    step: u64,
    last_events: usize,
) -> std::io::Result<()> {
    let header = Json::obj([
        ("type", "post_mortem".into()),
        ("rank", reg.rank().into()),
        ("step", step.into()),
        ("reason", reason.into()),
    ]);
    write_dump(path, reg, header, last_events)
}

/// One NDJSON file: the header record, then the flight-recorder tail.
fn write_dump(
    path: &Path,
    reg: &Registry,
    header: Json,
    last_events: usize,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{}", header.line())?;
    file.write_all(reg.trace_buffer().ndjson_tail(last_events).as_bytes())?;
    file.flush()
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
        let mut hook = HealthHook::new(&solver, HealthConfig::every(1));
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(10),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut hook],
        );
        assert!(matches!(outcome, RunOutcome::Finished { executed: 10 }));
        assert!(hook.report().is_none());
        assert!(hook.peak_energy > 0.0);
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
        let mut hook = HealthHook::new(&solver, HealthConfig::every(4));
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(20),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut corrupt, &mut hook],
        );
        let RunOutcome::Stopped { step, reason: StopReason::Health(msg) } = outcome else {
            panic!("watchdog must stop the run, got {outcome:?}");
        };
        assert_eq!(step, 3, "stopped while executing the first checked step window");
        assert!(msg.contains("non-finite"), "{msg}");
        let report = hook.report().expect("report recorded");
        assert_eq!(report.step, 4, "detected at the first cadence boundary");
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
        let mut hook = HealthHook::new(&solver, HealthConfig::every(1));
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(20),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut amp, &mut hook],
        );
        let RunOutcome::Stopped { reason: StopReason::Health(msg), .. } = outcome else {
            panic!("watchdog must stop the run, got {outcome:?}");
        };
        assert!(msg.contains("energy growth"), "{msg}");
        let report = hook.report().expect("report recorded");
        assert!(report.energy > report.peak_energy * MAX_ENERGY_GROWTH);
        assert!(report.bad_dofs.is_empty(), "field is finite, just unphysical");
    }

    #[test]
    fn violation_dump_contains_header_and_trace_tail() {
        let (mesh, cfg) = setup();
        let solver = ElasticSolver::new(&mesh, &cfg);
        let (u0, v0) = pulse(&mesh);
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let reg = Registry::new(0);
        reg.enable_trace(512);
        let mut ws = solver.workspace_with(reg);
        let dir = std::env::temp_dir()
            .join("quake-health-tests")
            .join(format!("dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("violation.ndjson");
        struct Corruptor;
        impl StepHook for Corruptor {
            fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
                if ctx.state.step == 2 {
                    ctx.state.u_now[0] = f64::INFINITY;
                }
                Ok(())
            }
        }
        let mut corrupt = Corruptor;
        let hcfg = HealthConfig::every(1).with_dump(path.clone()).with_ckpt_every(2);
        let mut hook = HealthHook::new(&solver, hcfg);
        let outcome = SolverHarness::new(&solver).run(
            &RunConfig::to_step(10),
            &mut state,
            &mut ws,
            &mut crate::harness::NoExchange,
            &mut [&mut corrupt, &mut hook],
        );
        assert!(matches!(outcome, RunOutcome::Stopped { reason: StopReason::Health(_), .. }));
        let dump = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines.len() > 1, "header + trace tail expected:\n{dump}");
        assert!(lines[0].contains("\"type\":\"health_violation\""));
        assert!(lines[0].contains("\"step\":3"));
        assert!(lines[0].contains("\"last_valid_ckpt\":2"));
        assert!(lines[0].contains("\"bad_dofs\":[["));
        // Tail lines are flight-recorder events from the instrumented steps.
        assert!(lines[1..].iter().all(|l| l.contains("\"type\":\"trace\"")));
        assert!(lines[1..].iter().any(|l| l.contains("\"name\":\"step\"")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
