//! Property tests for the canonical `SolverHarness` loop: hook-order
//! independence, panic safety of the checkpoint retention, and the
//! final-step pin against the frozen reference step.

use std::path::PathBuf;

use quake_ckpt::{CheckpointPolicy, CheckpointReader, CheckpointWriter, PeriodicSink};
use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_parcomm::{Fault, FaultPlan};
use quake_solver::harness::{FaultHook, HookCtx, StopReason};
use quake_solver::layout::{to_interleaved3, to_planar3};
use quake_solver::reference::reference_step;
use quake_solver::{
    CheckpointHook, ElasticConfig, ElasticSolver, HealthHook, NoExchange, RateGroupPlan,
    ReceiverHook, RunConfig, RunOutcome, SolverHarness, SolverState, StepHook, TelemetryHook,
};

/// Small multiresolution mesh with hanging nodes — the production step shape.
fn build_mesh() -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    let mut tree = LinearOctree::build(|o| o.level < 2 || (o.level < 3 && o.x < half));
    tree.balance(BalanceMode::Full);
    HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

/// Three refinement levels (coarse background, a level-4 quadrant, a level-5
/// octant corner): three rate groups with factors 1, 2, 4.
fn three_level_mesh() -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    let quarter = 1u32 << (MAX_LEVEL - 2);
    let mut tree = LinearOctree::build(|o| {
        o.level < 3
            || (o.level < 4 && o.x < half && o.y < half)
            || (o.level < 5 && o.x < quarter && o.y < quarter && o.z < quarter)
    });
    tree.balance(BalanceMode::Full);
    HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

fn pulse(mesh: &HexMesh) -> (Vec<f64>, Vec<f64>) {
    let n = mesh.n_nodes();
    let mut u = vec![0.0; 3 * n];
    let v = vec![0.0; 3 * n];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
        u[3 * i + 1] = (-r2 / 2.0).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    (u, v)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quake-harness-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at dof {i}");
    }
}

/// Satellite 3a: any permutation of {telemetry, checkpoint, receiver} hooks
/// yields bit-identical displacement histories — hooks observe the step,
/// they never perturb it — under global dt (the one-group plan) and under a
/// 3-group rate plan alike.
#[test]
fn hook_order_does_not_change_the_history() {
    let mesh = three_level_mesh();
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.02);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);
    let nodes: Vec<u32> = vec![0, (mesh.n_nodes() / 2) as u32];
    let n_steps = 12u64;
    let harness = SolverHarness::new(&solver);

    let perms: [[usize; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for plan in [None, Some(RateGroupPlan::build(&solver, 8))] {
        let cycle = plan.as_ref().map_or(1, |p| p.cycle());
        assert!(plan.as_ref().is_none_or(|p| p.n_groups() == 3 && cycle == 4));
        let mut baseline: Option<SolverState> = None;
        for (pi, perm) in perms.iter().enumerate() {
            let dir = tmpdir(&format!("perm{pi}-m{cycle}"));
            let writer = CheckpointWriter::new(&dir, "perm").unwrap();
            let policy = CheckpointPolicy::every_steps(4);
            let mut sink = PeriodicSink::new(&writer, &policy);

            let mut receivers = ReceiverHook::new(&nodes);
            let mut ckpt = CheckpointHook::new(&mut sink);
            let mut telemetry = TelemetryHook::new(&solver);
            let mut slots: [Option<&mut dyn StepHook>; 3] =
                [Some(&mut receivers), Some(&mut ckpt), Some(&mut telemetry)];
            let mut hooks: Vec<&mut dyn StepHook> = Vec::new();
            for &slot in perm {
                hooks.push(slots[slot].take().unwrap());
            }

            let mut ws = solver.workspace();
            let run_cfg = RunConfig::to_step(n_steps);
            let initial = Some((&u0[..], &v0[..]));
            let (state, outcome) = match &plan {
                None => {
                    let mut state = solver.initial_state(nodes.len(), initial);
                    let o = harness.run(&run_cfg, &mut state, &mut ws, &mut NoExchange, &mut hooks);
                    (state, o)
                }
                Some(plan) => {
                    let mut state = plan.initial_state(&solver, nodes.len(), initial);
                    let o = harness.run_grouped(
                        plan,
                        &run_cfg,
                        &mut state,
                        &mut ws,
                        &mut NoExchange,
                        &mut hooks,
                    );
                    (state, o)
                }
            };
            assert!(matches!(outcome, RunOutcome::Finished { executed } if executed == n_steps));
            // Every permutation checkpointed the same due steps, each with
            // one seismogram sample per completed sync step.
            let reader = CheckpointReader::new(&dir, "perm");
            assert_eq!(reader.steps(), vec![4, 8, 12]);
            let (_, at8) = reader.load::<SolverState>(8).unwrap();
            assert_eq!(at8.seismograms[0].n_samples() as u64, 8 / cycle);
            assert_eq!(state.seismograms[0].n_samples() as u64, n_steps / cycle);

            match &baseline {
                None => baseline = Some(state),
                Some(b) => {
                    assert_bits_eq(&b.u_prev, &state.u_prev, "u_prev");
                    assert_bits_eq(&b.u_now, &state.u_now, "u_now");
                    for (sa, sb) in b.seismograms.iter().zip(&state.seismograms) {
                        assert_bits_eq(&sa.data, &sb.data, "seismogram");
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// ROADMAP aim 3d: a silent NaN injected under a 3-group rate plan
/// (`Fault::CorruptState`, fired at a sync step) is caught by the
/// `HealthHook` at the next sync step, the report names the last checkpoint
/// line that predates the corruption, and resuming from that file replays
/// the unfaulted run to the bit.
#[test]
fn corrupt_state_under_lts_is_caught_at_the_next_sync_step() {
    corrupt_state_under_lts(8);
}

/// A fault scripted inside a macro cycle (`cycle * k + 1` and later) fires
/// at the first sync step at or after it: steps 5..=8 all enter the state at
/// sync step 8, with the same detection, report and resume as above. (Before
/// PR 13 the hook asked for exactly the sync step, so these never fired.)
#[test]
fn fault_scripted_inside_a_macro_cycle_fires_at_the_next_sync_step() {
    corrupt_state_under_lts(5);
    corrupt_state_under_lts(7);
}

fn corrupt_state_under_lts(fault_step: u64) {
    let mesh = three_level_mesh();
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.02);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let plan = RateGroupPlan::build(&solver, 8);
    assert_eq!((plan.n_groups(), plan.cycle()), (3, 4));
    let (u0, v0) = pulse(&mesh);
    let harness = SolverHarness::new(&solver);
    let run_cfg = RunConfig::to_step(24);
    let mut ws = solver.workspace();

    let mut straight = plan.initial_state(&solver, 0, Some((&u0, &v0)));
    let o = harness.run_grouped(&plan, &run_cfg, &mut straight, &mut ws, &mut NoExchange, &mut []);
    assert!(matches!(o, RunOutcome::Finished { executed: 24 }));

    let dir = tmpdir(&format!("lts-corrupt-{fault_step}"));
    let writer = CheckpointWriter::new(&dir, "lts").unwrap();
    let policy = CheckpointPolicy::every_steps(4);
    let faults =
        FaultPlan::none().and(Fault::CorruptState { rank: 0, step: fault_step, index: 10 });
    let mut state = plan.initial_state(&solver, 0, Some((&u0, &v0)));
    let elements: Vec<u32> = (0..mesh.n_elements() as u32).collect();
    let outcome = {
        let mut sink = PeriodicSink::new(&writer, &policy);
        let mut fault = FaultHook::new(faults.rank_view(0));
        // Health precedes the checkpoint hook on its cadence, so the corrupt
        // state at step 12 is never offered to the sink.
        let mut health = HealthHook::new(&solver, &elements, 4, 0.0);
        let mut ckpt = CheckpointHook::new(&mut sink);
        harness.run_grouped(
            &plan,
            &run_cfg,
            &mut state,
            &mut ws,
            &mut NoExchange,
            &mut [&mut fault, &mut health, &mut ckpt],
        )
    };
    let RunOutcome::Stopped { step, reason: StopReason::Health(report) } = outcome else {
        panic!("watchdog must stop the run, got {outcome:?}");
    };
    assert_eq!(step, 8, "stopped in the macro cycle the corruption entered");
    assert!(report.reason.contains("non-finite"), "{}", report.reason);
    assert_eq!(report.step, 12, "detected at the next sync step");
    assert_eq!(report.last_valid_ckpt, 8);
    assert!(!report.bad_dofs.is_empty());

    let reader = CheckpointReader::new(&dir, "lts");
    assert_eq!(reader.steps(), vec![4, 8], "no line past the corruption was persisted");
    let (at, mut resumed): (u64, SolverState) =
        reader.latest_valid(&quake_telemetry::Registry::disabled()).unwrap();
    assert_eq!(at, report.last_valid_ckpt);
    let o = harness.run_grouped(&plan, &run_cfg, &mut resumed, &mut ws, &mut NoExchange, &mut []);
    assert!(matches!(o, RunOutcome::Finished { executed: 16 }));
    assert_bits_eq(&straight.u_prev, &resumed.u_prev, "resumed u_prev");
    assert_bits_eq(&straight.u_now, &resumed.u_now, "resumed u_now");
    let _ = std::fs::remove_dir_all(&dir);
}

struct PanicAt {
    step: u64,
}

impl StepHook for PanicAt {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        assert!(ctx.state.step <= self.step, "hook survived its own panic");
        if ctx.state.step == self.step {
            panic!("user hook exploded at step {}", self.step);
        }
        Ok(())
    }
}

/// Satellite 3b: a panicking user hook cannot corrupt checkpoint retention.
/// Every file on disk after the unwind is a finalized, CRC-valid snapshot
/// (writes go through tmp + rename), and resuming from the newest one
/// reproduces an uninterrupted run bit-for-bit.
#[test]
fn panicking_hook_leaves_checkpoints_atomic_and_resumable() {
    let mesh = build_mesh();
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);
    let n_steps = 10u64;

    // Straight run: the ground truth.
    let (ref_up, ref_un) =
        SolverHarness::new(&solver).run_to_state(Some((&u0, &v0)), n_steps as usize);

    let dir = tmpdir("panic");
    let writer = CheckpointWriter::new(&dir, "panic").unwrap().with_retention(2);
    let policy = CheckpointPolicy::every_steps(2);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sink = PeriodicSink::new(&writer, &policy);
        let mut ckpt = CheckpointHook::new(&mut sink);
        let mut boom = PanicAt { step: 7 };
        let mut hooks: Vec<&mut dyn StepHook> = vec![&mut ckpt, &mut boom];
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let mut ws = solver.workspace();
        SolverHarness::new(&solver).run(
            &RunConfig::to_step(n_steps),
            &mut state,
            &mut ws,
            &mut NoExchange,
            &mut hooks,
        );
    }));
    assert!(panicked.is_err(), "the hook must actually panic");

    // No half-written `.tmp` leftovers; retention kept exactly the newest 2.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(names.iter().all(|n| n.ends_with(".qckpt")), "stray temp file: {names:?}");
    assert_eq!(CheckpointReader::new(&dir, "panic").steps(), vec![4, 6]);

    // The newest snapshot is CRC-valid and resumes to a bit-identical end.
    let reg = quake_telemetry::Registry::disabled();
    let (step, state): (u64, SolverState) =
        CheckpointReader::new(&dir, "panic").latest_valid(&reg).expect("valid checkpoint");
    assert_eq!(step, 6);
    let mut state = state;
    let mut ws = solver.workspace();
    let outcome = SolverHarness::new(&solver).run(
        &RunConfig::to_step(n_steps),
        &mut state,
        &mut ws,
        &mut NoExchange,
        &mut [],
    );
    assert!(matches!(outcome, RunOutcome::Finished { executed } if executed == 4));
    // `run_to_state` returns interleaved vectors; the raw state is planar.
    assert_bits_eq(&ref_up, &to_interleaved3(&state.u_prev), "resumed u_prev");
    assert_bits_eq(&ref_un, &to_interleaved3(&state.u_now), "resumed u_now");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 2: the harness's final-step semantics pinned against both
/// oracles. Against a longhand `step_with` loop the harness is **bit-exact**
/// (the collapse changed no arithmetic); against the frozen pre-optimization
/// `reference_step` the final displacement and the final-step velocity
/// `(u_now - u_prev) / dt` agree to the repo's 1e-12 relative bar
/// (`reference.rs` differs in floating-point summation order only).
#[test]
fn final_step_velocity_matches_the_frozen_reference() {
    let mesh = build_mesh();
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.05);
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);
    let n_steps = 12;
    let ndof = 3 * mesh.n_nodes();

    let (hup, hun) = SolverHarness::new(&solver).run_to_state(Some((&u0, &v0)), n_steps);

    // Oracle A: the pre-harness step loop written out longhand, on the
    // production fused step — must be bit-identical. The fused step runs on
    // the planar layout, so the longhand loop does too (the planar/interleaved
    // conversion is an exact permutation, so bit-level asserts still hold).
    let u0p = to_planar3(&u0);
    let v0p = to_planar3(&v0);
    let mut up = vec![0.0; ndof];
    let mut un = u0p.clone();
    for d in 0..ndof {
        up[d] = u0p[d] - solver.dt * v0p[d];
    }
    let mut up_r = vec![0.0; ndof];
    let mut un_r = u0.clone();
    for d in 0..ndof {
        up_r[d] = u0[d] - solver.dt * v0[d];
    }
    let mut next = vec![0.0; ndof];
    let mut next_r = vec![0.0; ndof];
    let f = vec![0.0; ndof];
    let mut ws = solver.workspace();
    for _ in 0..n_steps {
        solver.step_with(&up, &un, &f, &mut next, &mut ws);
        std::mem::swap(&mut up, &mut un);
        std::mem::swap(&mut un, &mut next);
        // Oracle B: the frozen pre-optimization reference step (interleaved).
        reference_step(&solver, &up_r, &un_r, &f, &mut next_r);
        std::mem::swap(&mut up_r, &mut un_r);
        std::mem::swap(&mut un_r, &mut next_r);
    }
    assert_bits_eq(&to_interleaved3(&up), &hup, "final u_prev vs longhand loop");
    assert_bits_eq(&to_interleaved3(&un), &hun, "final u_now vs longhand loop");

    let vel_h: Vec<f64> = hun.iter().zip(&hup).map(|(a, b)| (a - b) / solver.dt).collect();
    let vel_r: Vec<f64> = un_r.iter().zip(&up_r).map(|(a, b)| (a - b) / solver.dt).collect();
    let scale = vel_r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.0, "reference velocity field is identically zero");
    let worst = vel_h.iter().zip(&vel_r).fold(0.0f64, |m, (a, b)| m.max((a - b).abs() / scale));
    assert!(worst <= 1e-12, "final-step velocity vs reference: relative error {worst}");
}
