//! Step-kernel throughput benchmark: fused hot path vs the frozen reference,
//! plus the telemetry-derived per-phase breakdown.
//!
//! Times the explicit elastic step on a fixed multiresolution mesh with
//! Rayleigh damping and absorbing boundaries — the configuration where the
//! fused two-vector matvec matters — and reports steps/sec and
//! element-updates/sec for:
//!
//! - `baseline`: `quake_solver::reference::reference_step`, the frozen
//!   pre-optimization step (row-wise matvec, two passes per damped element,
//!   per-step allocations, interleaved nodal layout),
//! - `fused`: `ElasticSolver::step_with` with a plain (telemetry-disabled)
//!   workspace — the planar (structure-of-arrays) state, per-class stiffness
//!   templates and the blocked class-major sweep, zero steady-state
//!   allocations.
//! - `instrumented`: the same fused step with a live `quake-telemetry`
//!   registry, which must cost (nearly) nothing — pass
//!   `--check-overhead <pct>` (CI uses 3) to fail the run if the slowdown
//!   relative to `fused` exceeds that percentage. Reported overheads are
//!   best-of-trials per variant and clamped at zero: independently-noisy
//!   minima can make the instrumented run beat `fused` by luck, and a
//!   negative overhead is measurement noise, not a real speedup. The raw
//!   (unclamped) values are reported next to the clamped ones so dashboards
//!   can see the noise floor; the gate uses the clamped values.
//! - `traced`: the instrumented step with the flight recorder attached
//!   (65536-event ring); `--check-overhead` also gates its slowdown relative
//!   to `instrumented` (the trace-disabled twin). `--trace-out <path>`
//!   writes the final traced trial's ring as a Chrome `trace_event` JSON,
//!   loadable in Perfetto or chrome://tracing.
//!
//! - `many_class`: `step_with` on the LA-basin mesh of the benchmark's
//!   `basin_forward` workload — wavelength-adapted, 670 `(h, lambda, mu)`
//!   classes of 37 elements on average. The rows above step a
//!   2-class mesh whose runs fill every lane of every tile, which is how a
//!   kernel that wasted most of its flops on short runs went unnoticed; this
//!   row is the one a heterogeneous mesh sees. It records the schedule's
//!   lane fill (scheduled elements / matvec lanes computed) next to the
//!   rate.
//!
//! Pass `--check-throughput <eups>` to fail the run if the fused kernel's
//! element-updates/s falls below the floor on either mesh (`fused` or
//! `many_class`) — the CI regression gate.
//!
//! Pass `--check-mesh-ms <ms>` to fail the run if `mesh_from_model` takes
//! longer than that to build the `many_class` mesh (octree, 2-to-1 balance,
//! node numbering, hanging-node constraints) — the gate on solver set-up.
//!
//! Pass `--lts` to add the rate-group (clustered local-time-stepping) leg:
//! a coarse-dominant 3-level mesh is stepped once with the fused global-dt
//! kernel and once through `SolverHarness::run_grouped` (coarse elements
//! advance at power-of-two multiples of the base dt), and the JSON gains an
//! `"lts"` block with the per-level element histogram, the per-group step
//! factors, the ideal work ratio, and the measured speedup in
//! *global-equivalent* element-updates/s (`n_elements x base steps
//! advanced / wall` for both legs — same physical progress, different
//! work). The full run gates the speedup at 1.5x; `--smoke` only sanity
//! checks it.
//!
//! The instrumented run's span times, joined with `quake-machine`'s analytic
//! flop/byte counts, yield the per-phase table printed at the end (wall time,
//! share of the step, sustained rate, arithmetic intensity and roofline
//! efficiency against the paper's LeMieux-like `MachineModel::default()`).
//! The element phase's rate, intensity and roofline share are taken on the
//! flops the matvec *executed* (all computed lanes), with the useful count
//! (scheduled elements only) and the lane fill reported beside them; the
//! table is printed and written for both meshes.
//!
//! Outputs: the full run writes `BENCH_step_throughput.json` and
//! `BENCH_phase_breakdown.json` at the repo root; `--smoke` (CI) runs a tiny
//! mesh in milliseconds and prints both JSONs to stdout instead. Both modes
//! dump the instrumented registry's NDJSON trace to
//! `target/BENCH_step_trace.ndjson`.

use std::time::Instant;

use quake_bench::Args;
use quake_machine::{bytes, flops, MachineModel};
use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_mesh::{mesh_from_model, MeshingParams};
use quake_model::LaBasinModel;
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_solver::elastic::RayleighBand;
use quake_solver::reference::reference_step;
use quake_solver::{
    ElasticConfig, ElasticSolver, NoExchange, NoopHook, RateGroupPlan, RunConfig, RunOutcome,
    SolverHarness, StepWorkspace,
};
use quake_telemetry::Registry;

/// Multiresolution mesh: uniform `coarse` level with the x < 1/2 half refined
/// one level deeper, 2:1 balanced — hanging nodes cross the interface.
fn build_mesh(coarse: u8) -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    let fine = coarse + 1;
    let mut tree = LinearOctree::build(|o| o.level < coarse || (o.level < fine && o.x < half));
    tree.balance(BalanceMode::Full);
    HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

/// The LA-basin mesh of the benchmark's `basin_forward` workload. `--smoke`
/// steps the same mesh: a smaller one of the family has fewer, longer
/// classes (level 5: 110 classes), which is the regime this row exists to
/// leave.
fn build_basin_mesh() -> HexMesh {
    let extent = 20_000.0;
    let mut meshing = MeshingParams::new(extent, 0.3);
    meshing.min_level = 2;
    meshing.max_level = 6;
    mesh_from_model(&meshing, &LaBasinModel::scaled(400.0, extent)).1
}

/// Gaussian shear pulse at the centre of a cubic domain of side `extent`,
/// one eighth of it wide.
fn shear_pulse(mesh: &HexMesh, extent: f64) -> Vec<f64> {
    let (mid, width) = (extent / 2.0, extent / 8.0);
    let mut u = vec![0.0; 3 * mesh.n_nodes()];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - mid).powi(2) + (c[1] - mid).powi(2) + (c[2] - mid).powi(2);
        u[3 * i + 1] = (-r2 / (2.0 * width * width)).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    u
}

/// Best-of-`trials` throughput of `n_steps` leapfrog steps of `step`;
/// `before_trial` runs outside the timed region (e.g. a registry reset).
fn time_stepper(
    mesh: &HexMesh,
    u0: &[f64],
    n_steps: usize,
    trials: usize,
    mut before_trial: impl FnMut(),
    mut step: impl FnMut(&[f64], &[f64], &[f64], &mut [f64]),
) -> (f64, f64) {
    let ndof = 3 * mesh.n_nodes();
    let f = vec![0.0; ndof];
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let mut up = u0.to_vec();
        let mut un = u0.to_vec();
        let mut next = vec![0.0; ndof];
        before_trial();
        let t = Instant::now();
        for _ in 0..n_steps {
            step(&up, &un, &f, &mut next);
            std::mem::swap(&mut up, &mut un);
            std::mem::swap(&mut un, &mut next);
        }
        best = best.min(t.elapsed().as_secs_f64());
        assert!(un.iter().all(|v| v.is_finite()), "stepper diverged");
    }
    let steps_per_sec = n_steps as f64 / best;
    (steps_per_sec, steps_per_sec * mesh.n_elements() as f64)
}

/// [`time_stepper`] of `solver.step_with` on `ws`, whose registry is reset
/// before each trial so the final trial's span statistics are exactly one
/// `n_steps`-step run.
fn time_step_with(
    solver: &ElasticSolver<'_>,
    u0p: &[f64],
    n_steps: usize,
    trials: usize,
    ws: &mut StepWorkspace,
) -> (f64, f64) {
    let ws = std::cell::RefCell::new(ws);
    time_stepper(
        solver.mesh,
        u0p,
        n_steps,
        trials,
        || ws.borrow().reg.reset(),
        |up, un, f, next| solver.step_with(up, un, f, next, &mut ws.borrow_mut()),
    )
}

struct PhaseRow {
    name: &'static str,
    secs: f64,
    share: f64,
    /// Useful flops: the analytic count over scheduled elements.
    flops: u64,
    /// Flops executed: `flops` plus the matvec lanes no element fills (the
    /// element phase only). Rate, intensity and roofline use this.
    flops_executed: u64,
    bytes: u64,
    intensity: f64,
    flops_per_sec: f64,
    roofline_efficiency: f64,
}

/// One mesh's per-phase breakdown, read from the registry of an instrumented
/// `step_with` run.
struct Breakdown {
    mesh_elements: usize,
    mesh_nodes: usize,
    classes: usize,
    lane_fill: f64,
    n_steps: u64,
    step_secs: f64,
    rows: Vec<PhaseRow>,
}

impl Breakdown {
    fn of(solver: &ElasticSolver<'_>, reg: &Registry) -> Breakdown {
        let step = reg.span_stats("step").expect("step span");
        let (n_steps, step_secs) = (step.count, step.total_secs());
        solver.record_step_costs(&solver.phase_shape(solver.full_scope()), n_steps, reg);
        let machine = MachineModel::default();
        let elements = solver.mesh.n_elements() as u64 * n_steps;
        let idle_lanes = reg.counter("step/elements/lanes").unwrap() - elements;
        let mut rows: Vec<PhaseRow> = Vec::new();
        for name in ["fill", "elements", "abc", "fold", "exchange", "tail", "interp"] {
            let s = reg
                .span_stats(&format!("step/{name}"))
                .unwrap_or_else(|| panic!("missing span step/{name}"));
            assert_eq!(s.count, n_steps, "phase {name} must run once per step");
            let flops = reg.counter(&format!("step/{name}/flops")).unwrap();
            let flops_executed = flops
                + if name == "elements" { idle_lanes * flops::TEMPLATE_HEX_MATVEC } else { 0 };
            let bytes_moved = reg.counter(&format!("step/{name}/bytes")).unwrap();
            let secs = s.total_secs();
            let intensity = if bytes_moved == 0 {
                0.0
            } else {
                bytes::arithmetic_intensity(flops_executed, bytes_moved)
            };
            let flops_per_sec = if secs > 0.0 { flops_executed as f64 / secs } else { 0.0 };
            let roofline_efficiency = if flops == 0 {
                0.0
            } else {
                machine.roofline_efficiency(flops_per_sec, intensity)
            };
            rows.push(PhaseRow {
                name,
                secs,
                share: secs / step_secs,
                flops,
                flops_executed,
                bytes: bytes_moved,
                intensity,
                flops_per_sec,
                roofline_efficiency,
            });
        }
        let schedule = &solver.full_scope().schedule;
        Breakdown {
            mesh_elements: solver.mesh.n_elements(),
            mesh_nodes: solver.mesh.n_nodes(),
            classes: schedule.n_classes(),
            lane_fill: schedule.lane_fill(),
            n_steps,
            step_secs,
            rows,
        }
    }

    fn phase_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.secs).sum()
    }

    fn print(&self, title: &str) {
        println!(
            "\nper-phase breakdown, {title} ({} steps, {} classes, lane fill {:.3}; roofline \
             vs the paper's LeMieux-like default machine, on executed flops):",
            self.n_steps, self.classes, self.lane_fill
        );
        println!(
            "{:<10} {:>9} {:>7} {:>10} {:>10} {:>9} {:>8}",
            "phase", "ms", "share", "Gflop/s", "flop/byte", "roofline", "useful"
        );
        for r in &self.rows {
            println!(
                "{:<10} {:>9.3} {:>6.1}% {:>10.3} {:>10.3} {:>8.1}% {:>7.1}%",
                r.name,
                r.secs * 1e3,
                r.share * 100.0,
                r.flops_per_sec / 1e9,
                r.intensity,
                r.roofline_efficiency * 100.0,
                if r.flops_executed == 0 {
                    100.0
                } else {
                    r.flops as f64 / r.flops_executed as f64 * 100.0
                }
            );
        }
        println!(
            "{:<10} {:>9.3} {:>6.1}%   (step total {:.3} ms)",
            "sum",
            self.phase_sum() * 1e3,
            self.phase_sum() / self.step_secs * 100.0,
            self.step_secs * 1e3
        );
        assert!(
            self.phase_sum() >= 0.95 * self.step_secs,
            "phase spans cover only {:.1}% of the step span — untracked time in the hot path",
            self.phase_sum() / self.step_secs * 100.0
        );
    }

    /// The breakdown's JSON fields (no enclosing braces), each line
    /// indented by `pad`.
    fn json_fields(&self, pad: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{pad}\"mesh_elements\": {},\n", self.mesh_elements));
        out.push_str(&format!("{pad}\"mesh_nodes\": {},\n", self.mesh_nodes));
        out.push_str(&format!("{pad}\"classes\": {},\n", self.classes));
        out.push_str(&format!("{pad}\"lane_fill\": {:.4},\n", self.lane_fill));
        out.push_str(&format!("{pad}\"n_steps\": {},\n", self.n_steps));
        out.push_str(&format!("{pad}\"step_total_secs\": {:.6},\n", self.step_secs));
        out.push_str(&format!("{pad}\"phase_sum_secs\": {:.6},\n", self.phase_sum()));
        out.push_str(&format!("{pad}\"phases\": [\n"));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "{pad}  {{ \"name\": \"{}\", \"secs\": {:.6}, \"share\": {:.4}, \"flops\": {}, \
                 \"flops_executed\": {}, \"bytes\": {}, \"intensity\": {:.4}, \
                 \"flops_per_sec\": {:.1}, \"roofline_efficiency\": {:.4} }}{}\n",
                r.name,
                r.secs,
                r.share,
                r.flops,
                r.flops_executed,
                r.bytes,
                r.intensity,
                r.flops_per_sec,
                r.roofline_efficiency,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{pad}]"));
        out
    }
}

fn main() {
    let args = Args::parse(
        &["--smoke", "--lts"],
        &["--check-overhead", "--check-throughput", "--check-mesh-ms", "--trace-out"],
    );
    let (smoke, lts) = (args.flag("--smoke"), args.flag("--lts"));
    let check_overhead: Option<f64> = args.value("--check-overhead");
    let check_throughput: Option<f64> = args.value("--check-throughput");
    let check_mesh_ms: Option<f64> = args.value("--check-mesh-ms");
    let trace_out: Option<String> = args.value("--trace-out");
    // The smoke mesh must be big enough that a step dwarfs the fixed span
    // cost, or the overhead check would measure timer noise instead.
    let (coarse, base_steps, trials) = if smoke { (3, 4, 1) } else { (4, 20, 3) };
    // The fused/instrumented comparison needs more samples than the slow
    // baseline to resolve a few-percent overhead above timer noise.
    let (ov_steps, ov_trials) = if smoke { (30, 5) } else { (base_steps, trials) };

    let mesh = build_mesh(coarse);
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(if smoke { 0.05 } else { 0.01 });
    cfg.abc = [true, true, true, true, false, true];
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
    let solver = ElasticSolver::new(&mesh, &cfg);
    let u0 = shear_pulse(&mesh, 8.0);
    println!(
        "mesh: {} elements / {} nodes ({} hanging), dt = {}, {} steps x {} trials",
        mesh.n_elements(),
        mesh.n_nodes(),
        mesh.n_hanging(),
        solver.dt,
        base_steps,
        trials
    );

    let (base_sps, base_eups) = time_stepper(
        &mesh,
        &u0,
        base_steps,
        trials,
        || {},
        |up, un, f, next| {
            reference_step(&solver, up, un, f, next);
        },
    );
    println!("baseline     : {base_sps:>8.2} steps/s  {base_eups:>12.3e} element-updates/s");

    // The fused step runs on the planar layout; the conversion is an exact
    // permutation, outside the timed region.
    let u0p = quake_solver::layout::to_planar3(&u0);
    let (fused_sps, fused_eups) =
        time_step_with(&solver, &u0p, ov_steps, ov_trials, &mut solver.workspace());
    println!("fused        : {fused_sps:>8.2} steps/s  {fused_eups:>12.3e} element-updates/s");

    // Same hot path with a live registry.
    let mut iws = solver.workspace_instrumented(0);
    let (instr_sps, instr_eups) = time_step_with(&solver, &u0p, ov_steps, ov_trials, &mut iws);
    // Clamp at zero for the gate: best-of-trials minima are independently
    // noisy, so the instrumented run can beat `fused` by luck; a negative
    // overhead is noise, not a speedup. The raw (unclamped) value is
    // reported alongside so trend dashboards see the noise floor.
    let overhead_raw_pct = (fused_sps / instr_sps - 1.0) * 100.0;
    let overhead_pct = overhead_raw_pct.max(0.0);
    println!(
        "instrumented : {instr_sps:>8.2} steps/s  {instr_eups:>12.3e} element-updates/s  \
         (telemetry overhead {overhead_pct:+.2}%, raw {overhead_raw_pct:+.2}%)"
    );

    // Same instrumented hot path with the flight recorder attached: the ring
    // push per span exit must stay inside the same overhead budget as the
    // aggregate telemetry itself (gated vs `instrumented`, the
    // trace-disabled twin).
    let treg = quake_telemetry::Registry::new(0);
    treg.enable_trace(65536);
    let mut tws = solver.workspace_with(treg);
    let (traced_sps, _) = time_step_with(&solver, &u0p, ov_steps, ov_trials, &mut tws);
    let trace_overhead_raw_pct = (instr_sps / traced_sps - 1.0) * 100.0;
    let trace_overhead_pct = trace_overhead_raw_pct.max(0.0);
    println!(
        "traced       : {traced_sps:>8.2} steps/s  (flight-recorder overhead \
         {trace_overhead_pct:+.2}%, raw {trace_overhead_raw_pct:+.2}%)"
    );

    // The canonical harness loop with a single no-op hook and no exchange —
    // the hook dispatch must cost (nearly) nothing over the raw fused loop.
    let harness = SolverHarness::new(&solver);
    let v0 = vec![0.0; 3 * mesh.n_nodes()];
    let mut hws = solver.workspace();
    let mut harness_best = f64::INFINITY;
    for _ in 0..ov_trials {
        let mut state = solver.initial_state(0, Some((&u0, &v0)));
        let run_cfg = RunConfig::to_step(ov_steps as u64);
        let mut noop = NoopHook;
        let t = Instant::now();
        let outcome =
            harness.run(&run_cfg, &mut state, &mut hws, &mut NoExchange, &mut [&mut noop]);
        harness_best = harness_best.min(t.elapsed().as_secs_f64());
        assert!(matches!(outcome, RunOutcome::Finished { .. }), "harness run stopped early");
        assert!(state.u_now.iter().all(|v| v.is_finite()), "harness stepper diverged");
    }
    let harness_sps = ov_steps as f64 / harness_best;
    let harness_eups = harness_sps * mesh.n_elements() as f64;
    let harness_overhead_raw_pct = (fused_sps / harness_sps - 1.0) * 100.0;
    let harness_overhead_pct = harness_overhead_raw_pct.max(0.0);
    println!(
        "harness      : {harness_sps:>8.2} steps/s  {harness_eups:>12.3e} element-updates/s  \
         (no-op-hook overhead {harness_overhead_pct:+.2}%, raw {harness_overhead_raw_pct:+.2}%)"
    );

    // The same kernel on a many-class mesh: short class runs, so the rate
    // depends on how many of the computed matvec lanes hold an element.
    let t_mesh = Instant::now();
    let bmesh = build_basin_mesh();
    let mesh_ms = t_mesh.elapsed().as_secs_f64() * 1e3;
    println!(
        "mesh_build   : {mesh_ms:>8.1} ms  (mesh_from_model, {} elements)",
        bmesh.n_elements()
    );
    let bsolver = ElasticSolver::new(&bmesh, &ElasticConfig::new(1.0));
    let bu0p = quake_solver::layout::to_planar3(&shear_pulse(&bmesh, 20_000.0));
    let mut bws = bsolver.workspace_instrumented(0);
    // Instrumented like the breakdown's other mesh; the telemetry cost is
    // the `instrumented` row's, far inside the row's run-to-run spread.
    let (many_sps, many_eups) = time_step_with(&bsolver, &bu0p, ov_steps, ov_trials, &mut bws);
    let many = Breakdown::of(&bsolver, &bws.into_registry());
    println!(
        "many_class   : {many_sps:>8.2} steps/s  {many_eups:>12.3e} element-updates/s  \
         ({} elements, {} classes, lane fill {:.3})",
        many.mesh_elements, many.classes, many.lane_fill
    );

    let speedup = fused_eups / base_eups;
    println!("speedup      : {speedup:.2}x element-updates/s (fused vs baseline)");

    // ---- optional LTS leg: rate-group stepping vs the fused global-dt
    // kernel on a coarse-dominant 3-level mesh (refinement confined to one
    // corner column, so most elements can step at 2x/4x the base dt) ----
    let mut lts_json: Option<String> = None;
    let mut lts_speedup: Option<f64> = None;
    if lts {
        let (lts_coarse, lts_want_steps, lts_trials) =
            if smoke { (3u8, 8u64, 2usize) } else { (4, 24, 3) };
        let quarter = 1u32 << (MAX_LEVEL - 2);
        let eighth = 1u32 << (MAX_LEVEL - 3);
        let (mid, fine) = (lts_coarse + 1, lts_coarse + 2);
        let mut tree = LinearOctree::build(|o| {
            o.level < lts_coarse
                || (o.level < mid && o.x < quarter && o.y < quarter)
                || (o.level < fine && o.x < eighth && o.y < eighth && o.z < eighth)
        });
        tree.balance(BalanceMode::Full);
        let lmesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        let mut lcfg = ElasticConfig::new(1.0);
        lcfg.abc = [true, true, true, true, false, true];
        lcfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        let lsolver = ElasticSolver::new(&lmesh, &lcfg);
        let plan = RateGroupPlan::build(&lsolver, 8);
        let m = plan.cycle();
        let n_base = lts_want_steps.div_ceil(m) * m;
        let mut level_hist: Vec<(u8, usize)> = Vec::new();
        for e in &lmesh.elements {
            match level_hist.iter_mut().find(|(l, _)| *l == e.level) {
                Some((_, c)) => *c += 1,
                None => level_hist.push((e.level, 1)),
            }
        }
        level_hist.sort_unstable();
        let updates_per_cycle = plan.element_updates_per_cycle();
        let ideal_ratio = (lmesh.n_elements() as u64 * m) as f64 / updates_per_cycle as f64;
        println!(
            "\nlts mesh: {} elements / {} nodes, levels {:?}, group factors {:?} \
             (cycle {m}, ideal work ratio {ideal_ratio:.2}x)",
            lmesh.n_elements(),
            lmesh.n_nodes(),
            level_hist,
            plan.factors()
        );

        let lu0 = shear_pulse(&lmesh, 8.0);
        let lu0p = quake_solver::layout::to_planar3(&lu0);
        let mut lws = lsolver.workspace();
        let (lfused_sps, lfused_eups) =
            time_step_with(&lsolver, &lu0p, n_base as usize, lts_trials, &mut lws);
        println!(
            "lts/fused    : {lfused_sps:>8.2} steps/s  {lfused_eups:>12.3e} element-updates/s"
        );

        let lharness = SolverHarness::new(&lsolver);
        let lv0 = vec![0.0; 3 * lmesh.n_nodes()];
        let mut lts_best = f64::INFINITY;
        for _ in 0..lts_trials {
            let mut state = plan.initial_state(&lsolver, 0, Some((&lu0, &lv0)));
            let run_cfg = RunConfig::to_step(n_base);
            let mut noop = NoopHook;
            let t = Instant::now();
            let outcome = lharness.run_grouped(
                &plan,
                &run_cfg,
                &mut state,
                &mut lws,
                &mut NoExchange,
                &mut [&mut noop],
            );
            lts_best = lts_best.min(t.elapsed().as_secs_f64());
            assert!(matches!(outcome, RunOutcome::Finished { .. }), "lts run stopped early");
            assert!(state.u_now.iter().all(|v| v.is_finite()), "lts stepper diverged");
        }
        // Global-equivalent throughput: both legs advanced n_base base
        // steps of the same mesh, so elements x base steps / wall compares
        // identical physical progress.
        let lts_base_sps = n_base as f64 / lts_best;
        let lts_eups = lts_base_sps * lmesh.n_elements() as f64;
        let sp = lts_eups / lfused_eups;
        lts_speedup = Some(sp);
        println!(
            "lts/grouped  : {lts_base_sps:>8.2} base-steps/s  {lts_eups:>12.3e} \
             equivalent element-updates/s"
        );
        println!("lts speedup  : {sp:.2}x element-updates/s (rate groups vs fused global dt)");

        let mut l = String::new();
        l.push_str("  \"lts\": {\n");
        l.push_str(&format!(
            "    \"mesh_elements\": {},\n    \"mesh_nodes\": {},\n",
            lmesh.n_elements(),
            lmesh.n_nodes()
        ));
        let levels: Vec<String> =
            level_hist.iter().map(|(lv, c)| format!("\"{lv}\": {c}")).collect();
        l.push_str(&format!("    \"level_elements\": {{ {} }},\n", levels.join(", ")));
        let ge: Vec<String> = plan.group_histogram().iter().map(|c| c.to_string()).collect();
        l.push_str(&format!("    \"group_elements\": [{}],\n", ge.join(", ")));
        let fs: Vec<String> = plan.factors().iter().map(|f| f.to_string()).collect();
        l.push_str(&format!("    \"factors\": [{}],\n    \"cycle\": {m},\n", fs.join(", ")));
        l.push_str(&format!(
            "    \"element_updates_per_cycle\": {updates_per_cycle},\n    \
             \"ideal_work_ratio\": {ideal_ratio:.3},\n    \"n_steps\": {n_base},\n"
        ));
        l.push_str(&format!(
            "    \"fused\": {{ \"steps_per_sec\": {lfused_sps:.3}, \
             \"element_updates_per_sec\": {lfused_eups:.1} }},\n"
        ));
        l.push_str(&format!(
            "    \"grouped\": {{ \"base_steps_per_sec\": {lts_base_sps:.3}, \
             \"equivalent_element_updates_per_sec\": {lts_eups:.1} }},\n"
        ));
        l.push_str(&format!("    \"speedup_lts_vs_fused\": {sp:.3}\n  }}"));
        lts_json = Some(l);
    }

    // ---- per-phase breakdown from the instrumented registries ----

    let reg = iws.into_registry();
    let main = Breakdown::of(&solver, &reg);
    main.print("2-class mesh");
    many.print("many-class mesh");

    let mut breakdown = String::new();
    breakdown.push_str("{\n");
    breakdown.push_str(&format!("  \"telemetry_overhead_pct\": {overhead_pct:.3},\n"));
    breakdown.push_str(&main.json_fields("  "));
    breakdown.push_str(",\n  \"many_class\": {\n");
    breakdown.push_str(&many.json_fields("    "));
    breakdown.push_str("\n  }\n}\n");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"mesh_elements\": {},\n", mesh.n_elements()));
    json.push_str(&format!("  \"mesh_nodes\": {},\n", mesh.n_nodes()));
    json.push_str(&format!("  \"hanging_nodes\": {},\n", mesh.n_hanging()));
    json.push_str(&format!("  \"n_steps\": {base_steps},\n  \"trials\": {trials},\n"));
    json.push_str(&format!(
        "  \"baseline\": {{ \"steps_per_sec\": {base_sps:.3}, \"element_updates_per_sec\": {base_eups:.1} }},\n"
    ));
    json.push_str(&format!(
        "  \"fused\": {{ \"steps_per_sec\": {fused_sps:.3}, \"element_updates_per_sec\": {fused_eups:.1} }},\n"
    ));
    json.push_str(&format!(
        "  \"instrumented\": {{ \"steps_per_sec\": {instr_sps:.3}, \"telemetry_overhead_pct\": {overhead_pct:.3}, \"telemetry_overhead_raw_pct\": {overhead_raw_pct:.3} }},\n"
    ));
    json.push_str(&format!(
        "  \"traced\": {{ \"steps_per_sec\": {traced_sps:.3}, \"trace_overhead_pct\": {trace_overhead_pct:.3}, \"trace_overhead_raw_pct\": {trace_overhead_raw_pct:.3} }},\n"
    ));
    json.push_str(&format!(
        "  \"harness\": {{ \"steps_per_sec\": {harness_sps:.3}, \"noop_hook_overhead_pct\": {harness_overhead_pct:.3}, \"noop_hook_overhead_raw_pct\": {harness_overhead_raw_pct:.3} }},\n"
    ));
    json.push_str(&format!(
        "  \"lane_fill\": {:.4},\n  \"many_class\": {{ \"mesh_elements\": {}, \"mesh_nodes\": {}, \"classes\": {}, \"lane_fill\": {:.4}, \"steps_per_sec\": {many_sps:.3}, \"element_updates_per_sec\": {many_eups:.1} }},\n",
        main.lane_fill, many.mesh_elements, many.mesh_nodes, many.classes, many.lane_fill
    ));
    json.push_str(&format!("  \"speedup_fused_vs_baseline\": {speedup:.3}"));
    if let Some(l) = &lts_json {
        json.push_str(",\n");
        json.push_str(l);
    }
    json.push_str("\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let trace_path = format!("{root}/target/BENCH_step_trace.ndjson");
    let _ = std::fs::create_dir_all(format!("{root}/target"));
    std::fs::write(&trace_path, reg.ndjson()).expect("write NDJSON trace");
    println!("\nwrote {trace_path}");
    if let Some(path) = &trace_out {
        // The traced leg's final trial, as a Chrome trace_event JSON —
        // loadable in Perfetto / chrome://tracing.
        let buf = tws.reg.trace_buffer();
        std::fs::write(path, quake_telemetry::json::chrome_trace(&[buf]))
            .expect("write Chrome trace");
        println!("wrote {path}");
    }
    if smoke {
        println!("\n{json}");
        println!("{breakdown}");
        println!("smoke mode: committed JSONs not written");
    } else {
        let tp = format!("{root}/BENCH_step_throughput.json");
        let bp = format!("{root}/BENCH_phase_breakdown.json");
        std::fs::write(&tp, &json).expect("write BENCH_step_throughput.json");
        std::fs::write(&bp, &breakdown).expect("write BENCH_phase_breakdown.json");
        println!("wrote {tp}\nwrote {bp}");
    }

    if let Some(limit) = check_overhead {
        assert!(
            overhead_pct <= limit,
            "telemetry overhead {overhead_pct:.2}% exceeds the {limit}% budget"
        );
        assert!(
            harness_overhead_pct <= limit,
            "harness no-op-hook overhead {harness_overhead_pct:.2}% exceeds the {limit}% budget"
        );
        assert!(
            trace_overhead_pct <= limit,
            "flight-recorder overhead {trace_overhead_pct:.2}% exceeds the {limit}% budget"
        );
    }
    assert!(
        speedup >= if smoke { 0.5 } else { 1.3 },
        "fused step regressed below the 1.3x acceptance bar: {speedup:.2}x"
    );
    if let Some(sp) = lts_speedup {
        // Smoke runs a tiny mesh where fixed per-pass costs dominate; the
        // real acceptance bar applies to the full mesh only.
        let floor = if smoke { 0.6 } else { 1.5 };
        assert!(
            sp >= floor,
            "LTS speedup {sp:.2}x is below the {floor}x acceptance bar \
             (rate groups vs fused global dt)"
        );
    }
    if let Some(limit) = check_mesh_ms {
        assert!(
            mesh_ms <= limit,
            "mesh_from_model took {mesh_ms:.1} ms on the basin mesh, over the {limit} ms budget"
        );
    }
    if let Some(floor) = check_throughput {
        for (row, eups) in [("fused", fused_eups), ("many_class", many_eups)] {
            assert!(
                eups >= floor,
                "{row} kernel throughput {eups:.3e} element-updates/s is below the \
                 {floor:.3e} regression floor"
            );
        }
    }
}
