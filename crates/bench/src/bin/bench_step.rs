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
//!   relative to `fused` exceeds that percentage.
//! - `traced`: the instrumented step with the flight recorder attached
//!   (65536-event ring); `--check-overhead` also gates its slowdown relative
//!   to `instrumented` (the trace-disabled twin). `--trace-out <path>`
//!   writes the traced variant's ring as a Chrome `trace_event` JSON,
//!   loadable in Perfetto or chrome://tracing.
//! - `harness`: the one `SolverHarness` loop with a no-op hook and no
//!   exchange; `--check-overhead` gates its slowdown relative to `fused`.
//!
//! These five are timed in paired rounds (`quake_bench::time_rounds`): each
//! round runs every variant once from the same initial state, the order
//! rotated by one per round. Every ratio — the three overheads and `fused`
//! vs `baseline` — is the median of the per-round ratios, reported with its
//! quartiles, so host drift between variants cancels instead of reading as
//! overhead. Gated overheads are that median clamped at zero (a negative
//! overhead is noise, not a speedup); the raw median and quartiles are
//! written beside it. Throughput rows are per-round medians.
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
//! work), paired in rounds like the rows above. The full run gates the
//! median speedup at 1.5x; `--smoke` only sanity checks it.
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
//! `BENCH_phase_breakdown.json` at the repo root, each with the host and git
//! revision it ran at; `--smoke` (CI) runs a small mesh in seconds and
//! prints both JSONs to stdout instead. Both modes dump the instrumented
//! registry's NDJSON trace to `target/BENCH_step_trace.ndjson`. The
//! registries are never reset, so the breakdown and both traces cover every
//! round.

use std::time::Instant;

use quake_bench::{
    half_refined_mesh, octree_mesh, provenance, shear_pulse, time_rounds, write_report, Args,
    Spread, REPO_ROOT,
};
use quake_machine::{bytes, flops, MachineModel};
use quake_mesh::hexmesh::HexMesh;
use quake_mesh::{mesh_from_model, MeshingParams};
use quake_model::LaBasinModel;
use quake_octree::MAX_LEVEL;
use quake_solver::elastic::RayleighBand;
use quake_solver::reference::reference_step;
use quake_solver::{
    ElasticConfig, ElasticSolver, NoExchange, NoopHook, RateGroupPlan, RunConfig, RunOutcome,
    SolverHarness, StepWorkspace,
};
use quake_telemetry::json::Json;
use quake_telemetry::Registry;

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

/// A timed variant: `n_steps` leapfrog steps of `step` with no force,
/// restarted from `u0` on every call.
fn stepper<'a>(
    u0: &'a [f64],
    n_steps: usize,
    mut step: impl FnMut(&[f64], &[f64], &[f64], &mut [f64]) + 'a,
) -> impl FnMut() + 'a {
    let f = vec![0.0; u0.len()];
    let (mut up, mut un, mut next) = (u0.to_vec(), u0.to_vec(), vec![0.0; u0.len()]);
    move || {
        up.copy_from_slice(u0);
        un.copy_from_slice(u0);
        for _ in 0..n_steps {
            step(&up, &un, &f, &mut next);
            std::mem::swap(&mut up, &mut un);
            std::mem::swap(&mut un, &mut next);
        }
        assert!(un.iter().all(|v| v.is_finite()), "stepper diverged");
    }
}

/// [`stepper`] of `solver.step_with` on `ws` from the planar `u0p`.
fn step_with<'a>(
    solver: &'a ElasticSolver<'a>,
    u0p: &'a [f64],
    n_steps: usize,
    ws: &'a mut StepWorkspace,
) -> impl FnMut() + 'a {
    stepper(u0p, n_steps, move |up, un, f, next| solver.step_with(up, un, f, next, ws))
}

/// A row's steps/s and element-updates/s (per-round medians) with the
/// steps/s quartiles.
fn rate_fields(sps: Spread, n_elements: usize) -> [(&'static str, Json); 3] {
    [
        ("steps_per_sec", sps.median.into()),
        ("steps_per_sec_quartiles", sps.quartiles()),
        ("element_updates_per_sec", (sps.median * n_elements as f64).into()),
    ]
}

/// The row of a variant gated on overhead `<stem>_pct`: steps/s, the
/// per-round median overhead clamped at zero, the raw median and its
/// quartiles.
fn overhead_row(sps: Spread, stem: &str, pct: Spread) -> Json {
    Json::obj([
        ("steps_per_sec".to_string(), sps.median.into()),
        (format!("{stem}_pct"), pct.median.max(0.0).into()),
        (format!("{stem}_raw_pct"), pct.median.into()),
        (format!("{stem}_quartiles_pct"), pct.quartiles()),
    ])
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

    /// The mesh's JSON fields, which both reports carry.
    fn mesh_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("mesh_elements", self.mesh_elements.into()),
            ("mesh_nodes", self.mesh_nodes.into()),
            ("classes", self.classes.into()),
            ("lane_fill", self.lane_fill.into()),
        ]
    }

    /// The breakdown's JSON fields.
    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let phases = self.rows.iter().map(|r| {
            Json::obj([
                ("name", r.name.into()),
                ("secs", r.secs.into()),
                ("share", r.share.into()),
                ("flops", r.flops.into()),
                ("flops_executed", r.flops_executed.into()),
                ("bytes", r.bytes.into()),
                ("intensity", r.intensity.into()),
                ("flops_per_sec", r.flops_per_sec.into()),
                ("roofline_efficiency", r.roofline_efficiency.into()),
            ])
        });
        let mut fields = self.mesh_fields();
        fields.extend([
            ("n_steps", self.n_steps.into()),
            ("step_total_secs", self.step_secs.into()),
            ("phase_sum_secs", self.phase_sum().into()),
            ("phases", Json::arr(phases)),
        ]);
        fields
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
    // cost, or the overhead check would measure timer noise instead. Rounds
    // are a multiple of both paired comparisons' variant counts (5 and 2),
    // so every variant runs at every position equally often.
    let (coarse, n_steps) = if smoke { (3, 30) } else { (4, 20) };
    let rounds = 40;
    // The many-class row is a throughput floor, not a ratio: a few rounds.
    let many_rounds = 5;

    let mesh = half_refined_mesh(coarse);
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(if smoke { 0.05 } else { 0.01 });
    cfg.abc = [true, true, true, true, false, true];
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
    let solver = ElasticSolver::new(&mesh, &cfg);
    let u0 = shear_pulse(&mesh, 8.0);
    let ne = mesh.n_elements();
    println!(
        "mesh: {ne} elements / {} nodes ({} hanging), dt = {}, {n_steps} steps x {rounds} rounds",
        mesh.n_nodes(),
        mesh.n_hanging(),
        solver.dt,
    );

    // Columns of the per-round times, in the order the variants are passed.
    const BASELINE: usize = 0;
    const FUSED: usize = 1;
    const INSTRUMENTED: usize = 2;
    const TRACED: usize = 3;
    const HARNESS: usize = 4;
    // The fused step runs on the planar layout; the conversion is an exact
    // permutation, outside the timed region.
    let u0p = quake_solver::layout::to_planar3(&u0);
    // The instrumented and traced workspaces outlive the timed variants: the
    // breakdown and both traces are read from their registries afterwards.
    let mut iws = solver.workspace_instrumented(0);
    let treg = Registry::new(0);
    treg.enable_trace(65536);
    let mut tws = solver.workspace_with(treg);
    let t = {
        let mut baseline = stepper(&u0, n_steps, |up, un, f, next| {
            reference_step(&solver, up, un, f, next);
        });
        let mut fws = solver.workspace();
        let mut fused = step_with(&solver, &u0p, n_steps, &mut fws);
        // Same hot path with a live registry.
        let mut instrumented = step_with(&solver, &u0p, n_steps, &mut iws);
        // The instrumented step with the flight recorder attached: the ring
        // push per span exit must stay inside the same budget (gated vs
        // `instrumented`, the trace-disabled twin).
        let mut traced = step_with(&solver, &u0p, n_steps, &mut tws);
        // The canonical harness loop with a single no-op hook and no
        // exchange: the hook dispatch must cost (nearly) nothing over the
        // raw fused loop.
        let harness = SolverHarness::new(&solver);
        let v0 = vec![0.0; u0.len()];
        let mut hws = solver.workspace();
        let mut harness_run = || {
            let mut state = solver.initial_state(0, Some((&u0, &v0)));
            let run_cfg = RunConfig::to_step(n_steps as u64);
            let outcome =
                harness.run(&run_cfg, &mut state, &mut hws, &mut NoExchange, &mut [&mut NoopHook]);
            assert!(matches!(outcome, RunOutcome::Finished { .. }), "harness run stopped early");
            assert!(state.u_now.iter().all(|v| v.is_finite()), "harness stepper diverged");
        };
        time_rounds(
            rounds,
            &mut [&mut baseline, &mut fused, &mut instrumented, &mut traced, &mut harness_run],
        )
    };
    let sps = |v: usize| Spread::of(t.iter().map(|r| n_steps as f64 / r[v]));
    let overhead = |v: usize, of: usize| Spread::of(t.iter().map(|r| (r[v] / r[of] - 1.0) * 100.0));
    let speedup = Spread::of(t.iter().map(|r| r[BASELINE] / r[FUSED]));
    let telemetry_ov = overhead(INSTRUMENTED, FUSED);
    let trace_ov = overhead(TRACED, INSTRUMENTED);
    let harness_ov = overhead(HARNESS, FUSED);
    let fused_eups = sps(FUSED).median * ne as f64;
    for (name, v) in [("baseline", BASELINE), ("fused", FUSED)] {
        let r = sps(v).median;
        println!("{name:<13}: {r:>8.2} steps/s  {:>12.3e} element-updates/s", r * ne as f64);
    }
    for (name, v, what, ov) in [
        ("instrumented", INSTRUMENTED, "telemetry", telemetry_ov),
        ("traced", TRACED, "flight-recorder", trace_ov),
        ("harness", HARNESS, "no-op-hook", harness_ov),
    ] {
        println!(
            "{name:<13}: {:>8.2} steps/s  ({what} overhead {:+.2}%, raw {:+.2}% [{:+.2}, {:+.2}])",
            sps(v).median,
            ov.median.max(0.0),
            ov.median,
            ov.q1,
            ov.q3
        );
    }

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
    // Instrumented like the breakdown's other mesh; the telemetry cost is
    // the `instrumented` row's, far inside the row's run-to-run spread.
    let mut bws = bsolver.workspace_instrumented(0);
    let tb = time_rounds(many_rounds, &mut [&mut step_with(&bsolver, &bu0p, n_steps, &mut bws)]);
    let many_sps = Spread::of(tb.iter().map(|r| n_steps as f64 / r[0]));
    let many_eups = many_sps.median * bmesh.n_elements() as f64;
    let many = Breakdown::of(&bsolver, &bws.into_registry());
    println!(
        "many_class   : {:>8.2} steps/s  {many_eups:>12.3e} element-updates/s  \
         ({} elements, {} classes, lane fill {:.3})",
        many_sps.median, many.mesh_elements, many.classes, many.lane_fill
    );
    println!(
        "speedup      : {:.2}x [{:.2}, {:.2}] element-updates/s (fused vs baseline)",
        speedup.median, speedup.q1, speedup.q3
    );

    // ---- optional LTS leg: rate-group stepping vs the fused global-dt
    // kernel on a coarse-dominant 3-level mesh (refinement confined to one
    // corner column, so most elements can step at 2x/4x the base dt) ----
    let mut lts_json: Option<Json> = None;
    let mut lts_speedup: Option<f64> = None;
    if lts {
        let (lts_coarse, lts_want_steps) = if smoke { (3u8, 8u64) } else { (4, 24) };
        let (quarter, eighth) = (1u32 << (MAX_LEVEL - 2), 1u32 << (MAX_LEVEL - 3));
        let lmesh = octree_mesh(|o| {
            o.level < lts_coarse
                || (o.level <= lts_coarse && o.x < quarter && o.y < quarter)
                || (o.level <= lts_coarse + 1 && o.x < eighth && o.y < eighth && o.z < eighth)
        });
        let mut lcfg = ElasticConfig::new(1.0);
        lcfg.abc = [true, true, true, true, false, true];
        lcfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
        let lsolver = ElasticSolver::new(&lmesh, &lcfg);
        let plan = RateGroupPlan::build(&lsolver, 8);
        let m = plan.cycle();
        let n_base = lts_want_steps.div_ceil(m) * m;
        let mut level_hist = std::collections::BTreeMap::new();
        for e in &lmesh.elements {
            *level_hist.entry(e.level).or_insert(0usize) += 1;
        }
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
        let mut lfws = lsolver.workspace();
        let mut lfused = step_with(&lsolver, &lu0p, n_base as usize, &mut lfws);
        let lharness = SolverHarness::new(&lsolver);
        let lv0 = vec![0.0; lu0.len()];
        let mut lws = lsolver.workspace();
        let mut grouped = || {
            let mut state = plan.initial_state(&lsolver, 0, Some((&lu0, &lv0)));
            let outcome = lharness.run_grouped(
                &plan,
                &RunConfig::to_step(n_base),
                &mut state,
                &mut lws,
                &mut NoExchange,
                &mut [&mut NoopHook],
            );
            assert!(matches!(outcome, RunOutcome::Finished { .. }), "lts run stopped early");
            assert!(state.u_now.iter().all(|v| v.is_finite()), "lts stepper diverged");
        };
        let tl = time_rounds(rounds, &mut [&mut lfused, &mut grouped]);
        // Global-equivalent throughput: both legs advance n_base base steps
        // of the same mesh, so elements x base steps / wall compares
        // identical physical progress.
        let lne = lmesh.n_elements();
        let lfused_sps = Spread::of(tl.iter().map(|r| n_base as f64 / r[0]));
        let lts_base_sps = Spread::of(tl.iter().map(|r| n_base as f64 / r[1]));
        let sp = Spread::of(tl.iter().map(|r| r[0] / r[1]));
        lts_speedup = Some(sp.median);
        println!(
            "lts/fused    : {:>8.2} steps/s  {:>12.3e} element-updates/s",
            lfused_sps.median,
            lfused_sps.median * lne as f64
        );
        println!(
            "lts/grouped  : {:>8.2} base-steps/s  {:>12.3e} equivalent element-updates/s",
            lts_base_sps.median,
            lts_base_sps.median * lne as f64
        );
        println!(
            "lts speedup  : {:.2}x [{:.2}, {:.2}] element-updates/s (rate groups vs fused \
             global dt)",
            sp.median, sp.q1, sp.q3
        );
        let level_elements = level_hist.iter().map(|(lv, &c)| (lv.to_string(), Json::from(c)));
        lts_json = Some(Json::obj([
            ("mesh_elements", lne.into()),
            ("mesh_nodes", lmesh.n_nodes().into()),
            ("level_elements", Json::obj(level_elements)),
            ("group_elements", Json::arr(plan.group_histogram())),
            ("factors", Json::arr(plan.factors().iter().copied())),
            ("cycle", m.into()),
            ("element_updates_per_cycle", updates_per_cycle.into()),
            ("ideal_work_ratio", ideal_ratio.into()),
            ("n_steps", n_base.into()),
            ("fused", Json::obj(rate_fields(lfused_sps, lne))),
            (
                "grouped",
                Json::obj([
                    ("base_steps_per_sec", lts_base_sps.median.into()),
                    ("base_steps_per_sec_quartiles", lts_base_sps.quartiles()),
                    (
                        "equivalent_element_updates_per_sec",
                        (lts_base_sps.median * lne as f64).into(),
                    ),
                ]),
            ),
            ("speedup_lts_vs_fused", sp.median.into()),
            ("speedup_lts_vs_fused_quartiles", sp.quartiles()),
        ]));
    }

    // ---- per-phase breakdown from the instrumented registries ----

    let reg = iws.into_registry();
    let main = Breakdown::of(&solver, &reg);
    main.print("2-class mesh");
    many.print("many-class mesh");

    let host = provenance();
    let mut breakdown = vec![
        ("host", host.clone()),
        ("telemetry_overhead_pct", telemetry_ov.median.max(0.0).into()),
        ("telemetry_overhead_raw_pct", telemetry_ov.median.into()),
        ("telemetry_overhead_quartiles_pct", telemetry_ov.quartiles()),
    ];
    breakdown.extend(main.json_fields());
    breakdown.push(("many_class", Json::obj(many.json_fields())));

    let mut json = vec![
        ("host", host),
        ("mesh_elements", ne.into()),
        ("mesh_nodes", mesh.n_nodes().into()),
        ("hanging_nodes", mesh.n_hanging().into()),
        ("n_steps", n_steps.into()),
        ("trials", rounds.into()),
        ("baseline", Json::obj(rate_fields(sps(BASELINE), ne))),
        ("fused", Json::obj(rate_fields(sps(FUSED), ne))),
        ("instrumented", overhead_row(sps(INSTRUMENTED), "telemetry_overhead", telemetry_ov)),
        ("traced", overhead_row(sps(TRACED), "trace_overhead", trace_ov)),
        ("harness", overhead_row(sps(HARNESS), "noop_hook_overhead", harness_ov)),
        ("lane_fill", main.lane_fill.into()),
        (
            "many_class",
            Json::obj(
                many.mesh_fields().into_iter().chain(rate_fields(many_sps, many.mesh_elements)),
            ),
        ),
        ("speedup_fused_vs_baseline", speedup.median.into()),
        ("speedup_fused_vs_baseline_quartiles", speedup.quartiles()),
    ];
    json.extend(lts_json.map(|l| ("lts", l)));

    let trace_path = format!("{REPO_ROOT}/target/BENCH_step_trace.ndjson");
    let _ = std::fs::create_dir_all(format!("{REPO_ROOT}/target"));
    std::fs::write(&trace_path, reg.ndjson()).expect("write NDJSON trace");
    println!("\nwrote {trace_path}");
    if let Some(path) = &trace_out {
        // The traced variant's ring over every round, as a Chrome
        // trace_event JSON — loadable in Perfetto / chrome://tracing.
        let buf = tws.reg.trace_buffer();
        std::fs::write(path, quake_telemetry::json::chrome_trace(&[buf]))
            .expect("write Chrome trace");
        println!("wrote {path}");
    }
    write_report("BENCH_step_throughput.json", &Json::obj(json), smoke);
    write_report("BENCH_phase_breakdown.json", &Json::obj(breakdown), smoke);

    if let Some(limit) = check_overhead {
        for (what, ov) in [
            ("telemetry", telemetry_ov),
            ("harness no-op-hook", harness_ov),
            ("flight-recorder", trace_ov),
        ] {
            let pct = ov.median.max(0.0);
            assert!(pct <= limit, "{what} overhead {pct:.2}% exceeds the {limit}% budget");
        }
    }
    let speedup = speedup.median;
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
