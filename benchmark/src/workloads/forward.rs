//! `basin_forward` and `layered_forward`: the paper's forward run through
//! the product's own driver, `quake::core::ForwardRun`, on two meshes that
//! put the element kernel in opposite regimes.

use super::{
    bits_equal, class_key, epicentral_ring, gaussian_pulse, kernel_rate, probe_model,
    record_step_phases, rel_max_diff, MeshFacts, Rng,
};
use crate::driver::Driver;
use quake::ckpt::{CheckpointPolicy, CheckpointReader, CheckpointWriter, PeriodicSink, StepSink};
use quake::core::{ForwardRun, ForwardScenario};
use quake::fem::hex8::combined_hex_stiffness;
use quake::machine::phases::elastic_step_phases;
use quake::mesh::{color_elements, mesh_from_model, ElemMaterial, HexMesh, MeshingParams};
use quake::model::{layer_over_halfspace, ExtendedFault, LaBasinModel, Material, MaterialModel};
use quake::octree::adapt::{build_wavelength_adaptive, AdaptParams};
use quake::solver::layout::to_interleaved3;
use quake::solver::reference::reference_step;
use quake::solver::{
    assemble_point_sources, ElasticConfig, ElasticSolver, NoExchange, ReceiverHook, RunConfig,
    SolverHarness, SolverState,
};
use quake::telemetry::Registry;
use std::hint::black_box;

/// Steps compared against the frozen reference step.
const REFERENCE_STEPS: usize = 20;
/// Accepted relative deviation from the reference (summation order only).
const REFERENCE_TOL: f64 = 1e-10;

struct Spec {
    extent: f64,
    fmax: f64,
    max_level: u8,
    steps: usize,
    /// `Some(n)`: run `.resumable()` and write `n` snapshots per solve.
    checkpoints: Option<u64>,
}

pub fn basin_forward(d: &mut Driver) {
    let extent = 20_000.0;
    let model = d.setup("model", || LaBasinModel::scaled(400.0, extent));
    let spec = Spec {
        extent,
        fmax: 0.3,
        max_level: d.size(6, 4),
        steps: d.size(96, 24),
        checkpoints: Some(4),
    };
    forward(d, &model, &spec);
}

pub fn layered_forward(d: &mut Driver) {
    let extent = 20_000.0;
    let model = d.setup("model", || {
        layer_over_halfspace(
            2_500.0,
            Material::new(1800.0, 700.0, 2000.0),
            Material::new(5500.0, 3200.0, 2700.0),
        )
    });
    let spec = Spec {
        extent,
        fmax: 0.3,
        max_level: d.size(6, 4),
        steps: d.size(80, 24),
        checkpoints: None,
    };
    forward(d, &model, &spec);
}

/// The rupture: Northridge-like, with the seed moving the hypocentre, the
/// rake and the rupture speed a little. The mesh and step count do not
/// depend on it.
fn fault(extent: f64, seed: u64) -> ExtendedFault {
    let mut rng = Rng::new(seed, 1);
    let mut f = ExtendedFault::northridge_like(extent);
    f.hypocenter_frac = [0.4 + 0.05 * rng.signed(), 0.85 - 0.1 * rng.unit()];
    f.rake += 5f64.to_radians() * rng.signed();
    f.rupture_velocity *= 1.0 + 0.05 * rng.signed();
    f
}

fn forward<M: MaterialModel>(d: &mut Driver, model: &M, spec: &Spec) {
    let mut meshing = MeshingParams::new(spec.extent, spec.fmax);
    meshing.min_level = 2;
    meshing.max_level = spec.max_level;

    // ---- set-up: model -> octree -> mesh -> solver -> sources ----
    let (tree, mesh) = d.setup("mesh", || mesh_from_model(&meshing, model));
    // A probe solver fixes dt; the scenario's duration is then chosen to
    // give exactly `spec.steps` steps (untimed: the real one is built below).
    let probe_cfg = ElasticConfig::new(1.0);
    let dt = ElasticSolver::new(&mesh, &probe_cfg).dt;
    let rupture = fault(spec.extent, d.seed());
    let scenario = ForwardScenario {
        meshing,
        solve: ElasticConfig::new((spec.steps as f64 - 0.5) * dt),
        fault: rupture.clone(),
        n_subfaults: (6, 4),
        receivers: epicentral_ring(&rupture, spec.extent),
    };
    let point_sources = rupture.discretize(6, 4);
    let sources = d.setup("sources", || assemble_point_sources(&mesh, &tree, &point_sources));
    let facts = MeshFacts::of(&mesh);
    facts.describe(d, dt, spec.steps);

    // ---- timed: the solve, from a zero state to the final seismograms ----
    // This is the call ForwardRun::execute makes after meshing: sources on,
    // receivers sampled, and (basin only) the periodic checkpoint sink.
    let solver = d.setup("solver", || ElasticSolver::new(&mesh, &scenario.solve));
    let harness = SolverHarness::new(&solver);
    let nodes: Vec<u32> = scenario.receivers.iter().map(|&p| mesh.nearest_node(p)).collect();
    let ckpt_dir = d.work_dir().join("ckpt");
    let every = spec.checkpoints.map_or(0, |n| (spec.steps as u64).div_ceil(n));
    let policy = CheckpointPolicy::every_steps(every.max(1));
    d.work_per_rep((facts.elements * spec.steps) as f64);
    let seismograms = d.measure(
        || {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
        },
        |reg| {
            let mut ws = if reg.is_enabled() {
                solver.workspace_instrumented(reg.rank())
            } else {
                solver.workspace()
            };
            let state = solver.initial_state(nodes.len(), None);
            let result = if spec.checkpoints.is_some() {
                let writer = CheckpointWriter::new(&ckpt_dir, "forward")
                    .expect("scratch directory is writable");
                let mut sink = PeriodicSink::new(&writer, &policy);
                let sink: &mut dyn StepSink<SolverState> = &mut sink;
                harness.run_simulation(&sources, &nodes, state, &mut ws, Some(sink))
            } else {
                harness.run_simulation(&sources, &nodes, state, &mut ws, None)
            };
            reg.absorb(&ws.into_registry());
            result.expect("checkpoint directory is writable").0.seismograms
        },
    );

    // ---- output checks ----
    d.check(
        "every station has a finite, non-zero seismogram",
        seismograms.len() == 6
            && seismograms.iter().all(|s| {
                let peak = (0..3).map(|c| s.peak(c)).fold(0.0f64, f64::max);
                s.n_samples() == spec.steps && peak.is_finite() && peak > 0.0
            }),
    );
    let written = CheckpointReader::new(&ckpt_dir, "forward").steps().len();
    d.check("snapshots written as configured", written as u64 == spec.checkpoints.unwrap_or(0));

    let ref_steps = REFERENCE_STEPS.min(spec.steps);
    let (production, reference) = {
        let mut state = solver.initial_state(0, None);
        let cfg = RunConfig::to_step(ref_steps as u64).with_sources(&sources);
        harness.run(&cfg, &mut state, &mut solver.workspace(), &mut NoExchange, &mut []);
        let ndof = 3 * mesh.n_nodes();
        let (mut up, mut un, mut next) = (vec![0.0; ndof], vec![0.0; ndof], vec![0.0; ndof]);
        let mut f = vec![0.0; ndof];
        for k in 0..ref_steps {
            f.iter_mut().for_each(|v| *v = 0.0);
            for s in &sources {
                s.add_force(k as f64 * solver.dt, &mut f);
            }
            reference_step(&solver, &up, &un, &f, &mut next);
            std::mem::swap(&mut up, &mut un);
            std::mem::swap(&mut un, &mut next);
        }
        (to_interleaved3(&state.u_now), un)
    };
    let reference_match = rel_max_diff(&production, &reference);
    d.check(
        "first steps match reference_step to 1e-10",
        reference.iter().any(|v| *v != 0.0) && reference_match <= REFERENCE_TOL,
    );

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger (traced run only) ----
    // core: the same scenario through the product's driver, which must give
    // the timed path's seismograms bit for bit; its registry spans split the
    // driver's time into mesh / assemble / solve.
    let core_reg = Registry::new(0);
    let core_dir = d.work_dir().join("ckpt-core");
    let (outcome, _) = d.time("core/ForwardRun.execute", || {
        let run = ForwardRun::new(model, &scenario).traced(&core_reg);
        let run = if spec.checkpoints.is_some() { run.resumable(&core_dir, every) } else { run };
        run.execute().expect("checkpoint directory is writable")
    });
    d.check(
        "ForwardRun gives the timed path's seismograms bit for bit",
        outcome.mesh.n_elements() == facts.elements
            && outcome.result.seismograms.len() == seismograms.len()
            && outcome
                .result
                .seismograms
                .iter()
                .zip(&seismograms)
                .all(|(a, b)| bits_equal(&a.data, &b.data)),
    );
    for (metric, span) in [
        ("core.forward_mesh_s", "forward/mesh"),
        ("core.forward_assemble_s", "forward/assemble"),
        ("core.forward_solve_s", "forward/solve"),
    ] {
        d.set(metric, core_reg.span_stats(span).map_or(0.0, |s| s.total_secs()));
    }
    drop(outcome);
    facts.record(d);
    d.set("solver.reference_match_rel", reference_match);
    d.set("ckpt.writes", written as f64);
    record_step_phases(d);
    probe_model(d, model, spec.extent);

    // octree + mesh: the two halves of mesh_from_model, called directly.
    let adapt = AdaptParams {
        domain_size: meshing.domain_size,
        fmax: meshing.fmax,
        points_per_wavelength: meshing.points_per_wavelength,
        max_level: meshing.max_level,
        min_level: meshing.min_level,
    };
    let (tree2, build_s) = d.time("octree/build_wavelength_adaptive", || {
        build_wavelength_adaptive(&adapt, |o, l| {
            let (c, s) = (o.corner_unit(), o.size_unit());
            let lo = [c[0] * l, c[1] * l, c[2] * l];
            model.min_vs_in_box(lo, [lo[0] + s * l, lo[1] + s * l, lo[2] + s * l])
        })
    });
    d.set("octree.build_s", build_s);
    d.set("octree.leaves", tree2.len() as f64);
    let (mesh2, extract_s) = d.time("mesh/from_octree", || {
        HexMesh::from_octree(&tree2, meshing.domain_size, |x, y, z, _h| {
            let m = model.sample(x, y, z);
            ElemMaterial { lambda: m.lambda(), mu: m.mu(), rho: m.rho }
        })
    });
    d.set("mesh.extract_s", extract_s);
    drop(mesh2);
    let all: Vec<u32> = (0..mesh.n_elements() as u32).collect();
    let (coloring, color_s) = d.time("mesh/color_elements", || color_elements(&mesh, &all));
    d.set("mesh.color_s", color_s);
    d.set("mesh.colors", coloring.n_colors() as f64);
    // Same-template run length the sweep sees: elements over the number of
    // (color, class) groups.
    let groups: usize = coloring
        .colors()
        .map(|color| {
            let mut keys: Vec<_> =
                color.iter().map(|&e| class_key(&mesh.elements[e as usize])).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        })
        .sum();
    d.set("mesh.class_run_len_mean", mesh.n_elements() as f64 / groups as f64);

    // fem: one stiffness template.
    let e0 = &mesh.elements[0];
    let template_s = d.time_median("fem/combined_hex_stiffness", 200, || {
        black_box(combined_hex_stiffness(
            black_box(e0.material.lambda),
            black_box(e0.material.mu),
            black_box(e0.h),
        ));
    });
    d.set("fem.template_build_us", template_s * 1e6);

    // solver: construction, source assembly, bare kernel vs harness loop.
    let (_, new_s) = d.time("solver/new", || black_box(ElasticSolver::new(&mesh, &scenario.solve)));
    d.set("solver.new_s", new_s);
    let (_, assemble_s) = d.time("solver/assemble_point_sources", || {
        black_box(assemble_point_sources(&mesh, &tree, &point_sources))
    });
    d.set("solver.assemble_sources_s", assemble_s);

    let kernel_steps = d.size(40, 6);
    let updates = (mesh.n_elements() * kernel_steps) as f64;
    let (u0, v0) = gaussian_pulse(&mesh, rupture.center, 0.05 * spec.extent);
    let final_state = kernel_rate(d, &solver, &u0, kernel_steps);
    {
        let mut state = solver.initial_state(nodes.len(), Some((&u0, &v0)));
        let mut ws = solver.workspace();
        let cfg = RunConfig::to_step(kernel_steps as u64).with_sources(&sources);
        let mut hook = ReceiverHook::new(&nodes);
        let (_, harness_s) = d.time("solver/harness.run x N", || {
            harness.run(&cfg, &mut state, &mut ws, &mut NoExchange, &mut [&mut hook])
        });
        d.set("solver.harness_updates_per_s", updates / harness_s);
    }
    let costs = elastic_step_phases(&solver.phase_shape(solver.full_scope()));
    let flops: u64 = costs.iter().map(|p| p.flops).sum();
    let bytes: u64 = costs.iter().map(|p| p.bytes).sum();
    d.set("solver.flops_per_update_computed", flops as f64 / mesh.n_elements() as f64);
    d.set("solver.bytes_per_update_computed", bytes as f64 / mesh.n_elements() as f64);
    d.set("solver.intensity_computed", flops as f64 / bytes as f64);

    // ckpt: one snapshot of a full-size state, written and read back.
    if spec.checkpoints.is_some() {
        let dir = d.work_dir().join("ckpt-layer");
        let writer = CheckpointWriter::new(&dir, "state").expect("scratch directory is writable");
        let (path, write_s) = d.time("ckpt/write", || {
            writer.write(final_state.step, &final_state, d.reg()).expect("snapshot written")
        });
        let (restored, read_s) = d.time("ckpt/latest_valid", || {
            CheckpointReader::new(&dir, "state").latest_valid::<SolverState>(d.reg())
        });
        d.check(
            "snapshot reads back identical",
            restored.is_some_and(|(step, s)| step == final_state.step && s == final_state),
        );
        d.set("ckpt.write_s", write_s);
        d.set("ckpt.read_s", read_s);
        d.set("ckpt.snapshot_bytes", std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
    }
}
