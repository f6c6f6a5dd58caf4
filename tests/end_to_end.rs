//! Cross-crate integration tests: the full pipelines of the paper exercised
//! through the public facade.

use quake::antiplane::{FaultSource, ShConfig, ShSolver};
use quake::inverse::{
    invert_multiscale, invert_source, GnConfig, MaterialMap, MultiscaleConfig,
    SourceInversionConfig,
};
use quake::mesh::{mesh_from_model, MeshingParams};
use quake::model::{layer_over_halfspace, HomogeneousModel, Material};
use quake::solver::analytic::sh1d_reference;
use quake::solver::wave::{forward, ScalarWaveEq};
use quake::solver::{ElasticConfig, ElasticSolver, SolverHarness};

/// Fig 2.2-grade verification: the 3-D hexahedral solver on a layered
/// column against the fine 1-D SH finite-difference reference.
#[test]
fn layer_over_halfspace_matches_1d_reference() {
    let depth = 8_000.0;
    let soft = Material::new(2400.0, 1200.0, 1900.0);
    let stiff = Material::new(4800.0, 2400.0, 2500.0);
    let layer = 2_000.0;
    let model = layer_over_halfspace(layer, soft, stiff);

    // Mesh the cube; pseudo-1-D initial condition: up-going SH pulse in the
    // halfspace, uniform in x and y. (The transmitted pulse compresses by
    // vs1/vs2, so the pulse must stay resolved in the soft layer.)
    let mut params = MeshingParams::new(depth, 0.4);
    params.min_level = 4;
    params.max_level = 6;
    let (_tree, mesh) = mesh_from_model(&params, &model);
    let mut cfg = ElasticConfig::new(2.0);
    cfg.abc = [false, false, false, false, false, true]; // only the bottom absorbs
    cfg.cfl = 0.4;
    let solver = ElasticSolver::new(&mesh, &cfg);

    let sigma = 1_200.0;
    let g = move |z: f64| (-((z - 4_800.0) / sigma).powi(2)).exp();
    let dgdz = move |z: f64| -2.0 * (z - 4_800.0) / (sigma * sigma) * g(z);
    let n = mesh.n_nodes();
    let (mut u0, mut v0) = (vec![0.0; 3 * n], vec![0.0; 3 * n]);
    for (i, c) in mesh.coords.iter().enumerate() {
        u0[3 * i] = g(c[2]);
        v0[3 * i] = stiff.vs * dgdz(c[2]); // traveling toward -z (up)
    }
    // Free-surface-violation pollution from the x faces travels inward at
    // the shear speed (~2400 m/s over 4 km): keep t_end below ~1.6 s.
    let t_end = 1.3;
    let steps = (t_end / solver.dt).round() as usize;
    let (_, un) = SolverHarness::new(&solver).run_to_state(Some((&u0, &v0)), steps);
    let t_actual = steps as f64 * solver.dt;

    // 1-D reference at high resolution.
    let refsol = sh1d_reference(
        depth,
        4000,
        |z| if z < layer { 1900.0 } else { 2500.0 },
        |z| if z < layer { 1900.0 * 1200.0f64.powi(2) } else { 2500.0 * 2400.0f64.powi(2) },
        g,
        |z| stiff.vs * dgdz(z),
        t_end + 0.1,
        &[t_actual],
    );
    let uref = &refsol.u[0];

    // Compare along the center column.
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, c) in mesh.coords.iter().enumerate() {
        let mid = depth / 2.0;
        if (c[0] - mid).abs() < 1e-6 && (c[1] - mid).abs() < 1e-6 {
            let zi = (c[2] / refsol.dz).round() as usize;
            let exact = uref[zi.min(uref.len() - 1)];
            num += (un[3 * i] - exact).powi(2);
            den += exact * exact;
        }
    }
    let rel = (num / den).sqrt();
    assert!(rel < 0.25, "3-D vs 1-D reference mismatch: {rel}");
}

/// End-to-end material inversion through the facade: recover a basin blob.
#[test]
fn multiscale_material_inversion_recovers_blob() {
    let s = ShSolver::new(&ShConfig {
        nx: 24,
        nz: 14,
        h: 800.0,
        rho: 2200.0,
        dt: 0.07,
        n_steps: 90,
        receivers: vec![],
        mu_background: 2200.0 * 2000.0 * 2000.0,
        absorbing: [true; 3],
    })
    .with_surface_receivers(12);
    let base = 2200.0 * 2000.0f64 * 2000.0;
    let mu_true = s.mu_from(|x, z| {
        let r2 = ((x - 9_600.0) / 4_000.0).powi(2) + ((z - 3_000.0) / 2_500.0).powi(2);
        base * (1.0 - 0.3 * (-r2).exp())
    });
    let centers: Vec<[f64; 3]> = (0..s.n_elements())
        .map(|e| {
            let c = s.elem_center(e);
            [c[0], c[1], 0.0]
        })
        .collect();
    let src = s.node(5, 7);
    let forcing = move |k: usize, f: &mut [f64]| {
        if k < 8 {
            f[src] += 1e8;
        }
    };
    let data = forward(&s, &mu_true, &mut |k, f| forcing(k, f), false).traces;
    let cfg = MultiscaleConfig {
        grids: vec![[2, 2, 1], [4, 3, 1], [7, 5, 1]],
        domain: [24.0 * 800.0, 14.0 * 800.0, 1.0],
        tv_eps: 0.02 * base / 2000.0,
        tv_beta: 1e-28,
        per_level: GnConfig {
            max_gn_iters: 12,
            max_cg_iters: 30,
            grad_tol: 1e-2,
            barrier: Some((0.05 * base, 1e-7)),
            ..GnConfig::default()
        },
        freq_schedule: None,
    };
    let (m, levels) = invert_multiscale(&s, &forcing, &data, &centers, base, &cfg);
    let j0 = levels[0].stats.misfit_history[0];
    let jn = levels.last().unwrap().stats.misfit_history.last().copied().unwrap();
    assert!(jn < 0.05 * j0, "misfit {j0} -> {jn}");
    // The recovered field must be softer near the blob than far away.
    let map = MaterialMap::new(&centers, cfg.domain, [7, 5, 1]);
    let mu_inv = map.interpolate(&m);
    let at = |x: f64, z: f64| {
        let e = s.elem((x / 800.0) as usize, (z / 800.0) as usize);
        mu_inv[e]
    };
    let blob = at(9_600.0, 3_000.0);
    let far = at(2_000.0, 9_000.0);
    assert!(blob < 0.9 * far, "blob not recovered: center {blob:.3e} vs far {far:.3e}");
}

/// End-to-end source inversion through the facade.
#[test]
fn source_inversion_end_to_end() {
    let s = ShSolver::new(&ShConfig {
        nx: 18,
        nz: 10,
        h: 600.0,
        rho: 2200.0,
        dt: 0.05,
        n_steps: 180,
        receivers: vec![],
        mu_background: 2200.0 * 2000.0 * 2000.0,
        absorbing: [true; 3],
    })
    .with_surface_receivers(12);
    let mu = vec![2200.0 * 2000.0f64 * 2000.0; s.n_elements()];
    let fault = FaultSource::from_hypocenter(&s, &mu, 9, 2, 6, 4, 2800.0, 1.4, 1.0);
    let dt = s.dt();
    let data = forward(&s, &mu, &mut |k, f| fault.add_force(k as f64 * dt, f), false).traces;
    let ns = fault.n_segments();
    let cfg = SourceInversionConfig {
        gn: GnConfig { max_gn_iters: 35, grad_tol: 1e-7, ..GnConfig::default() },
        beta_delay: 1e-6,
        beta_rise: 1e-6,
        beta_amplitude: 1e-6,
        ..SourceInversionConfig::default()
    };
    let out = invert_source(
        &s,
        &fault,
        &mu,
        &data,
        (&vec![0.4; ns], &vec![2.2; ns], &vec![0.6; ns]),
        &cfg,
    );
    let j0 = out.stats.misfit_history[0];
    let jn = *out.stats.misfit_history.last().unwrap();
    assert!(jn < 1e-3 * j0, "misfit {j0} -> {jn}");
    for (j, p) in fault.params.iter().enumerate() {
        assert!((out.rises[j] - p.rise).abs() < 0.15, "rise {j}");
        assert!((out.delays[j] - p.delay).abs() < 0.1, "delay {j}");
    }
}

/// Forward modeling sanity across the whole stack: energy reaches a distant
/// station no earlier than physically possible.
#[test]
fn p_wave_arrival_respects_causality() {
    let mat = Material::new(4000.0, 2300.0, 2500.0);
    let model = HomogeneousModel(mat);
    let mut params = MeshingParams::new(12_000.0, 0.5);
    params.min_level = 3;
    params.max_level = 4;
    let (tree, mesh) = mesh_from_model(&params, &model);
    let source = quake::model::PointSource {
        position: [6_000.0, 6_000.0, 6_000.0],
        moment: quake::model::DoubleCouple::moment_tensor(0.4, 0.9, 0.2, 1e16),
        slip: quake::model::SlipFunction::new(0.0, 0.5, 1.0),
    };
    let sources = quake::solver::assemble_point_sources(&mesh, &tree, &[source]);
    let station = [6_000.0, 6_000.0, 0.0]; // 6 km above the source
    let rec = vec![mesh.nearest_node(station)];
    let solver = ElasticSolver::new(&mesh, &ElasticConfig::new(3.0));
    let run = solver.run(&sources, &rec, None);
    let seis = &run.seismograms[0];
    // First sample exceeding 1% of the peak must arrive no earlier than the
    // P travel time (6 km / 4 km/s = 1.5 s), with a tolerance for the
    // source ramp and numerical front width.
    let mag: Vec<f64> = (0..seis.n_samples())
        .map(|k| (0..3).map(|c| seis.data[3 * k + c].powi(2)).sum::<f64>().sqrt())
        .collect();
    let peak = mag.iter().cloned().fold(0.0, f64::max);
    assert!(peak > 0.0);
    let arrival = mag.iter().position(|&v| v > 0.01 * peak).unwrap() as f64 * run.dt;
    assert!(arrival > 0.8 * 1.5, "energy arrived impossibly early: {arrival} s (P time 1.5 s)");
    assert!(arrival < 2.5, "P arrival far too late: {arrival} s");
}

/// The recovery path end to end: a rank killed mid-run, one restart from
/// the last consistent checkpoint line, and final states bit-identical to
/// the fail-stop run.
#[test]
fn killed_rank_recovers_bit_identically() {
    use quake::mesh::hexmesh::ElemMaterial;
    use quake::mesh::HexMesh;
    use quake::octree::{BalanceMode, LinearOctree, MAX_LEVEL};
    use quake::parcomm::FaultPlan;
    use quake::solver::{run_distributed, run_distributed_recoverable, DistConfig, RecoveryConfig};
    use quake::telemetry::Registry;

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
    let solver = ElasticSolver::new(&mesh, &cfg);
    let mut u0 = vec![0.0; 3 * mesh.n_nodes()];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
        u0[3 * i + 1] = (-r2 / 2.0).exp();
    }
    mesh.interpolate_hanging(&mut u0, 3);
    let v0 = vec![0.0; u0.len()];
    let dist = DistConfig::new(2, 12).with_initial(&u0, &v0);
    let reference = run_distributed(&solver, &dist);

    let dir = std::env::temp_dir().join(format!("quake-e2e-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rcfg = RecoveryConfig::new(dir.clone(), 4, 3).with_faults(FaultPlan::kill(1, 7));
    let run = run_distributed_recoverable(&solver, &dist, &rcfg, &Registry::disabled()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.finished, "outcomes: {:?}", run.outcomes);
    assert_eq!((run.attempts, run.recoveries, run.restored_step), (2, 1, 4));
    assert_eq!(run.last.elements, reference.elements);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, ((rp, rn), (fp, fnow))) in run.last.states.iter().zip(&reference.states).enumerate()
    {
        assert!(bits(rp) == bits(fp) && bits(rn) == bits(fnow), "rank {rank} differs");
    }
}

/// The serving engine's cache end to end: a cold request is solved and
/// stored, the same request again is served from the cache, counted as a
/// hit, with bit-identical traces.
#[test]
fn repeated_request_is_a_bit_identical_cache_hit() {
    use quake::model::{LaBasinModel, PointSource, SlipFunction};
    use quake::serve::{EngineConfig, ScenarioRequest, ServeEngine};

    let extent = 8_000.0;
    let model = LaBasinModel::scaled(400.0, extent);
    let mut meshing = MeshingParams::new(extent, 0.4);
    meshing.min_level = 2;
    meshing.max_level = 4;
    let dir = std::env::temp_dir().join(format!("quake-e2e-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig::new(meshing, ElasticConfig::new(1.0)).with_cache(dir.clone(), 0);
    let engine = ServeEngine::start(&model, cfg).unwrap();
    let request = || {
        let source = PointSource {
            position: [4_000.0, 4_000.0, 2_000.0],
            moment: [[0.0, 1e15, 0.0], [1e15, 0.0, 0.0], [0.0, 0.0, 0.0]],
            slip: SlipFunction::new(0.0, 0.2, 1.0),
        };
        ScenarioRequest::new(vec![source], vec![[2_000.0, 3_000.0, 0.0]]).with_steps(8)
    };
    let cold = engine.submit(request()).unwrap().wait().unwrap();
    let hit = engine.submit(request()).unwrap().wait().unwrap();
    let stats = engine.stats();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!cold.cache_hit && hit.cache_hit);
    assert_eq!((stats.served, stats.cache_hits, stats.cache_misses), (2, 1, 1));
    assert_eq!(cold.key, hit.key);
    assert_eq!(cold.result.executed_steps, 8);
    let bits = |r: &quake::serve::ScenarioResponse| {
        r.result.traces.iter().flat_map(|t| t.data.iter().map(|v| v.to_bits())).collect::<Vec<_>>()
    };
    assert!(bits(&cold).iter().any(|&b| f64::from_bits(b) != 0.0), "the cold trace is silent");
    assert_eq!(bits(&cold), bits(&hit));
}
