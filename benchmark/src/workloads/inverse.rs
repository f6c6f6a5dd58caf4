//! `inverse_material`: the paper's second half — a multiscale
//! Gauss-Newton-CG inversion for the shear modulus of a basin cross-section
//! from noisy surface seismograms. Runs `inverse`, `antiplane` and
//! `solver::wave`; none of the elastic-kernel work appears here.

use super::bits_equal;
use crate::driver::Driver;
use quake::antiplane::ShSolver;
use quake::core::{material_scenario, MaterialScenario};
use quake::inverse::matmap::prolong;
use quake::inverse::{
    invert_material, invert_multiscale, GnConfig, MaterialMap, MultiscaleConfig, TvReg,
};
use quake::solver::wave::{forward, ScalarWaveEq};
use std::hint::black_box;

/// Final over initial data misfit the cascade must reach, and the relative
/// L2 error of the recovered shear velocity it must stay under: the stated
/// accuracy of this workload's time to solution. Fixed from the parent
/// commit, which reaches 0.0332 and 0.1336 (the 5% data noise sets the
/// misfit floor). The shrunk `--quick` problem only has to make progress.
const MISFIT_RATIO_TOL: (f64, f64) = (0.05, 0.9);
const MODEL_ERROR_TOL: (f64, f64) = (0.16, 0.5);

/// The noise realisation of the pseudo-observed data: the `basin_inversion`
/// example's. It is NOT derived from `--seed`: Gauss-Newton and CG
/// iteration counts swing by +-30% between realisations (164..296 CG
/// iterations over eight seeds at the parent), which would drown every
/// timing in input variance. One fixed instance keeps the iteration counts
/// exact, so `wall_s` moves only when the code does.
const NOISE_SEED: u64 = 42;

const GRIDS: [[usize; 3]; 4] = [[2, 2, 1], [3, 3, 1], [5, 4, 1], [9, 6, 1]];
const LEVEL_METRICS: [&str; 4] = [
    "inverse.level_s.g2x2",
    "inverse.level_s.g3x3",
    "inverse.level_s.g5x4",
    "inverse.level_s.g9x6",
];

/// The `basin_inversion` example's configuration.
fn config(sc: &MaterialScenario) -> MultiscaleConfig {
    let base = sc.mu_background[0];
    MultiscaleConfig {
        grids: GRIDS.to_vec(),
        domain: sc.domain,
        tv_eps: 0.02 * base / 2000.0,
        tv_beta: 1e-26,
        per_level: GnConfig {
            max_gn_iters: 12,
            max_cg_iters: 30,
            grad_tol: 1e-2,
            barrier: Some((0.05 * base, 1e-7)),
            ..GnConfig::default()
        },
        freq_schedule: None,
    }
}

fn model_error(sc: &MaterialScenario, m: &[f64]) -> f64 {
    let mu = MaterialMap::new(&sc.centers, sc.domain, GRIDS[3]).interpolate(m);
    let (mut err, mut norm) = (0.0, 0.0);
    for (a, b) in mu.iter().zip(&sc.mu_true) {
        let (va, vb) = ((a / sc.section.rho).sqrt(), (b / sc.section.rho).sqrt());
        err += (va - vb) * (va - vb);
        norm += vb * vb;
    }
    (err / norm).sqrt()
}

pub fn inverse_material(d: &mut Driver) {
    // The `basin_inversion` example's problem.
    let (nx, nz, steps) = d.size((28, 16, 160), (14, 8, 40));

    // ---- set-up: the target section, the fault, noisy pseudo-observations ----
    let sc = d.setup("scenario", || material_scenario(nx, nz, steps, 32, 0.05, NOISE_SEED));
    let cfg = config(&sc);
    let base = sc.mu_background[0];
    let forcing = sc.forcing();
    d.describe("wave_grid_nx", nx as f64);
    d.describe("wave_grid_nz", nz as f64);
    d.describe("steps", steps as f64);
    d.describe("receivers", sc.data.len() as f64);

    // ---- timed: the whole continuation cascade ----
    let (m, levels) = d.measure(
        || {},
        |_reg| invert_multiscale(&sc.solver, &forcing, &sc.data, &sc.centers, base, &cfg),
    );
    let gn: usize = levels.iter().map(|l| l.stats.gn_iters).sum();
    let cg: usize = levels.iter().map(|l| l.stats.cg_iters_total).sum();
    // Every Gauss-Newton and every CG iteration is one forward plus one
    // adjoint wave solve; line-search evaluations come on top and are not
    // counted, so this is the cascade's nominal work in SH element updates.
    d.work_per_rep((nx * nz * steps * 2 * (gn + cg)) as f64);
    d.describe("gn_iters", gn as f64);
    d.describe("cg_iters", cg as f64);

    // ---- output checks ----
    let first = levels.first().and_then(|l| l.stats.misfit_history.first().copied());
    let last = levels.last().and_then(|l| l.stats.misfit_history.last().copied());
    let misfit_ratio = match (first, last) {
        (Some(a), Some(b)) if a > 0.0 => b / a,
        _ => f64::INFINITY,
    };
    let error = model_error(&sc, &m);
    d.check(
        "misfit reduced to the stated level",
        misfit_ratio <= d.size(MISFIT_RATIO_TOL.0, MISFIT_RATIO_TOL.1),
    );
    d.check(
        "recovered shear velocity within the stated error",
        error <= d.size(MODEL_ERROR_TOL.0, MODEL_ERROR_TOL.1),
    );
    d.check("recovered moduli finite and positive", m.iter().all(|v| v.is_finite() && *v > 0.0));

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger ----
    d.set("inverse.gn_iters", gn as f64);
    d.set("inverse.cg_iters", cg as f64);
    d.set("inverse.final_misfit_ratio", misfit_ratio);
    d.set("inverse.model_error_rel", error);
    let n_nodes = ScalarWaveEq::n_nodes(&sc.solver);
    d.set("inverse.state_history_mb_computed", ((steps + 1) * n_nodes * 8) as f64 / 1e6);

    // inverse: the cascade level by level from its public pieces — the time
    // each grid takes, and a bit-for-bit cross-check of the cascade.
    let mut m_prev = vec![base];
    let mut dims_prev = [1usize, 1, 1];
    for (dims, metric) in GRIDS.into_iter().zip(LEVEL_METRICS) {
        let ((m_level, _), secs) = d.time(metric, || {
            let map = MaterialMap::new(&sc.centers, cfg.domain, dims);
            let spacing = std::array::from_fn(|a| match dims[a] {
                1 => 1.0,
                n => cfg.domain[a] / (n - 1) as f64,
            });
            let tv = TvReg { dims, spacing, eps: cfg.tv_eps, beta: cfg.tv_beta };
            let m_init = prolong(&m_prev, dims_prev, dims);
            invert_material(&sc.solver, &forcing, &sc.data, &map, &tv, &m_init, &cfg.per_level)
        });
        (m_prev, dims_prev) = (m_level, dims);
        d.set(metric, secs);
    }
    d.check("level-by-level cascade equals invert_multiscale bit for bit", bits_equal(&m_prev, &m));

    // wave / antiplane: one forward solve with and without the state
    // history the adjoint needs, and the solver's construction.
    let plain_s = d.time_median("wave/forward", 5, || {
        black_box(forward(&sc.solver, &sc.mu_true, &mut |k, f| forcing(k, f), false).traces.len());
    });
    let history_s = d.time_median("wave/forward (states)", 5, || {
        black_box(forward(&sc.solver, &sc.mu_true, &mut |k, f| forcing(k, f), true).states.len());
    });
    let new_s = d.time_median("antiplane/ShSolver.new", 5, || {
        black_box(ShSolver::new(&sc.solver.cfg));
    });
    d.set("wave.forward_ms", plain_s * 1e3);
    d.set("wave.forward_with_history_ms", history_s * 1e3);
    d.set("antiplane.solver_new_ms", new_s * 1e3);
}
