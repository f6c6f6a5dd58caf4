//! Table 3.1 — algorithmic scalability of the inversion: Gauss-Newton and
//! CG iteration counts vs the number of inversion parameters (3-D scalar
//! wave equation, fixed wave grid, material grid swept).
//!
//! The paper's result is *mesh independence*: nonlinear and linear
//! iteration counts stay essentially flat from 125 to 2,146,689 material
//! parameters. We sweep scaled material grids over a fixed scaled wave grid
//! and report the same three columns.

use quake_bench::{full_scale, print_table};
use quake_inverse::{invert_material, GnConfig, MaterialMap, TvReg};
use quake_solver::wave::{forward, ScalarWaveEq};
use quake_solver::{Scalar3dConfig, Scalar3dSolver};

fn main() {
    // Fixed wave grid (the paper used 65^3 = 274,625 unknowns).
    let nw = if full_scale() { 24 } else { 12 };
    let n_steps = if full_scale() { 120 } else { 60 };
    let h = 400.0;
    let rho = 2000.0;
    let base = rho * 1500.0 * 1500.0;
    let solver = Scalar3dSolver::new(&Scalar3dConfig {
        nx: nw,
        ny: nw,
        nz: nw,
        h,
        rho,
        dt: 0.3 * h / 3000.0,
        n_steps,
        abc: [true, true, true, true, false, true],
        receivers: vec![],
        mu_background: base,
    })
    .with_receivers_at_surface(5);
    let domain = [nw as f64 * h; 3];
    println!(
        "wave grid: {}^3 elements = {} unknowns, {} steps, {} receivers",
        nw,
        solver.n_nodes(),
        n_steps,
        solver.receivers().len()
    );

    // A smooth physical target (independent of the inversion grids): a soft
    // blob over a vertical gradient.
    let mu_true: Vec<f64> = (0..solver.n_elements())
        .map(|e| {
            let c = solver.elem_center(e);
            let r2 = ((c[0] - domain[0] * 0.5) / (0.25 * domain[0])).powi(2)
                + ((c[1] - domain[1] * 0.5) / (0.25 * domain[1])).powi(2)
                + ((c[2] - domain[2] * 0.3) / (0.2 * domain[2])).powi(2);
            base * (1.0 + 0.3 * c[2] / domain[2] - 0.35 * (-r2).exp())
        })
        .collect();
    let src = solver.node(nw / 2, nw / 2, nw / 2);
    let forcing = move |k: usize, f: &mut [f64]| {
        if k < 10 {
            f[src] += 1e9 * ((k as f64 + 1.0) / 10.0);
        }
    };
    let data = forward(&solver, &mu_true, &mut |k, f| forcing(k, f), false).traces;

    // The material-grid sweep (scaled analogue of 125 .. 2,146,689).
    let grids: Vec<usize> =
        if full_scale() { vec![3, 5, 9, 13, 17, 25] } else { vec![3, 5, 7, 9, 13] };
    let mut rows = Vec::new();
    for &g in &grids {
        let dims = [g, g, g];
        let map = MaterialMap::new(
            &(0..solver.n_elements()).map(|e| solver.elem_center(e)).collect::<Vec<_>>(),
            domain,
            dims,
        );
        let sp = domain[0] / (g - 1).max(1) as f64;
        // The paper's mesh independence *requires* real regularization: the
        // TV term must add curvature on the fine scales the data cannot
        // constrain.
        let tv = TvReg { dims, spacing: [sp; 3], eps: 0.02 * base / sp, beta: 1e-28 };
        let m0 = vec![base; map.n_param()];
        let cfg = GnConfig {
            max_gn_iters: 40,
            max_cg_iters: 100,
            grad_tol: 1e-3,
            cg_tol: 0.1,
            barrier: Some((0.05 * base, 1e-7)),
            ..GnConfig::default()
        };
        let t0 = std::time::Instant::now();
        let (_m, stats) = invert_material(&solver, &forcing, &data, &map, &tv, &m0, &cfg);
        let avg = stats.cg_iters_total as f64 / stats.gn_iters.max(1) as f64;
        rows.push(vec![
            format!("{}", map.n_param()),
            format!("{}", stats.gn_iters),
            format!("{}", stats.cg_iters_total),
            format!("{avg:.1}"),
            format!(
                "{:.2e}",
                stats.misfit_history.last().copied().unwrap_or(0.0)
                    / stats.misfit_history.first().copied().unwrap_or(1.0)
            ),
            format!("{}", stats.converged),
            format!("{:.1}", t0.elapsed().as_secs_f64()),
        ]);
    }
    print_table(
        "Table 3.1: inversion algorithmic scalability (scaled)",
        &[
            "material grid",
            "nonlinear iter",
            "total linear iter",
            "avg linear iter",
            "misfit drop",
            "converged",
            "secs",
        ],
        &rows,
    );
    println!(
        "\npaper values (125 .. 2,146,689 parameters): 17/12/12/25/19/22\n\
         nonlinear and 144..439 total linear iterations — flat in problem\n\
         size. The reproduced shape: iteration counts essentially level as\n\
         the material grid is refined (each linear iteration = one forward\n\
         + one adjoint wave solve)."
    );
}
