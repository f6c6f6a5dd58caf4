//! Frozen pre-optimization explicit step — the equivalence and benchmark
//! baseline.
//!
//! This is the elastic step exactly as it existed before the hot-path
//! overhaul: ascending element order, a separate row-wise `elastic_matvec`
//! per input vector (two full sweeps over the canonical matrices for damped
//! elements), a per-step scratch vector for the absorbing-boundary
//! tractions, and separate passes for the diagonal-damping term and the
//! history/`lhs_inv` tail. Keep it frozen: `bench_step` measures the fused
//! step against it, and the solver tests assert <= 1e-12 agreement.

use crate::abc::apply_abc_stiffness;
use crate::elastic::ElasticSolver;
use quake_fem::hex8::{elastic_hex_matrices, ElasticHexMatrices};

/// The original row-wise element matvec (single accumulator pair per row, no
/// column blocking): `y += scale * (lambda K_L + mu K_M) x`.
#[inline]
fn matvec_rowwise(
    m: &ElasticHexMatrices,
    lambda: f64,
    mu: f64,
    scale: f64,
    x: &[f64; 24],
    y: &mut [f64; 24],
) {
    for r in 0..24 {
        let rl = &m.k_lambda[r];
        let rm = &m.k_mu[r];
        let mut al = 0.0;
        let mut am = 0.0;
        for c in 0..24 {
            al += rl[c] * x[c];
            am += rm[c] * x[c];
        }
        y[r] += scale * (lambda * al + mu * am);
    }
}

/// One explicit step of the pre-optimization two-pass implementation over
/// the full domain. Semantically equivalent to
/// [`ElasticSolver::step_with`]; numerically equal up to floating-point
/// summation order (different element order and accumulator shape).
pub fn reference_step(
    solver: &ElasticSolver<'_>,
    u_prev: &[f64],
    u_now: &[f64],
    f_ext: &[f64],
    u_next: &mut [f64],
) {
    let mesh = solver.mesh;
    let ndof = 3 * mesh.n_nodes();
    assert_eq!(u_prev.len(), ndof);
    assert_eq!(u_now.len(), ndof);
    assert_eq!(f_ext.len(), ndof);
    assert_eq!(u_next.len(), ndof);
    let dt = solver.dt;
    let dt2 = dt * dt;
    let mats = elastic_hex_matrices();

    let rhs = u_next;
    for d in 0..ndof {
        rhs[d] = dt2 * f_ext[d];
    }
    // Element loop in ascending (Morton) order; damped elements pay a second
    // full sweep over the canonical matrices.
    for (i, e) in mesh.elements.iter().enumerate() {
        let mut xu = [0.0; 24];
        let mut xw = [0.0; 24];
        for (c, &nd) in e.nodes.iter().enumerate() {
            let b = nd as usize * 3;
            for comp in 0..3 {
                xu[3 * c + comp] = u_now[b + comp];
                xw[3 * c + comp] = u_now[b + comp] - u_prev[b + comp];
            }
        }
        let mut y = [0.0; 24];
        matvec_rowwise(mats, e.material.lambda, e.material.mu, e.h, &xu, &mut y);
        let mut yw = [0.0; 24];
        if solver.beta[i] != 0.0 {
            matvec_rowwise(mats, e.material.lambda, e.material.mu, e.h, &xw, &mut yw);
        }
        let bscale = 0.5 * dt * solver.beta[i];
        for (c, &nd) in e.nodes.iter().enumerate() {
            let b = nd as usize * 3;
            for comp in 0..3 {
                rhs[b + comp] -= dt2 * y[3 * c + comp] + bscale * yw[3 * c + comp];
            }
        }
    }

    // Stacey K^AB through a freshly allocated traction vector (the per-step
    // allocation the overhaul removed).
    if !solver.faces.is_empty() {
        let mut fab = vec![0.0; ndof];
        apply_abc_stiffness(&solver.faces, u_now, &mut fab, 1.0);
        for d in 0..ndof {
            rhs[d] += dt2 * fab[d];
        }
    }

    // The solver keeps its diagonals planar only: this interleaved step
    // reads dof `d = 3 * node + comp` of each at `p = comp * n + node`.
    let n = mesh.n_nodes();

    // Diagonal damping term on w = u0 - u- (its own pass).
    for nd in 0..n {
        for comp in 0..3 {
            let (d, p) = (3 * nd + comp, comp * n + nd);
            rhs[d] -= 0.5 * dt * solver.damp_diag_p[p] * (u_now[d] - u_prev[d]);
        }
    }

    mesh.fold_hanging(rhs, 3);

    // History terms and the diagonal solve (two statements, one pass — as in
    // the original).
    for nd in 0..n {
        for comp in 0..3 {
            let (d, p) = (3 * nd + comp, comp * n + nd);
            rhs[d] += (2.0 * solver.mass_fp[p] + 0.5 * dt * solver.cdiag_fp[p]) * u_now[d]
                - solver.mass_fp[p] * u_prev[d];
            rhs[d] *= solver.lhs_inv_p[p];
        }
    }
    mesh.interpolate_hanging(rhs, 3);
}
