//! Generic scalar wave marching engine.
//!
//! The inversion half of the paper needs, besides the forward solve, the
//! *discrete adjoint* solve and stiffness-derivative products. Both the 2-D
//! antiplane solver (Section 3.2) and the 3-D scalar solver (Table 3.1)
//! share the same semidiscrete structure
//!
//! ```text
//! A u_{k+1} = B u_k + C u_{k-1} + dt^2 f_k ,   u_0 = u_{-1} = 0
//! A = M + (dt/2) C_ab     (diagonal)
//! B = 2M - dt^2 K(mu)     (symmetric)
//! C = -M + (dt/2) C_ab    (diagonal)
//! ```
//!
//! so the marching logic lives here once, generic over [`ScalarWaveEq`].
//! Because `A`, `B`, `C` are symmetric, the exact discrete adjoint is the
//! same recurrence run backward:
//!
//! ```text
//! A l_m = B l_{m+1} + C l_{m+2} - dt r_m ,   l_{n+1} = l_{n+2} = 0
//! ```
//!
//! with `r_m` the receiver residuals at step `m`. Gradients assembled from
//! these fields pass finite-difference checks to machine precision
//! (discretize-then-optimize), which is what lets CG on the reduced Hessian
//! behave as in Table 3.1.
//!
//! The absorbing-boundary damping is computed once from a *frozen background
//! modulus* and kept fixed during inversion (a deviation from eq. (3.4)'s
//! boundary term, recorded in DESIGN.md: it keeps the discrete gradient
//! exact while preserving the absorbing behaviour).
//!
//! # History storage
//!
//! A gradient or a Hessian-vector product needs two time histories of
//! `n + 1` nodal vectors each: the forward states, which [`forward`] returns
//! in a new [`WaveRun`] when asked to, and the adjoint states, which
//! [`adjoint`] writes into a `Vec<Vec<f64>>` the caller owns. `adjoint`
//! resizes that buffer to `n + 1` vectors of `n_nodes` values and overwrites
//! every one, so its previous contents never matter. A caller that keeps
//! the buffer across solves of one problem pays for the adjoint history
//! once: after the first solve, an adjoint allocates only a few vectors of
//! `n_nodes` values, however many steps it marches.
//!
//! Full storage is the only adjoint-memory path. Uniform-segment
//! checkpointing (the paper's optional reference [21], Griewank) was
//! measured on the inversion and removed: its gradient sums the
//! per-step terms backward in time, so the Gauss-Newton iteration no
//! longer reproduces the full-storage one, and every Hessian-vector
//! product costs two more forward marches. EXPERIMENTS.md, "One
//! adjoint-memory path", has the table.

/// The spatially discretized scalar wave equation.
pub trait ScalarWaveEq: Sync {
    fn n_nodes(&self) -> usize;
    fn n_elements(&self) -> usize;
    fn n_steps(&self) -> usize;
    fn dt(&self) -> f64;
    /// Receiver node indices.
    fn receivers(&self) -> &[usize];
    /// Lumped nodal mass.
    fn mass(&self) -> &[f64];
    /// Frozen absorbing-boundary damping diagonal.
    fn abc_damping(&self) -> &[f64];
    /// `y += scale * K(mu) x`. K is linear in `mu`, so `apply_k(dmu, ..)` is
    /// also the directional stiffness derivative `(dK/dmu . dmu) x`.
    fn apply_k(&self, mu: &[f64], x: &[f64], y: &mut [f64], scale: f64);
    /// `out[e] += u_e^T (dK/dmu_e) v_e` for every element.
    fn accumulate_dk(&self, u: &[f64], v: &[f64], out: &mut [f64]);
}

/// Result of a forward march.
pub struct WaveRun {
    /// `states[k] = u_k` for `k = 0..=n`. Empty unless requested.
    pub states: Vec<Vec<f64>>,
    /// `traces[r][k-1] = u_k[receiver r]` for `k = 1..=n`.
    pub traces: Vec<Vec<f64>>,
}

/// Forward march: `forcing(k, f)` must *add* the nodal force at time
/// `t_k = k dt` into `f`.
pub fn forward(
    eq: &dyn ScalarWaveEq,
    mu: &[f64],
    forcing: &mut dyn FnMut(usize, &mut [f64]),
    store_states: bool,
) -> WaveRun {
    let n = eq.n_nodes();
    let steps = eq.n_steps();
    let dt = eq.dt();
    let dt2 = dt * dt;
    let mass = eq.mass();
    let cab = eq.abc_damping();
    let lhs_inv: Vec<f64> = (0..n).map(|i| 1.0 / (mass[i] + 0.5 * dt * cab[i])).collect();

    let mut u_prev = vec![0.0; n];
    let mut u_now = vec![0.0; n];
    let mut u_next = vec![0.0; n];
    let mut f = vec![0.0; n];
    let mut states = Vec::new();
    if store_states {
        states.push(u_now.clone()); // u_0
    }
    let mut traces = vec![Vec::with_capacity(steps); eq.receivers().len()];

    for k in 0..steps {
        f.iter_mut().for_each(|v| *v = 0.0);
        forcing(k, &mut f);
        // rhs = B u_k + C u_{k-1} + dt^2 f_k
        for i in 0..n {
            u_next[i] =
                2.0 * mass[i] * u_now[i] + (-mass[i] + 0.5 * dt * cab[i]) * u_prev[i] + dt2 * f[i];
        }
        eq.apply_k(mu, &u_now, &mut u_next, -dt2);
        for i in 0..n {
            u_next[i] *= lhs_inv[i];
        }
        std::mem::swap(&mut u_prev, &mut u_now);
        std::mem::swap(&mut u_now, &mut u_next);
        // u_now is u_{k+1}.
        for (tr, &r) in traces.iter_mut().zip(eq.receivers()) {
            tr.push(u_now[r]);
        }
        if store_states {
            states.push(u_now.clone());
        }
    }
    WaveRun { states, traces }
}

/// Adjoint march driven by receiver residuals `residuals[r][m-1]` for
/// `m = 1..=n`. Writes `lambda_m` into `history[m]` (`history[0]` is zeros);
/// see the module doc for how `history` is reused.
///
/// Derivation: with the Lagrangian
/// `L = J + sum_k l_{k+1}^T (A u_{k+1} - B u_k - C u_{k-1} - dt^2 f_k)` and
/// `J = (dt/2) sum_m sum_r (u_m[r] - d_m[r])^2`, stationarity in `u_m` gives
/// `A l_m = B l_{m+1} + C l_{m+2} - dt r_m`.
pub fn adjoint(
    eq: &dyn ScalarWaveEq,
    mu: &[f64],
    residuals: &[Vec<f64>],
    history: &mut Vec<Vec<f64>>,
) {
    let n = eq.n_nodes();
    let steps = eq.n_steps();
    let dt = eq.dt();
    let dt2 = dt * dt;
    assert_eq!(residuals.len(), eq.receivers().len());
    for r in residuals {
        assert_eq!(r.len(), steps);
    }
    let mass = eq.mass();
    let cab = eq.abc_damping();
    let lhs_inv: Vec<f64> = (0..n).map(|i| 1.0 / (mass[i] + 0.5 * dt * cab[i])).collect();

    history.resize_with(steps + 1, Vec::new);
    for l in history.iter_mut() {
        l.resize(n, 0.0);
    }
    history[0].fill(0.0);
    // lambda_{n+1} = lambda_{n+2} = 0.
    let zeros = vec![0.0; n];
    for m in (1..=steps).rev() {
        let (done, later) = history.split_at_mut(m + 1);
        let l_m = &mut done[m];
        let l_p = later.first().unwrap_or(&zeros); // lambda_{m+1}
        let l_pp = later.get(1).unwrap_or(&zeros); // lambda_{m+2}
        for i in 0..n {
            l_m[i] = 2.0 * mass[i] * l_p[i] + (-mass[i] + 0.5 * dt * cab[i]) * l_pp[i];
        }
        eq.apply_k(mu, l_p, l_m, -dt2);
        for (res, &r) in residuals.iter().zip(eq.receivers()) {
            l_m[r] -= dt * res[m - 1];
        }
        for i in 0..n {
            l_m[i] *= lhs_inv[i];
        }
    }
}

/// The data-misfit gradient w.r.t. the element moduli:
/// `g_e = dt^2 sum_{m=1..n} lambda_m^T (dK/dmu_e) u_{m-1}`.
pub fn material_gradient(
    eq: &dyn ScalarWaveEq,
    u_states: &[Vec<f64>],
    lambda_states: &[Vec<f64>],
) -> Vec<f64> {
    let steps = eq.n_steps();
    assert_eq!(u_states.len(), steps + 1);
    assert_eq!(lambda_states.len(), steps + 1);
    let dt2 = eq.dt() * eq.dt();
    let mut g = vec![0.0; eq.n_elements()];
    for m in 1..=steps {
        eq.accumulate_dk(&lambda_states[m], &u_states[m - 1], &mut g);
    }
    for v in &mut g {
        *v *= dt2;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar3d::{Scalar3dConfig, Scalar3dSolver};

    fn small_solver() -> Scalar3dSolver {
        Scalar3dSolver::new(&Scalar3dConfig {
            nx: 6,
            ny: 6,
            nz: 6,
            h: 100.0,
            rho: 2000.0,
            dt: 0.01,
            n_steps: 40,
            abc: [true, true, true, true, false, true],
            receivers: vec![],
            mu_background: 2000.0 * 1000.0 * 1000.0,
        })
        .with_receivers_at_surface(4)
    }

    #[test]
    fn forward_adjoint_duality() {
        // <L u, l> source-to-receiver duality: running forward from a point
        // source and sampling at a receiver equals running "forward" from
        // the receiver and sampling at the source (reciprocity of the
        // symmetric discrete operator).
        let eq = small_solver();
        let mu = vec![2e9; eq.n_elements()];
        let n = eq.n_nodes();
        let (a, b) = (n / 3, 2 * n / 3);
        let run_ab = forward(
            &eq,
            &mu,
            &mut |k, f| {
                if k == 0 {
                    f[a] = 1.0;
                }
            },
            false,
        );
        let run_ba = forward(
            &eq,
            &mu,
            &mut |k, f| {
                if k == 0 {
                    f[b] = 1.0;
                }
            },
            true,
        );
        let _ = run_ab;
        // Reciprocity: u^{(a)}(b, t) == u^{(b)}(a, t).
        let ua = forward(
            &eq,
            &mu,
            &mut |k, f| {
                if k == 0 {
                    f[a] = 1.0;
                }
            },
            true,
        );
        for m in 0..=eq.n_steps() {
            let x = ua.states[m][b];
            let y = run_ba.states[m][a];
            assert!((x - y).abs() < 1e-14 * (1.0 + x.abs()), "step {m}: {x} vs {y}");
        }
    }

    #[test]
    fn adjoint_is_exact_transpose() {
        // <S f, r> == <f, S^T r> where S maps a (step-0) source to receiver
        // traces and S^T is the adjoint march sampled at the source node.
        let eq = small_solver();
        let mu: Vec<f64> = (0..eq.n_elements())
            .map(|e| 2e9 * (1.0 + 0.3 * ((e * 37 % 11) as f64 / 11.0)))
            .collect();
        let src = eq.n_nodes() / 2 + 3;
        let fwd = forward(
            &eq,
            &mu,
            &mut |k, f| {
                if k == 0 {
                    f[src] = 1.7;
                }
            },
            false,
        );
        // Random residual traces.
        let mut s = 42u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let res: Vec<Vec<f64>> =
            (0..eq.receivers().len()).map(|_| (0..eq.n_steps()).map(|_| rnd()).collect()).collect();
        // For the linear functional Jt = dt sum_m traces.res, the Lagrangian
        // gives dJt/df_0[src] = -dt^2 lambda_1[src]; with a source of
        // magnitude 1.7, <S f, r> = 1.7 * dJt/d(unit force).
        let lhs: f64 = fwd
            .traces
            .iter()
            .zip(&res)
            .map(|(t, r)| t.iter().zip(r).map(|(a, b)| a * b).sum::<f64>())
            .sum::<f64>()
            * eq.dt();
        let mut lambda = Vec::new();
        adjoint(&eq, &mu, &res, &mut lambda);
        let rhs = -lambda[1][src] * 1.7 * eq.dt() * eq.dt();
        assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn material_gradient_matches_finite_differences() {
        let eq = small_solver();
        let ne = eq.n_elements();
        let mu0: Vec<f64> = (0..ne).map(|e| 2e9 * (1.0 + 0.2 * ((e % 7) as f64 / 7.0))).collect();
        let src = eq.n_nodes() / 2;
        fn forcing_at(src: usize) -> impl FnMut(usize, &mut [f64]) {
            move |k, f| {
                if k < 5 {
                    f[src] = 1e6 * (k as f64 + 1.0);
                }
            }
        }
        // Synthetic data from a perturbed model.
        let mut mu_true = mu0.clone();
        for (i, v) in mu_true.iter_mut().enumerate() {
            *v *= 1.0 + 0.05 * ((i % 5) as f64 / 5.0);
        }
        let data = forward(&eq, &mu_true, &mut forcing_at(src), false).traces;

        let misfit = |mu: &[f64]| -> f64 {
            let run = forward(&eq, mu, &mut forcing_at(src), false);
            let mut j = 0.0;
            for (t, d) in run.traces.iter().zip(&data) {
                for (a, b) in t.iter().zip(d) {
                    j += 0.5 * (a - b) * (a - b) * eq.dt();
                }
            }
            j
        };

        // Adjoint gradient.
        let run = forward(&eq, &mu0, &mut forcing_at(src), true);
        let residuals: Vec<Vec<f64>> = run
            .traces
            .iter()
            .zip(&data)
            .map(|(t, d)| t.iter().zip(d).map(|(a, b)| a - b).collect())
            .collect();
        let mut lambda = Vec::new();
        adjoint(&eq, &mu0, &residuals, &mut lambda);
        let g = material_gradient(&eq, &run.states, &lambda);

        // Check several elements against central differences.
        let j0 = misfit(&mu0);
        assert!(j0 > 0.0);
        for &e in &[0usize, ne / 2, ne - 1, 13 % ne] {
            let eps = mu0[e] * 1e-6;
            let mut mp = mu0.clone();
            mp[e] += eps;
            let mut mm = mu0.clone();
            mm[e] -= eps;
            let fd = (misfit(&mp) - misfit(&mm)) / (2.0 * eps);
            let rel = (g[e] - fd).abs() / (1.0 + fd.abs().max(g[e].abs()));
            assert!(rel < 1e-5, "element {e}: adjoint {} vs fd {fd} (rel {rel})", g[e]);
        }
    }
}
