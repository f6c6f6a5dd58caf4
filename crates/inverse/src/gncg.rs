//! The Gauss-Newton-Krylov outer iteration, and the material problem.
//!
//! Both inverse problems of Section 3 — the shear modulus here, the fault's
//! source parameters in [`crate::source`] — run the one loop
//! `gauss_newton`: relative gradient stop test, `H dx = -g` by
//! preconditioned CG, Armijo backtracking along the Gauss-Newton direction
//! and then along steepest descent. A `GnProblem` supplies the objective,
//! the linearization at an iterate and the Hessian-vector product, each
//! product one *incremental forward* plus one *incremental adjoint* solve —
//! the paper's "each CG iteration requires one forward and one adjoint wave
//! propagation solution". The preconditioner is a Morales-Nocedal L-BFGS
//! operator built from the *secant pairs `(p, Hp)` that CG itself produces*,
//! reused across Gauss-Newton iterations. The loop also emits the `gn_iter`
//! events and `gn/*` spans.
//!
//! For the material problem `H = P^T G^T W G P + beta TV'' + barrier''` is
//! symmetric positive definite with appropriate regularization, so CG
//! applies; a logarithmic barrier keeps the moduli positive (Section 3.1).

use crate::matmap::MaterialMap;
use crate::misfit::{misfit_value, residuals};
use crate::regularization::TvReg;
use quake_solver::wave::{adjoint, forward, material_gradient, ScalarWaveEq, WaveRun};
use quake_telemetry::Registry;
use std::collections::VecDeque;

/// Gauss-Newton configuration.
#[derive(Clone, Debug)]
pub struct GnConfig {
    pub max_gn_iters: usize,
    pub max_cg_iters: usize,
    /// Relative CG tolerance (the "forcing term" eta).
    pub cg_tol: f64,
    /// Stop when `||g|| <= grad_tol * ||g_0||`.
    pub grad_tol: f64,
    /// Stop when the data misfit falls below this (exact-fit problems).
    pub misfit_tol: f64,
    pub armijo_c1: f64,
    pub max_linesearch: usize,
    /// L-BFGS preconditioner memory (0 disables preconditioning).
    pub lbfgs_memory: usize,
    /// Log-barrier `(m_min, relative_weight)` enforcing `m > m_min`. The
    /// effective weight is `relative_weight * J_data(m_0)`, making the
    /// setting unit-free (the misfit and the moduli live on wildly
    /// different scales).
    pub barrier: Option<(f64, f64)>,
}

impl Default for GnConfig {
    fn default() -> Self {
        GnConfig {
            max_gn_iters: 30,
            max_cg_iters: 60,
            cg_tol: 0.1,
            grad_tol: 1e-3,
            misfit_tol: 0.0,
            armijo_c1: 1e-4,
            max_linesearch: 25,
            lbfgs_memory: 10,
            barrier: None,
        }
    }
}

/// Convergence record of one inversion (feeds Table 3.1).
#[derive(Clone, Debug, Default)]
pub struct GnStats {
    pub gn_iters: usize,
    pub cg_iters_total: usize,
    pub cg_iters_per_gn: Vec<usize>,
    pub objective_history: Vec<f64>,
    pub misfit_history: Vec<f64>,
    pub grad_norms: Vec<f64>,
    pub converged: bool,
}

/// Limited-memory BFGS operator from secant pairs, applied via the two-loop
/// recursion (Morales & Nocedal's automatic preconditioner).
#[derive(Clone, Debug, Default)]
pub struct Lbfgs {
    pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)>,
    memory: usize,
}

impl Lbfgs {
    pub fn new(memory: usize) -> Lbfgs {
        Lbfgs { pairs: VecDeque::new(), memory }
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Record a secant pair `(s, y = H s)`; skipped unless `s.y > 0`.
    pub fn push(&mut self, s: Vec<f64>, y: Vec<f64>) {
        if self.memory == 0 {
            return;
        }
        let sy: f64 = s.iter().zip(&y).map(|(a, b)| a * b).sum();
        if sy <= 0.0 || !sy.is_finite() {
            return;
        }
        if self.pairs.len() == self.memory {
            self.pairs.pop_front();
        }
        self.pairs.push_back((s, y, 1.0 / sy));
    }

    /// `H^{-1} r` approximation by the two-loop recursion.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut q = r.to_vec();
        if self.pairs.is_empty() {
            return q;
        }
        let mut alphas = vec![0.0; self.pairs.len()];
        for (i, (s, y, rho)) in self.pairs.iter().enumerate().rev() {
            let a = rho * s.iter().zip(&q).map(|(x, z)| x * z).sum::<f64>();
            alphas[i] = a;
            for (qi, yi) in q.iter_mut().zip(y) {
                *qi -= a * yi;
            }
        }
        // H0 = gamma I from the newest pair.
        let (s, y, _) = self.pairs.back().unwrap();
        let sy: f64 = s.iter().zip(y).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|v| v * v).sum();
        let gamma = if yy > 0.0 { sy / yy } else { 1.0 };
        for qi in q.iter_mut() {
            *qi *= gamma;
        }
        for (i, (s, y, rho)) in self.pairs.iter().enumerate() {
            let b = rho * y.iter().zip(&q).map(|(x, z)| x * z).sum::<f64>();
            for (qi, si) in q.iter_mut().zip(s) {
                *qi += (alphas[i] - b) * si;
            }
        }
        q
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Preconditioned CG on `H x = b`; returns `(x, iterations)` and pushes the
/// secant pairs it generates into `precond_next`.
pub fn pcg(
    hess: &mut dyn FnMut(&[f64]) -> Vec<f64>,
    b: &[f64],
    rel_tol: f64,
    max_iters: usize,
    precond: &Lbfgs,
    precond_next: &mut Lbfgs,
) -> (Vec<f64>, usize) {
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let b_norm = dot(b, b).sqrt();
    if b_norm == 0.0 {
        return (x, 0);
    }
    let mut z = precond.apply(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut iters = 0;
    for _ in 0..max_iters {
        let q = hess(&p);
        iters += 1;
        let pq = dot(&p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            // Negative curvature or breakdown: keep what we have (fall back
            // to the preconditioned steepest-descent direction at start).
            if iters == 1 {
                x = z.clone();
            }
            break;
        }
        precond_next.push(p.clone(), q.clone());
        let alpha = rz / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        if dot(&r, &r).sqrt() <= rel_tol * b_norm {
            break;
        }
        z = precond.apply(&r);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    (x, iters)
}

/// A problem at one iterate: what the loop records and descends along.
pub(crate) struct Linearization {
    /// Data misfit `J_d(x)`.
    pub misfit: f64,
    /// Full objective, summed in the problem's own order.
    pub objective: f64,
    /// Regularization terms of the objective, named for the `gn_iter` event.
    pub terms: Vec<(&'static str, f64)>,
    pub gradient: Vec<f64>,
}

/// One inverse problem as the Gauss-Newton loop sees it.
pub(crate) trait GnProblem {
    /// The forward solve at an iterate, kept for its gradient and Hessian
    /// products.
    type State;
    /// The objective the line search evaluates (`+inf` when infeasible).
    fn objective(&self, x: &[f64]) -> f64;
    /// First half of the linearization at `x`: the forward solve.
    fn forward(&self, x: &[f64]) -> Self::State;
    /// Second half: misfit, objective terms and the adjoint gradient.
    /// Takes `&mut self` so a problem can keep its adjoint history between
    /// solves.
    fn linearize(&mut self, x: &[f64], state: &Self::State) -> Linearization;
    /// The Gauss-Newton Hessian-vector product at `x`.
    fn hess(&mut self, x: &[f64], state: &Self::State, v: &[f64]) -> Vec<f64>;
}

fn gn_event(reg: &Registry, it: usize, lin: &Linearization, g_norm: f64, step: [f64; 4]) {
    let mut fields = vec![
        ("iter", it as f64),
        ("misfit", lin.misfit),
        ("objective", lin.objective),
        ("grad_norm", g_norm),
    ];
    fields.extend_from_slice(&lin.terms);
    fields.extend(["cg_iters", "alpha", "dir", "converged"].into_iter().zip(step));
    reg.event("gn_iter", &fields);
}

/// The Gauss-Newton-CG outer iteration from `x0` until convergence,
/// `cfg.max_gn_iters`, or a failed line search. `on_step(it + 1, x)` sees
/// the iterate after every line search, accepted or not.
pub(crate) fn gauss_newton<P: GnProblem>(
    p: &mut P,
    cfg: &GnConfig,
    x0: Vec<f64>,
    reg: &Registry,
    on_step: &mut dyn FnMut(usize, &[f64]),
) -> (Vec<f64>, GnStats) {
    // Every comparison below is false on NaN: a bad setting would stop the
    // iteration at its first iterate, or never, without an error.
    let (m_min, w) = cfg.barrier.unwrap_or((0.0, 0.0));
    let c = [("cg_tol", cfg.cg_tol), ("grad_tol", cfg.grad_tol), ("misfit_tol", cfg.misfit_tol)];
    for (name, v) in c.into_iter().chain([("barrier weight", w)]) {
        assert!(v.is_finite() && v >= 0.0, "GnConfig::{name} must be finite and >= 0, got {v}");
    }
    assert!(m_min.is_finite(), "GnConfig::barrier bound must be finite, got {m_min}");
    let c1 = cfg.armijo_c1;
    assert!(c1 > 0.0 && c1 < 1.0, "GnConfig::armijo_c1 must lie in (0, 1), got {c1}");
    assert!(cfg.max_linesearch >= 1, "GnConfig::max_linesearch must be >= 1");
    let mut x = x0;
    let mut stats = GnStats::default();
    let mut g0_norm = None;
    let mut precond = Lbfgs::new(cfg.lbfgs_memory);

    for it in 0..cfg.max_gn_iters {
        let state = {
            let _s = reg.span("gn/forward");
            p.forward(&x)
        };
        let lin = {
            let _s = reg.span("gn/adjoint");
            p.linearize(&x, &state)
        };
        let g = &lin.gradient;
        let g_norm = dot(g, g).sqrt();
        stats.objective_history.push(lin.objective);
        stats.misfit_history.push(lin.misfit);
        stats.grad_norms.push(g_norm);
        let g0 = *g0_norm.get_or_insert(g_norm);
        if g_norm <= cfg.grad_tol * g0.max(1e-300) || lin.misfit <= cfg.misfit_tol {
            stats.converged = true;
            gn_event(reg, it, &lin, g_norm, [0.0, 0.0, -1.0, 1.0]);
            break;
        }
        stats.gn_iters += 1;

        let minus_g: Vec<f64> = g.iter().map(|v| -v).collect();
        let mut precond_next = Lbfgs::new(cfg.lbfgs_memory);
        let (dx, cg_iters) = {
            let _s = reg.span("gn/cg");
            let mut hess = |v: &[f64]| p.hess(&x, &state, v);
            pcg(&mut hess, &minus_g, cfg.cg_tol, cfg.max_cg_iters, &precond, &mut precond_next)
        };
        if !precond_next.is_empty() {
            precond = precond_next;
        }
        stats.cg_iters_per_gn.push(cg_iters);
        stats.cg_iters_total += cg_iters;

        // Armijo backtracking along the GN direction, retrying along
        // steepest descent if that fails (nonsmooth kinks of the slip ramp
        // or a poor GN model can spoil the CG direction); a direction that
        // does not descend is skipped.
        let mut step = None; // (alpha, direction: 0 = Gauss-Newton, 1 = steepest descent)
        {
            let _s = reg.span("gn/linesearch");
            'directions: for (di, dir) in [&dx, &minus_g].into_iter().enumerate() {
                let slope = dot(g, dir);
                if slope >= 0.0 {
                    continue;
                }
                let mut alpha = 1.0;
                for _ in 0..cfg.max_linesearch {
                    let trial: Vec<f64> =
                        x.iter().zip(dir.iter()).map(|(a, b)| a + alpha * b).collect();
                    if p.objective(&trial) <= lin.objective + cfg.armijo_c1 * alpha * slope {
                        x = trial;
                        step = Some((alpha, di as f64));
                        break 'directions;
                    }
                    alpha *= 0.5;
                }
            }
        }
        let (alpha, dir) = step.unwrap_or((0.0, -1.0));
        gn_event(reg, it, &lin, g_norm, [cg_iters as f64, alpha, dir, 0.0]);
        on_step(it + 1, &x);
        if step.is_none() {
            // Stuck: can't descend along any available direction.
            break;
        }
    }
    (x, stats)
}

// `barrier = (m_min, wn)`, the weight `wn` per parameter (a density
// functional): without the 1/n factor its Hessian floor would grow with the
// inversion grid and spoil the mesh independence of the CG iteration counts
// (Table 3.1).
fn barrier_value(m: &[f64], barrier: Option<(f64, f64)>) -> f64 {
    let Some((m_min, wn)) = barrier else { return 0.0 };
    let mut acc = 0.0;
    for &v in m {
        if v <= m_min {
            return f64::INFINITY;
        }
        acc -= (v - m_min).ln();
    }
    wn * acc
}

fn barrier_gradient(m: &[f64], barrier: Option<(f64, f64)>, g: &mut [f64]) {
    let Some((m_min, wn)) = barrier else { return };
    for (gi, &v) in g.iter_mut().zip(m) {
        *gi -= wn / (v - m_min);
    }
}

fn barrier_hess(m: &[f64], barrier: Option<(f64, f64)>, v: &[f64], out: &mut [f64]) {
    let Some((m_min, wn)) = barrier else { return };
    for ((oi, &mi), &vi) in out.iter_mut().zip(m).zip(v) {
        *oi += wn / ((mi - m_min) * (mi - m_min)) * vi;
    }
}

/// The material problem: `J(m) = J_d(m) + TV(m) + barrier(m)` on the
/// inversion grid, the moduli reaching the wave grid through `map`.
struct MaterialProblem<'a> {
    eq: &'a dyn ScalarWaveEq,
    forcing: &'a (dyn Fn(usize, &mut [f64]) + Sync),
    data: &'a [Vec<f64>],
    map: &'a MaterialMap,
    tv: &'a TvReg,
    /// `(m_min, weight per parameter)`, the weight scaled by `J_d(m_0)`.
    barrier: Option<(f64, f64)>,
    /// The adjoint history, reused by every adjoint solve.
    lambda: Vec<Vec<f64>>,
}

impl GnProblem for MaterialProblem<'_> {
    /// Wave-grid moduli, the stored state history, the frozen TV
    /// diffusivity.
    type State = (Vec<f64>, WaveRun, Vec<f64>);

    fn objective(&self, m: &[f64]) -> f64 {
        let bar = barrier_value(m, self.barrier);
        if !bar.is_finite() {
            return f64::INFINITY;
        }
        let mu = self.map.interpolate(m);
        if mu.iter().any(|&v| v <= 0.0) {
            return f64::INFINITY;
        }
        let run = forward(self.eq, &mu, &mut |k, f| (self.forcing)(k, f), false);
        misfit_value(&run.traces, self.data, self.eq.dt()) + self.tv.value(m) + bar
    }

    fn forward(&self, m: &[f64]) -> Self::State {
        let mu = self.map.interpolate(m);
        let run = forward(self.eq, &mu, &mut |k, f| (self.forcing)(k, f), true);
        (mu, run, self.tv.diffusivity(m))
    }

    fn linearize(&mut self, m: &[f64], (mu, run, _): &Self::State) -> Linearization {
        let jd = misfit_value(&run.traces, self.data, self.eq.dt());
        let tv = self.tv.value(m);
        let bar = barrier_value(m, self.barrier);
        adjoint(self.eq, mu, &residuals(&run.traces, self.data), &mut self.lambda);
        let ge = material_gradient(self.eq, &run.states, &self.lambda);
        let mut g = self.map.transpose_apply(&ge);
        self.tv.gradient(m, &mut g);
        barrier_gradient(m, self.barrier, &mut g);
        Linearization {
            misfit: jd,
            objective: jd + tv + bar,
            terms: vec![("tv", tv), ("barrier", bar)],
            gradient: g,
        }
    }

    fn hess(&mut self, m: &[f64], (mu, run, diffus): &Self::State, v: &[f64]) -> Vec<f64> {
        let eq = self.eq;
        let dmu = self.map.interpolate(v);
        // Incremental forward: A du_{k+1} = B du_k + C du_{k-1}
        //                      - dt^2 dK(dmu) u_k.
        let inc = forward(eq, mu, &mut |k, f| eq.apply_k(&dmu, &run.states[k], f, -1.0), false);
        // Incremental adjoint from the incremental traces.
        adjoint(eq, mu, &inc.traces, &mut self.lambda);
        let he = material_gradient(eq, &run.states, &self.lambda);
        let mut hv = self.map.transpose_apply(&he);
        self.tv.hess_apply(diffus, v, &mut hv);
        barrier_hess(m, self.barrier, v, &mut hv);
        hv
    }
}

/// Invert for the material parameter field on the inversion grid.
///
/// `forcing` is the (fixed, known for material inversion) source term;
/// `data` the observed receiver traces; `m0` the initial guess on the
/// inversion grid. Returns the recovered field and convergence statistics.
pub fn invert_material(
    eq: &dyn ScalarWaveEq,
    forcing: &(dyn Fn(usize, &mut [f64]) + Sync),
    data: &[Vec<f64>],
    map: &MaterialMap,
    tv: &TvReg,
    m0: &[f64],
    cfg: &GnConfig,
) -> (Vec<f64>, GnStats) {
    invert_material_traced(eq, forcing, data, map, tv, m0, cfg, &Registry::disabled())
}

/// [`invert_material`] with telemetry: spans around the forward, adjoint,
/// CG, and line-search stages of every Gauss-Newton iteration, plus one
/// `gn_iter` NDJSON event per outer iteration carrying the convergence
/// quantities of the paper's Fig 3.2/3.3 (misfit, objective, gradient norm,
/// TV and barrier terms, CG iterations, accepted step). A disabled registry
/// records nothing.
#[allow(clippy::too_many_arguments)]
pub fn invert_material_traced(
    eq: &dyn ScalarWaveEq,
    forcing: &(dyn Fn(usize, &mut [f64]) + Sync),
    data: &[Vec<f64>],
    map: &MaterialMap,
    tv: &TvReg,
    m0: &[f64],
    cfg: &GnConfig,
    reg: &Registry,
) -> (Vec<f64>, GnStats) {
    let (eps, beta) = (tv.eps, tv.beta);
    assert!(eps.is_finite() && eps > 0.0, "TvReg::eps must be finite and > 0, got {eps}");
    assert!(beta.is_finite() && beta >= 0.0, "TvReg::beta must be finite and >= 0, got {beta}");
    assert_eq!(m0.len(), map.n_param());
    // Scale the barrier relative to the initial data misfit so the setting
    // is unit-free.
    let run = forward(eq, &map.interpolate(m0), &mut |k, f| forcing(k, f), false);
    let jd0 = misfit_value(&run.traces, data, eq.dt());
    let n = map.n_param().max(1) as f64;
    let barrier = cfg.barrier.map(|(m_min, w)| (m_min, w * jd0.max(1e-300) / n));
    let mut p = MaterialProblem { eq, forcing, data, map, tv, barrier, lambda: Vec::new() };
    gauss_newton(&mut p, cfg, m0.to_vec(), reg, &mut |_, _| {})
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use quake_antiplane::{ShConfig, ShSolver};

    fn solver() -> ShSolver {
        ShSolver::new(&ShConfig {
            nx: 12,
            nz: 8,
            h: 500.0,
            rho: 2200.0,
            dt: 0.05,
            n_steps: 60,
            receivers: vec![],
            mu_background: 2200.0 * 2000.0 * 2000.0,
            absorbing: [true; 3],
        })
        .with_surface_receivers(8)
    }

    fn centers(s: &ShSolver) -> Vec<[f64; 3]> {
        (0..s.n_elements())
            .map(|e| {
                let c = s.elem_center(e);
                [c[0], c[1], 0.0]
            })
            .collect()
    }

    fn forcing_fn(src: usize) -> impl Fn(usize, &mut [f64]) + Sync {
        move |k: usize, f: &mut [f64]| {
            if k < 8 {
                f[src] += 1e8 * ((k as f64 + 1.0) / 8.0);
            }
        }
    }

    #[test]
    fn lbfgs_two_loop_inverts_diagonal_exactly() {
        // For a diagonal H with enough independent pairs, L-BFGS applied to
        // a vector in the span reproduces H^{-1} v.
        let diag = [2.0, 0.5, 4.0];
        let mut l = Lbfgs::new(8);
        for i in 0..3 {
            let mut s = vec![0.0; 3];
            s[i] = 1.0;
            let y: Vec<f64> = s.iter().zip(&diag).map(|(a, d)| a * d).collect();
            l.push(s, y);
        }
        let v = vec![1.0, 1.0, 1.0];
        let got = l.apply(&v);
        for (g, d) in got.iter().zip(&diag) {
            assert!((g - 1.0 / d).abs() < 1e-10, "{got:?}");
        }
    }

    #[test]
    fn pcg_solves_spd_system() {
        // H = diag + rank-1, SPD.
        let n = 12;
        let hess = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum();
            v.iter().enumerate().map(|(i, &x)| (2.0 + i as f64) * x + 0.5 * s).collect()
        };
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = hess(&x_true);
        let none = Lbfgs::new(0);
        let mut next = Lbfgs::new(0);
        let (x, iters) = pcg(&mut |v| hess(v), &b, 1e-10, 100, &none, &mut next);
        assert!(iters <= n + 2, "CG used {iters} iterations");
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// `n` values of a 64-bit LCG in `[-0.5, 0.5)`.
    pub(crate) fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut st = seed;
        (0..n)
            .map(|_| {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// `a.Hb == b.Ha` and `a.Ha >= 0` for the Hessian product the loop
    /// hands CG at `x`.
    pub(crate) fn assert_hessian_symmetric_psd<P: GnProblem>(
        p: &mut P,
        x: &[f64],
        a: &[f64],
        b: &[f64],
    ) {
        let st = p.forward(x);
        let ha = p.hess(x, &st, a);
        let hb = p.hess(x, &st, b);
        let ahb = dot(a, &hb);
        let bha = dot(b, &ha);
        assert!((ahb - bha).abs() < 1e-9 * (1.0 + ahb.abs()), "H not symmetric: {ahb} vs {bha}");
        assert!(dot(a, &ha) >= -1e-9 * dot(a, a), "H not PSD");
    }

    /// Relative error `|(g(x + eps v) - g(x - eps v)) / 2 eps - H v| / |H v|`
    /// of the Hessian product against the central difference of the
    /// production gradient, for `eps = 10^-k |x| / |v|`, `k = 1..=9`.
    pub(crate) fn hessian_fd_errors<P: GnProblem>(p: &mut P, x: &[f64], v: &[f64]) -> Vec<f64> {
        let hv = p.hess(x, &p.forward(x), v);
        let mut grad = |s: f64| {
            let xs: Vec<f64> = x.iter().zip(v).map(|(a, b)| a + s * b).collect();
            p.linearize(&xs, &p.forward(&xs)).gradient
        };
        let scale = (dot(x, x) / dot(v, v)).sqrt();
        (1..=9)
            .map(|k| {
                let eps = 10f64.powi(-k) * scale;
                let (gp, gm) = (grad(eps), grad(-eps));
                let err: Vec<f64> = (gp.iter().zip(&gm).zip(&hv))
                    .map(|((a, b), h)| (a - b) / (2.0 * eps) - h)
                    .collect();
                (dot(&err, &err) / dot(&hv, &hv)).sqrt()
            })
            .collect()
    }

    /// The V of a finite-difference check: truncation error falls with
    /// `eps`, rounding error rises, so the best `eps` lies inside the sweep;
    /// its error must be no worse than `best`.
    pub(crate) fn assert_v_curve(errs: &[f64], best: f64) {
        let (k, min) = errs.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert!(k > 0 && k + 1 < errs.len(), "no interior minimum: {errs:?}");
        assert!(min <= best, "best error {min:.2e} above {best:.2e}: {errs:?}");
    }

    #[test]
    fn gn_hessian_is_symmetric_psd() {
        let s = solver();
        let map = MaterialMap::new(&centers(&s), [6000.0, 4000.0, 1.0], [4, 3, 1]);
        let tv = TvReg { dims: [4, 3, 1], spacing: [2000.0, 2000.0, 1.0], eps: 1e3, beta: 1e-4 };
        let base = 2200.0 * 2000.0f64.powi(2);
        let m: Vec<f64> =
            (0..map.n_param()).map(|i| base * (1.0 + 0.05 * (i % 3) as f64)).collect();
        let forcing = forcing_fn(40);
        let data = vec![vec![0.0; s.n_steps()]; 8];
        let barrier = Some((0.5 * base, 1.0));
        let mut p = MaterialProblem {
            eq: &s,
            forcing: &forcing,
            data: &data,
            map: &map,
            tv: &tv,
            barrier,
            lambda: Vec::new(),
        };
        let n = map.n_param();
        let a: Vec<f64> = lcg(77, 2 * n).iter().map(|r| r * 1e9).collect();
        assert_hessian_symmetric_psd(&mut p, &m, &a[..n], &a[n..]);
    }

    #[test]
    fn gn_hessian_matches_finite_differences_of_the_gradient() {
        // Inverse crime with zero regularization: the residual vanishes at
        // the target, so the Gauss-Newton Hessian is the exact Hessian of
        // the objective whose gradient the loop descends.
        let s = solver();
        let map = MaterialMap::new(&centers(&s), [6000.0, 4000.0, 1.0], [4, 3, 1]);
        let base = 2200.0 * 2000.0f64.powi(2);
        let m_true: Vec<f64> =
            lcg(5, map.n_param()).iter().map(|r| base * (1.0 + 0.4 * r)).collect();
        let forcing = forcing_fn(40);
        let data = forward(&s, &map.interpolate(&m_true), &mut |k, f| forcing(k, f), false).traces;
        let tv = TvReg { dims: [4, 3, 1], spacing: [2000.0, 2000.0, 1.0], eps: 1.0, beta: 0.0 };
        let mut p = MaterialProblem {
            eq: &s,
            forcing: &forcing,
            data: &data,
            map: &map,
            tv: &tv,
            barrier: None,
            lambda: Vec::new(),
        };
        let errs = hessian_fd_errors(&mut p, &m_true, &lcg(9, map.n_param()));
        // Best error measured at commit 5a2c39d: 1.106e-10 at eps = 1e-6 |x|/|v|.
        assert_v_curve(&errs, 1.106e-10);
    }

    #[test]
    fn recovers_representable_target() {
        // Inverse crime on purpose: the target lives on the inversion grid,
        // so Gauss-Newton must drive the misfit (essentially) to zero and
        // recover the vertex values.
        let s = solver();
        let dims = [4, 3, 1];
        let map = MaterialMap::new(&centers(&s), [6000.0, 4000.0, 1.0], dims);
        let base = 2200.0 * 2000.0f64.powi(2);
        let mut m_true = vec![base; map.n_param()];
        m_true[5] = base * 1.25;
        m_true[6] = base * 0.8;
        let forcing = forcing_fn(40);
        let data = forward(&s, &map.interpolate(&m_true), &mut |k, f| forcing(k, f), false).traces;
        let tv =
            TvReg { dims, spacing: [2000.0, 2000.0, 1.0], eps: 0.01 * base / 2000.0, beta: 1e-26 };
        let m0 = vec![base; map.n_param()];
        let cfg = GnConfig {
            max_gn_iters: 20,
            grad_tol: 1e-5,
            barrier: Some((0.1 * base, 1e-6)),
            ..GnConfig::default()
        };
        let (m, stats) = invert_material(&s, &forcing, &data, &map, &tv, &m0, &cfg);
        assert!(stats.gn_iters >= 1);
        let j0 = stats.misfit_history[0];
        let jn = *stats.misfit_history.last().unwrap();
        assert!(jn < 1e-4 * j0, "misfit only fell {j0} -> {jn}");
        // Interior vertices recovered; edge vertices are weakly constrained.
        for &i in &[5usize, 6] {
            let rel = (m[i] - m_true[i]).abs() / m_true[i];
            assert!(rel < 0.05, "vertex {i}: {} vs {} ({rel})", m[i], m_true[i]);
        }
    }

    #[test]
    fn traced_inversion_emits_one_event_per_gn_iteration() {
        let s = solver();
        let dims = [4, 3, 1];
        let map = MaterialMap::new(&centers(&s), [6000.0, 4000.0, 1.0], dims);
        let base = 2200.0 * 2000.0f64.powi(2);
        let mut m_true = vec![base; map.n_param()];
        m_true[5] = base * 1.2;
        let forcing = forcing_fn(40);
        let data = forward(&s, &map.interpolate(&m_true), &mut |k, f| forcing(k, f), false).traces;
        let tv =
            TvReg { dims, spacing: [2000.0, 2000.0, 1.0], eps: 0.01 * base / 2000.0, beta: 1e-26 };
        let m0 = vec![base; map.n_param()];
        let cfg = GnConfig { max_gn_iters: 3, ..GnConfig::default() };

        let reg = Registry::new(0);
        let (m_traced, stats) =
            invert_material_traced(&s, &forcing, &data, &map, &tv, &m0, &cfg, &reg);

        // One gn_iter event per objective evaluation (including a converged
        // final pass, if any), each a parseable NDJSON line.
        assert_eq!(reg.n_events(), stats.objective_history.len());
        let nd = reg.ndjson();
        assert!(nd.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(nd.contains("\"event\":\"gn_iter\""));
        assert!(nd.contains("\"misfit\":"));
        assert!(nd.contains("\"cg_iters\":"));
        // The staged spans were timed as often as the stages ran.
        let fwd = reg.span_stats("gn/forward").unwrap();
        assert_eq!(fwd.count as usize, stats.objective_history.len());
        assert_eq!(reg.span_stats("gn/cg").unwrap().count as usize, stats.gn_iters);
        assert!(reg.span_stats("gn/linesearch").unwrap().total_secs() >= 0.0);

        // Tracing must not perturb the optimization.
        let (m_plain, _) = invert_material(&s, &forcing, &data, &map, &tv, &m0, &cfg);
        assert_eq!(m_traced, m_plain);
    }

    #[test]
    fn barrier_keeps_modulus_positive() {
        let m = vec![1.0, 2.0];
        assert!(barrier_value(&m, Some((0.5, 1.0))).is_finite());
        assert_eq!(barrier_value(&[0.4, 2.0], Some((0.5, 1.0))), f64::INFINITY);
        // Gradient pushes away from the bound.
        let mut g = vec![0.0; 2];
        barrier_gradient(&[0.6, 2.0], Some((0.5, 1.0)), &mut g);
        assert!(g[0] < -1.0, "barrier should push up near the bound: {g:?}");
        assert!(g[1] > -1.0);
    }
}
