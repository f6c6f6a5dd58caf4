//! Source inversion (Fig 3.3): recover the fault's delay-time `T(s)`,
//! rise-time `t0(s)` and dislocation-amplitude `u0(s)` fields.
//!
//! The material model is known; the unknowns parameterize the forcing, so
//! the reduced gradient is `dJ/dtheta_j = -dt^2 sum_k lambda_{k+1}^T
//! df_k/dtheta_j` with the same adjoint field as the material problem, and
//! every Gauss-Newton Hessian product is one incremental forward (forcing
//! `df/dtheta . v`) plus one incremental adjoint. Tikhonov terms
//! (`beta_2 |grad u0|^2 + beta_3 |grad t0|^2 + beta_4 |grad T|^2`) penalize
//! oscillation along the fault. The unknowns are one flat vector
//! `[T; t0; u0]` of `3 * n_segments` values, solved by the same
//! Gauss-Newton loop as the material problem ([`crate::gncg`]).

use crate::gncg::{gauss_newton, GnConfig, GnProblem, GnStats, Linearization};
use crate::misfit::{misfit_value, residuals};
use crate::regularization::TikhonovReg;
use quake_antiplane::{FaultSource, ShSolver};
use quake_model::SlipFunction;
use quake_solver::wave::{adjoint, forward, ScalarWaveEq};
use quake_telemetry::Registry;

/// Configuration of the source inversion.
#[derive(Clone, Debug)]
pub struct SourceInversionConfig {
    pub gn: GnConfig,
    /// Tikhonov weights for (delay, rise, amplitude) — beta_4, beta_3,
    /// beta_2 in the paper's numbering.
    pub beta_delay: f64,
    pub beta_rise: f64,
    pub beta_amplitude: f64,
    /// Lower bounds keeping the parameters physical.
    pub min_rise: f64,
    pub min_amplitude: f64,
}

impl Default for SourceInversionConfig {
    fn default() -> Self {
        SourceInversionConfig {
            gn: GnConfig { max_gn_iters: 25, grad_tol: 1e-4, ..GnConfig::default() },
            beta_delay: 1e-3,
            beta_rise: 1e-3,
            beta_amplitude: 1e-3,
            min_rise: 0.05,
            min_amplitude: 0.0,
        }
    }
}

/// Result: the three recovered fields plus selected iterates (for the
/// initial / 5th / converged columns of Fig 3.3).
#[derive(Clone, Debug)]
pub struct SourceInversionResult {
    pub delays: Vec<f64>,
    pub rises: Vec<f64>,
    pub amplitudes: Vec<f64>,
    pub stats: GnStats,
    /// `(iteration, delays, rises, amplitudes)` snapshots.
    pub iterates: Vec<(usize, Vec<f64>, Vec<f64>, Vec<f64>)>,
}

/// The `(delays, rises, amplitudes)` thirds of a flat parameter vector.
fn split(x: &[f64]) -> (&[f64], &[f64], &[f64]) {
    let ns = x.len() / 3;
    (&x[..ns], &x[ns..2 * ns], &x[2 * ns..])
}

fn fault_with(template: &FaultSource, x: &[f64]) -> FaultSource {
    let (delays, rises, amps) = split(x);
    let mut f = template.clone();
    f.params = delays
        .iter()
        .zip(rises)
        .zip(amps)
        .map(|((&d, &r), &a)| SlipFunction::new(d, r, a))
        .collect();
    f
}

/// Reduced gradient assembly: `-dt^2 sum_k lambda_{k+1}^T df_k/dtheta`.
fn assemble_source_gradient(eq: &ShSolver, fault: &FaultSource, lambda: &[Vec<f64>]) -> Vec<f64> {
    let ns = fault.n_segments();
    let dt = eq.dt();
    let dt2 = dt * dt;
    let mut g = vec![0.0; 3 * ns];
    for k in 0..eq.n_steps() {
        let t = k as f64 * dt;
        let lam = &lambda[k + 1];
        for (j, (w, p)) in fault.seg_weights.iter().zip(&fault.params).enumerate() {
            let lamw: f64 = w.iter().map(|&(nd, wt)| wt * lam[nd]).sum();
            if lamw == 0.0 {
                continue;
            }
            g[j] -= dt2 * p.dg_d_delay(t) * lamw;
            g[ns + j] -= dt2 * p.dg_d_rise(t) * lamw;
            g[2 * ns + j] -= dt2 * p.dg_d_amplitude(t) * lamw;
        }
    }
    g
}

/// The source problem: `J(x) = J_d(x) + (R_delay + R_rise + R_amplitude)`
/// over `x = [T; t0; u0]`, infeasible below the rise and amplitude bounds.
pub(crate) struct SourceProblem<'a> {
    eq: &'a ShSolver,
    template: &'a FaultSource,
    mu: &'a [f64],
    data: &'a [Vec<f64>],
    /// Tikhonov terms for (delay, rise, amplitude).
    regs: [TikhonovReg; 3],
    min_rise: f64,
    min_amplitude: f64,
    /// The adjoint history, reused by every adjoint solve.
    lambda: Vec<Vec<f64>>,
}

impl<'a> SourceProblem<'a> {
    pub(crate) fn new(
        eq: &'a ShSolver,
        template: &'a FaultSource,
        mu: &'a [f64],
        data: &'a [Vec<f64>],
        cfg: &SourceInversionConfig,
    ) -> SourceProblem<'a> {
        for (name, v) in [
            ("beta_delay", cfg.beta_delay),
            ("beta_rise", cfg.beta_rise),
            ("beta_amplitude", cfg.beta_amplitude),
        ] {
            let ok = v.is_finite() && v >= 0.0;
            assert!(ok, "SourceInversionConfig::{name} must be finite and >= 0, got {v}");
        }
        for (name, v) in [("min_rise", cfg.min_rise), ("min_amplitude", cfg.min_amplitude)] {
            assert!(v.is_finite(), "SourceInversionConfig::{name} must be finite, got {v}");
        }
        let ns = template.n_segments();
        let reg = |beta| TikhonovReg { dims: [ns, 1, 1], spacing: [eq.cfg.h, 1.0, 1.0], beta };
        SourceProblem {
            eq,
            template,
            mu,
            data,
            regs: [reg(cfg.beta_delay), reg(cfg.beta_rise), reg(cfg.beta_amplitude)],
            min_rise: cfg.min_rise,
            min_amplitude: cfg.min_amplitude,
            lambda: Vec::new(),
        }
    }

    /// The Tikhonov sum, `+inf` outside the bounds.
    fn reg_value(&self, x: &[f64]) -> f64 {
        let (delays, rises, amps) = split(x);
        if rises.iter().any(|&r| r < self.min_rise) || amps.iter().any(|&a| a < self.min_amplitude)
        {
            return f64::INFINITY;
        }
        let [rd, rr, ra] = &self.regs;
        rd.value(delays) + rr.value(rises) + ra.value(amps)
    }

    fn traces(&self, fault: &FaultSource) -> Vec<Vec<f64>> {
        let dt = self.eq.dt();
        forward(self.eq, self.mu, &mut |k, f| fault.add_force(k as f64 * dt, f), false).traces
    }
}

impl GnProblem for SourceProblem<'_> {
    /// The iterate's fault and its receiver traces.
    type State = (FaultSource, Vec<Vec<f64>>);

    fn objective(&self, x: &[f64]) -> f64 {
        let rv = self.reg_value(x);
        if !rv.is_finite() {
            return f64::INFINITY;
        }
        let traces = self.traces(&fault_with(self.template, x));
        misfit_value(&traces, self.data, self.eq.dt()) + rv
    }

    fn forward(&self, x: &[f64]) -> Self::State {
        let fault = fault_with(self.template, x);
        let traces = self.traces(&fault);
        (fault, traces)
    }

    fn linearize(&mut self, x: &[f64], (fault, traces): &Self::State) -> Linearization {
        let jd = misfit_value(traces, self.data, self.eq.dt());
        let rv = self.reg_value(x);
        adjoint(self.eq, self.mu, &residuals(traces, self.data), &mut self.lambda);
        let mut g = assemble_source_gradient(self.eq, fault, &self.lambda);
        let ns = fault.n_segments();
        for ((r, xi), gi) in self.regs.iter().zip(x.chunks(ns)).zip(g.chunks_mut(ns)) {
            r.gradient(xi, gi);
        }
        Linearization { misfit: jd, objective: jd + rv, terms: vec![("tikhonov", rv)], gradient: g }
    }

    fn hess(&mut self, _x: &[f64], (fault, _): &Self::State, v: &[f64]) -> Vec<f64> {
        let (dd, dr, da) = split(v);
        let dt = self.eq.dt();
        let force = &mut |k, f: &mut [f64]| fault.add_force_direction(dd, dr, da, k as f64 * dt, f);
        let inc = forward(self.eq, self.mu, force, false);
        adjoint(self.eq, self.mu, &inc.traces, &mut self.lambda);
        let mut hv = assemble_source_gradient(self.eq, fault, &self.lambda);
        let ns = fault.n_segments();
        for ((r, vi), hi) in self.regs.iter().zip(v.chunks(ns)).zip(hv.chunks_mut(ns)) {
            r.hess_apply(vi, hi);
        }
        hv
    }
}

/// Invert for the source parameter fields along the fault.
pub fn invert_source(
    eq: &ShSolver,
    template: &FaultSource,
    mu: &[f64],
    data: &[Vec<f64>],
    initial: (&[f64], &[f64], &[f64]),
    cfg: &SourceInversionConfig,
) -> SourceInversionResult {
    let ns = template.n_segments();
    assert_eq!(initial.0.len(), ns);
    assert_eq!(initial.1.len(), ns);
    assert_eq!(initial.2.len(), ns);
    let mut p = SourceProblem::new(eq, template, mu, data, cfg);
    let x0 = [initial.0, initial.1, initial.2].concat();
    let snapshot = |it: usize, x: &[f64]| {
        let (d, r, a) = split(x);
        (it, d.to_vec(), r.to_vec(), a.to_vec())
    };
    let mut iterates = vec![snapshot(0, &x0)];
    let reg = Registry::disabled();
    let on_step = &mut |it: usize, x: &[f64]| iterates.push(snapshot(it, x));
    let (x, stats) = gauss_newton(&mut p, &cfg.gn, x0, &reg, on_step);
    let (_, delays, rises, amplitudes) = snapshot(0, &x);
    SourceInversionResult { delays, rises, amplitudes, stats, iterates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gncg::tests::{
        assert_hessian_symmetric_psd, assert_v_curve, hessian_fd_errors, lcg,
    };
    use quake_antiplane::ShConfig;

    fn setup() -> (ShSolver, Vec<f64>, FaultSource) {
        let s = ShSolver::new(&ShConfig {
            nx: 20,
            nz: 12,
            h: 500.0,
            rho: 2200.0,
            dt: 0.04,
            n_steps: 250,
            receivers: vec![],
            mu_background: 2200.0 * 2000.0 * 2000.0,
            absorbing: [true; 3],
        })
        .with_surface_receivers(16);
        let mu = vec![2200.0 * 2000.0 * 2000.0; quake_solver::wave::ScalarWaveEq::n_elements(&s)];
        // Rise times must be resolvable by the grid's usable bandwidth
        // (~0.4 Hz here), so the target uses 1.5 s.
        let fault = FaultSource::from_hypocenter(&s, &mu, 10, 3, 8, 5, 2800.0, 1.5, 1.0);
        (s, mu, fault)
    }

    #[test]
    fn source_gradient_matches_finite_differences() {
        let (s, mu, template) = setup();
        let ns = template.n_segments();
        // Target data from the template's own parameters.
        let data =
            forward(&s, &mu, &mut |k, f| template.add_force(k as f64 * s.dt(), f), false).traces;
        // Evaluate the gradient at a perturbed point.
        let flat: Vec<f64> = (template.params.iter().map(|p| p.delay + 0.13))
            .chain(template.params.iter().map(|p| p.rise + 0.07))
            .chain(template.params.iter().map(|p| p.amplitude * 1.1))
            .collect();
        let fault = fault_with(&template, &flat);
        let run = forward(&s, &mu, &mut |k, f| fault.add_force(k as f64 * s.dt(), f), false);
        let res = residuals(&run.traces, &data);
        let mut lambda = Vec::new();
        adjoint(&s, &mu, &res, &mut lambda);
        let g = assemble_source_gradient(&s, &fault, &lambda);

        let misfit_of = |flat: &[f64]| -> f64 {
            let fault = fault_with(&template, flat);
            let run = forward(&s, &mu, &mut |k, f| fault.add_force(k as f64 * s.dt(), f), false);
            misfit_value(&run.traces, &data, s.dt())
        };
        for &i in &[0usize, ns / 2, ns, ns + 2, 2 * ns, 3 * ns - 1] {
            let eps = 1e-5;
            let mut p = flat.clone();
            p[i] += eps;
            let mut m = flat.clone();
            m[i] -= eps;
            let fd = (misfit_of(&p) - misfit_of(&m)) / (2.0 * eps);
            let rel = (g[i] - fd).abs() / (1.0 + fd.abs().max(g[i].abs()));
            assert!(rel < 2e-3, "theta[{i}]: adjoint {} vs fd {fd} ({rel})", g[i]);
        }
    }

    #[test]
    fn recovers_target_source() {
        let (s, mu, template) = setup();
        let data =
            forward(&s, &mu, &mut |k, f| template.add_force(k as f64 * s.dt(), f), false).traces;
        let ns = template.n_segments();
        // Start from a wrong guess: constant delay, slower rise, weaker slip.
        let d0 = vec![0.5; ns];
        let r0 = vec![2.5; ns];
        let a0 = vec![0.7; ns];
        let cfg = SourceInversionConfig {
            gn: GnConfig { max_gn_iters: 40, grad_tol: 1e-8, ..GnConfig::default() },
            beta_delay: 1e-6,
            beta_rise: 1e-6,
            beta_amplitude: 1e-6,
            ..SourceInversionConfig::default()
        };
        let out = invert_source(&s, &template, &mu, &data, (&d0, &r0, &a0), &cfg);
        let j0 = out.stats.misfit_history[0];
        let jn = *out.stats.misfit_history.last().unwrap();
        assert!(jn < 1e-5 * j0, "misfit {j0} -> {jn}");
        for (j, p) in template.params.iter().enumerate() {
            assert!(
                (out.delays[j] - p.delay).abs() < 0.03,
                "delay {j}: {} vs {}",
                out.delays[j],
                p.delay
            );
            assert!(
                (out.rises[j] - p.rise).abs() < 0.05,
                "rise {j}: {} vs {}",
                out.rises[j],
                p.rise
            );
            assert!(
                (out.amplitudes[j] - p.amplitude).abs() < 0.1,
                "amp {j}: {} vs {}",
                out.amplitudes[j],
                p.amplitude
            );
        }
        // Iterate history is recorded for the Fig 3.3 reproduction.
        assert!(out.iterates.len() >= 3);
        assert_eq!(out.iterates[0].0, 0);
    }

    /// The template's parameters as one flat `[T; t0; u0]` vector.
    fn flat(fault: &FaultSource) -> Vec<f64> {
        let p = &fault.params;
        let (d, r, a) =
            (p.iter().map(|p| p.delay), p.iter().map(|p| p.rise), p.iter().map(|p| p.amplitude));
        d.chain(r).chain(a).collect()
    }

    #[test]
    fn source_gn_hessian_is_symmetric_psd() {
        let (s, mu, template) = setup();
        let data =
            forward(&s, &mu, &mut |k, f| template.add_force(k as f64 * s.dt(), f), false).traces;
        let mut p =
            SourceProblem::new(&s, &template, &mu, &data, &SourceInversionConfig::default());
        let x: Vec<f64> = flat(&template)
            .iter()
            .zip(lcg(3, 3 * template.n_segments()))
            .map(|(x, r)| x + 0.2 * r)
            .collect();
        let n = x.len();
        let ab = lcg(77, 2 * n);
        assert_hessian_symmetric_psd(&mut p, &x, &ab[..n], &ab[n..]);
    }

    #[test]
    fn source_gn_hessian_matches_finite_differences_of_the_gradient() {
        // At the target with zero Tikhonov weights the residual vanishes:
        // the Gauss-Newton Hessian is the exact Hessian of the objective.
        let (s, mu, template) = setup();
        let data =
            forward(&s, &mu, &mut |k, f| template.add_force(k as f64 * s.dt(), f), false).traces;
        let cfg = SourceInversionConfig {
            beta_delay: 0.0,
            beta_rise: 0.0,
            beta_amplitude: 0.0,
            ..SourceInversionConfig::default()
        };
        let mut p = SourceProblem::new(&s, &template, &mu, &data, &cfg);
        let x = flat(&template);
        let errs = hessian_fd_errors(&mut p, &x, &lcg(9, x.len()));
        // Best error measured at commit 5a2c39d: 9.796e-9 at eps = 1e-7 |x|/|v|.
        assert_v_curve(&errs, 9.796e-9);
    }
}
