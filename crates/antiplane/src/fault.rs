//! The antiplane fault dislocation source (Fig 3.1).
//!
//! The source is a dipole along a vertical fault trace `Sigma`:
//! `b = -div(mu u0 g(t; T, t0) delta(Sigma) n)`. In weak form every fault
//! segment contributes nodal forces `mu u0 g(t) int_seg dN/dx dz`, which for
//! bilinear quads reduces to the classic antiplane double-couple stencil:
//! equal and opposite force columns one element either side of the trace.
//!
//! Every segment carries its own `(T, t0, u0)` (the fields the source
//! inversion of Fig 3.3 recovers), and the force derivatives with respect to
//! each are analytic — inherited from `quake_model::SlipFunction`.

use crate::grid::ShSolver;
use quake_model::SlipFunction;
use quake_solver::wave::ScalarWaveEq;

/// A discretized fault: one segment per element row along a vertical trace.
#[derive(Clone, Debug)]
pub struct FaultSource {
    /// Unit-slip nodal weights per segment (`g = 1`).
    pub seg_weights: Vec<Vec<(usize, f64)>>,
    /// Per-segment slip parameters.
    pub params: Vec<SlipFunction>,
    /// Segment center depths (m), for reporting against Fig 3.3.
    pub centers_z: Vec<f64>,
}

impl FaultSource {
    /// Build a fault along the grid line `x = i_fault * h`, spanning element
    /// rows `k_top..k_bot`, with per-segment parameters. `mu0` is the frozen
    /// modulus used in the dipole strength (kept independent of the inverted
    /// field so the discrete material gradient stays exact; see DESIGN.md).
    pub fn new(
        grid: &ShSolver,
        mu0: &[f64],
        i_fault: usize,
        k_top: usize,
        k_bot: usize,
        params: Vec<SlipFunction>,
    ) -> FaultSource {
        assert!(i_fault >= 1 && i_fault < grid.cfg.nx, "fault must be interior");
        assert!(k_top < k_bot && k_bot <= grid.cfg.nz);
        assert_eq!(params.len(), k_bot - k_top);
        assert_eq!(mu0.len(), grid.n_elements());
        let mut seg_weights = Vec::with_capacity(k_bot - k_top);
        let mut centers_z = Vec::with_capacity(k_bot - k_top);
        for k in k_top..k_bot {
            let mut w: Vec<(usize, f64)> = Vec::with_capacity(8);
            // Left and right adjacent elements, each weighted 1/2 (the
            // dipole line sits on their shared edge).
            for (ei, side) in [(grid.elem(i_fault - 1, k), 0usize), (grid.elem(i_fault, k), 1)] {
                let m = mu0[ei];
                for c in 0..4usize {
                    let gx = if c & 1 == 0 { -1.0 } else { 1.0 };
                    // int_0^1 dN/dxi0 dxi1 = gx / 2; dipole split 1/2.
                    let weight = 0.5 * m * gx * 0.5;
                    let node = grid.elem_node(ei, c);
                    let _ = side;
                    match w.iter_mut().find(|(nd, _)| *nd == node) {
                        Some((_, acc)) => *acc += weight,
                        None => w.push((node, weight)),
                    }
                }
            }
            w.retain(|(_, v)| v.abs() > 1e-300);
            seg_weights.push(w);
            centers_z.push((k as f64 + 0.5) * grid.cfg.h);
        }
        FaultSource { seg_weights, params, centers_z }
    }

    /// Uniform-slip fault with a radial rupture front from a hypocenter at
    /// element row `hypo_k` (delay = distance / rupture velocity).
    #[allow(clippy::too_many_arguments)]
    pub fn from_hypocenter(
        grid: &ShSolver,
        mu0: &[f64],
        i_fault: usize,
        k_top: usize,
        k_bot: usize,
        hypo_k: usize,
        rupture_velocity: f64,
        rise: f64,
        slip: f64,
    ) -> FaultSource {
        assert!(rupture_velocity > 0.0);
        let params = (k_top..k_bot)
            .map(|k| {
                let dist = (k as f64 - hypo_k as f64).abs() * grid.cfg.h;
                SlipFunction::new(dist / rupture_velocity, rise, slip)
            })
            .collect();
        FaultSource::new(grid, mu0, i_fault, k_top, k_bot, params)
    }

    pub fn n_segments(&self) -> usize {
        self.params.len()
    }

    /// Accumulate the source force at time `t`.
    pub fn add_force(&self, t: f64, f: &mut [f64]) {
        for (w, p) in self.seg_weights.iter().zip(&self.params) {
            let g = p.g(t);
            if g == 0.0 {
                continue;
            }
            for &(nd, wt) in w {
                f[nd] += wt * g;
            }
        }
    }

    /// Accumulate the directional force derivative `sum_j (dT_j df/dT_j +
    /// dt0_j df/dt0_j + du0_j df/du0_j)` — the Jacobian-vector product the
    /// Gauss-Newton source inversion needs.
    pub fn add_force_direction(
        &self,
        d_delay: &[f64],
        d_rise: &[f64],
        d_amp: &[f64],
        t: f64,
        f: &mut [f64],
    ) {
        let ns = self.n_segments();
        assert_eq!(d_delay.len(), ns);
        assert_eq!(d_rise.len(), ns);
        assert_eq!(d_amp.len(), ns);
        for (j, (w, p)) in self.seg_weights.iter().zip(&self.params).enumerate() {
            let dg = d_delay[j] * p.dg_d_delay(t)
                + d_rise[j] * p.dg_d_rise(t)
                + d_amp[j] * p.dg_d_amplitude(t);
            if dg == 0.0 {
                continue;
            }
            for &(nd, wt) in w {
                f[nd] += wt * dg;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ShConfig;
    use quake_solver::wave::{forward, ScalarWaveEq};

    fn solver() -> ShSolver {
        ShSolver::new(&ShConfig {
            nx: 20,
            nz: 14,
            h: 500.0,
            rho: 2200.0,
            dt: 0.04,
            n_steps: 100,
            receivers: vec![],
            mu_background: 2200.0 * 2000.0 * 2000.0,
            absorbing: [true; 3],
        })
    }

    fn uniform_mu(s: &ShSolver) -> Vec<f64> {
        vec![2200.0 * 2000.0 * 2000.0; s.n_elements()]
    }

    #[test]
    fn dipole_has_zero_net_force_and_correct_moment() {
        let s = solver();
        let mu = uniform_mu(&s);
        let fs = FaultSource::from_hypocenter(&s, &mu, 10, 4, 8, 6, 2800.0, 0.5, 1.0);
        let mut f = vec![0.0; s.n_nodes()];
        fs.add_force(100.0, &mut f); // fully ramped
        let net: f64 = f.iter().sum();
        assert!(net.abs() < 1e-6, "net force {net}");
        // Moment about the fault: sum f_i * (x_i - x_f) = mu * u0 * length.
        let mut moment = 0.0;
        for (i, &fi) in f.iter().enumerate() {
            let ix = i % (s.cfg.nx + 1);
            let x = ix as f64 * s.cfg.h;
            moment += fi * (x - 10.0 * s.cfg.h);
        }
        let expect = mu[0] * 1.0 * (4.0 * s.cfg.h);
        assert!((moment - expect).abs() < 1e-6 * expect, "moment {moment} vs {expect}");
    }

    #[test]
    fn radiated_field_is_antisymmetric_about_fault() {
        let s = solver();
        let mu = uniform_mu(&s);
        let fs = FaultSource::from_hypocenter(&s, &mu, 10, 4, 8, 6, 2800.0, 0.5, 1.0);
        let run = forward(&s, &mu, &mut |k, f| fs.add_force(k as f64 * s.cfg.dt, f), true);
        let u = &run.states[60];
        for k in 0..=s.cfg.nz {
            for d in 1..6 {
                let l = u[s.node(10 - d, k)];
                let r = u[s.node(10 + d, k)];
                assert!(
                    (l + r).abs() < 1e-9 * (1.0 + l.abs().max(r.abs())),
                    "asymmetry at k={k}, d={d}: {l} vs {r}"
                );
            }
        }
        // On the fault line itself the displacement is zero (the FEM field
        // is the average of the two sides).
        for k in 0..=s.cfg.nz {
            assert!(u[s.node(10, k)].abs() < 1e-9);
        }
    }

    #[test]
    fn force_derivatives_match_finite_differences() {
        let s = solver();
        let mu = uniform_mu(&s);
        let mk = |dt: f64, dr: f64, da: f64| {
            let params = (4..8)
                .map(|k| SlipFunction::new(0.3 * (k - 4) as f64 + 0.1 + dt, 0.8 + dr, 1.0 + da))
                .collect();
            FaultSource::new(&s, &mu, 10, 4, 8, params)
        };
        let base = mk(0.0, 0.0, 0.0);
        let eps = 1e-6;
        let nn = s.n_nodes();
        let ns = base.n_segments();
        for (which, field, plus, minus) in [
            ("delay", 0, mk(eps, 0.0, 0.0), mk(-eps, 0.0, 0.0)),
            ("rise", 1, mk(0.0, eps, 0.0), mk(0.0, -eps, 0.0)),
            ("amplitude", 2, mk(0.0, 0.0, eps), mk(0.0, 0.0, -eps)),
        ] {
            // A direction of ones on the perturbed field, zeros elsewhere.
            let mut dir = [vec![0.0; ns], vec![0.0; ns], vec![0.0; ns]];
            dir[field] = vec![1.0; ns];
            // Times chosen away from the slip ramp's kink points (where the
            // piecewise-quadratic g is not differentiable and FD disagrees
            // with the one-sided analytic value by construction).
            for &t in &[0.23, 0.57, 0.93, 1.33] {
                let mut fp = vec![0.0; nn];
                plus.add_force(t, &mut fp);
                let mut fm = vec![0.0; nn];
                minus.add_force(t, &mut fm);
                // FD perturbs ALL segments simultaneously: compare against
                // the directional derivative along the ones vector.
                let mut fd_all = vec![0.0; nn];
                for (a, (p, m)) in fd_all.iter_mut().zip(fp.iter().zip(&fm)) {
                    *a = (p - m) / (2.0 * eps);
                }
                let mut analytic = vec![0.0; nn];
                base.add_force_direction(&dir[0], &dir[1], &dir[2], t, &mut analytic);
                for (i, (a, b)) in analytic.iter().zip(&fd_all).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                        "{which} t={t} node {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn hypocenter_delays_grow_with_distance() {
        let s = solver();
        let mu = uniform_mu(&s);
        let fs = FaultSource::from_hypocenter(&s, &mu, 10, 2, 12, 7, 2500.0, 0.5, 1.0);
        for (j, p) in fs.params.iter().enumerate() {
            let k = 2 + j;
            let expect = (k as f64 - 7.0).abs() * 500.0 / 2500.0;
            assert!((p.delay - expect).abs() < 1e-12);
        }
    }
}
