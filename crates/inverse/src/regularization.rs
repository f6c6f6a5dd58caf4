//! Regularization functionals on inversion grids.
//!
//! - [`TvReg`]: smoothed total variation
//!   `beta int sqrt(|grad m|^2 + eps^2)` — penalizes oscillation while
//!   *preserving sharp interfaces* (the layered-geology prior of the paper).
//!   Its Gauss-Newton Hessian uses lagged diffusivity: `H v = -beta
//!   div(c grad v)` with `c = 1/sqrt(|grad m|^2 + eps^2)` frozen at the
//!   current iterate.
//! - [`TikhonovReg`]: plain `beta/2 int |grad m|^2` (used for the source
//!   parameter fields along the fault).
//!
//! Gradients are evaluated cell-wise by forward differences; axes with a
//! single vertex plane are inactive.

/// Iterate over active-axis forward-difference stencils of a grid.
fn for_each_cell(
    dims: [usize; 3],
    spacing: [f64; 3],
    mut f: impl FnMut(usize, &[(usize, usize, f64)]),
) {
    // For each vertex with a successor along every active axis, the "cell"
    // gradient uses the forward difference along each active axis.
    let active: Vec<usize> = (0..3).filter(|&a| dims[a] > 1).collect();
    let idx = |i: usize, j: usize, k: usize| i + dims[0] * (j + dims[1] * k);
    let stride = [1usize, dims[0], dims[0] * dims[1]];
    let mut buf: Vec<(usize, usize, f64)> = Vec::with_capacity(3);
    for k in 0..dims[2].saturating_sub(1).max(1) {
        for j in 0..dims[1].saturating_sub(1).max(1) {
            for i in 0..dims[0].saturating_sub(1).max(1) {
                let v = idx(i, j, k);
                buf.clear();
                for &a in &active {
                    buf.push((v, v + stride[a], spacing[a]));
                }
                f(v, &buf);
            }
        }
    }
}

/// Smoothed total variation.
#[derive(Clone, Debug)]
pub struct TvReg {
    pub dims: [usize; 3],
    /// Vertex spacing per axis (m).
    pub spacing: [f64; 3],
    /// Smoothing parameter (in gradient units, 1/m times field units).
    pub eps: f64,
    /// Regularization weight `beta_1`.
    pub beta: f64,
}

impl TvReg {
    fn cell_measure(&self) -> f64 {
        (0..3).filter(|&a| self.dims[a] > 1).map(|a| self.spacing[a]).product()
    }

    /// `beta int sqrt(|grad m|^2 + eps^2) dV` (cellwise midpoint rule).
    pub fn value(&self, m: &[f64]) -> f64 {
        let mut acc = 0.0;
        let meas = self.cell_measure();
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            let g2: f64 = diffs.iter().map(|&(a, b, h)| ((m[b] - m[a]) / h).powi(2)).sum();
            acc += (g2 + self.eps * self.eps).sqrt() * meas;
        });
        self.beta * acc
    }

    /// Adds `beta dR/dm` into `g`.
    pub fn gradient(&self, m: &[f64], g: &mut [f64]) {
        let meas = self.cell_measure();
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            let g2: f64 = diffs.iter().map(|&(a, b, h)| ((m[b] - m[a]) / h).powi(2)).sum();
            let denom = (g2 + self.eps * self.eps).sqrt();
            for &(a, b, h) in diffs {
                let d = (m[b] - m[a]) / h / denom * meas / h;
                g[b] += self.beta * d;
                g[a] -= self.beta * d;
            }
        });
    }

    /// Frozen lagged-diffusivity coefficients, one per cell (in iteration
    /// order of `for_each_cell`).
    pub fn diffusivity(&self, m: &[f64]) -> Vec<f64> {
        let mut c = Vec::new();
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            let g2: f64 = diffs.iter().map(|&(a, b, h)| ((m[b] - m[a]) / h).powi(2)).sum();
            c.push(1.0 / (g2 + self.eps * self.eps).sqrt());
        });
        c
    }

    /// Adds the lagged-diffusivity GN Hessian product
    /// `beta * (-div(c grad v))` into `out`.
    pub fn hess_apply(&self, diffusivity: &[f64], v: &[f64], out: &mut [f64]) {
        let meas = self.cell_measure();
        let mut cell = 0usize;
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            let c = diffusivity[cell];
            cell += 1;
            for &(a, b, h) in diffs {
                let d = c * (v[b] - v[a]) / h * meas / h;
                out[b] += self.beta * d;
                out[a] -= self.beta * d;
            }
        });
    }
}

/// Plain Tikhonov (H1 seminorm) smoothing.
#[derive(Clone, Debug)]
pub struct TikhonovReg {
    pub dims: [usize; 3],
    pub spacing: [f64; 3],
    pub beta: f64,
}

impl TikhonovReg {
    fn cell_measure(&self) -> f64 {
        (0..3).filter(|&a| self.dims[a] > 1).map(|a| self.spacing[a]).product()
    }

    /// `beta/2 int |grad m|^2`.
    pub fn value(&self, m: &[f64]) -> f64 {
        let mut acc = 0.0;
        let meas = self.cell_measure();
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            for &(a, b, h) in diffs {
                acc += ((m[b] - m[a]) / h).powi(2) * meas;
            }
        });
        0.5 * self.beta * acc
    }

    /// Adds `beta L m` (graph Laplacian scaled) into `g`.
    pub fn gradient(&self, m: &[f64], g: &mut [f64]) {
        let meas = self.cell_measure();
        for_each_cell(self.dims, self.spacing, |_, diffs| {
            for &(a, b, h) in diffs {
                let d = (m[b] - m[a]) / h * meas / h;
                g[b] += self.beta * d;
                g[a] -= self.beta * d;
            }
        });
    }

    /// The Hessian is constant: same operator applied to `v`.
    pub fn hess_apply(&self, v: &[f64], out: &mut [f64]) {
        self.gradient(v, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn tv_of_constant_is_eps_measure() {
        let tv = TvReg { dims: [5, 5, 1], spacing: [1.0, 1.0, 1.0], eps: 0.01, beta: 2.0 };
        let m = vec![3.0; 25];
        // 16 cells, each contributing eps * 1.
        assert!((tv.value(&m) - 2.0 * 16.0 * 0.01).abs() < 1e-12);
        let mut g = vec![0.0; 25];
        tv.gradient(&m, &mut g);
        assert!(g.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn tv_penalizes_oscillation_more_than_jump() {
        // Same total variation budget: TV of a single step equals TV of a
        // smooth ramp (that is the interface-preserving property); an
        // oscillating field costs much more.
        let dims = [9, 1, 1];
        let tv = TvReg { dims, spacing: [1.0, 1.0, 1.0], eps: 1e-6, beta: 1.0 };
        let step: Vec<f64> = (0..9).map(|i| if i < 4 { 0.0 } else { 1.0 }).collect();
        let ramp: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let osc: Vec<f64> = (0..9).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let vs = tv.value(&step);
        let vr = tv.value(&ramp);
        let vo = tv.value(&osc);
        assert!((vs - vr).abs() < 1e-3, "step {vs} vs ramp {vr}");
        assert!(vo > 5.0 * vs, "oscillation {vo} vs step {vs}");
    }

    #[test]
    fn tv_gradient_matches_finite_differences() {
        let tv = TvReg { dims: [4, 3, 1], spacing: [2.0, 3.0, 1.0], eps: 0.1, beta: 1.7 };
        let m = rnd_vec(12, 11);
        let mut g = vec![0.0; 12];
        tv.gradient(&m, &mut g);
        for i in 0..12 {
            let eps = 1e-7;
            let mut mp = m.clone();
            mp[i] += eps;
            let mut mm = m.clone();
            mm[i] -= eps;
            let fd = (tv.value(&mp) - tv.value(&mm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-6 * (1.0 + fd.abs()), "{}: {} vs {fd}", i, g[i]);
        }
    }

    #[test]
    fn tv_hessian_is_spd_and_symmetric() {
        let tv = TvReg { dims: [5, 4, 1], spacing: [1.0, 1.0, 1.0], eps: 0.05, beta: 1.0 };
        let m = rnd_vec(20, 3);
        let c = tv.diffusivity(&m);
        let v = rnd_vec(20, 7);
        let w = rnd_vec(20, 9);
        let mut hv = vec![0.0; 20];
        tv.hess_apply(&c, &v, &mut hv);
        let mut hw = vec![0.0; 20];
        tv.hess_apply(&c, &w, &mut hw);
        let vhw: f64 = v.iter().zip(&hw).map(|(a, b)| a * b).sum();
        let whv: f64 = w.iter().zip(&hv).map(|(a, b)| a * b).sum();
        assert!((vhw - whv).abs() < 1e-10 * (1.0 + vhw.abs()));
        let vhv: f64 = v.iter().zip(&hv).map(|(a, b)| a * b).sum();
        assert!(vhv >= -1e-12, "TV Hessian not PSD: {vhv}");
    }

    #[test]
    fn tikhonov_gradient_matches_finite_differences() {
        let tik = TikhonovReg { dims: [6, 1, 1], spacing: [0.5, 1.0, 1.0], beta: 2.5 };
        let m = rnd_vec(6, 21);
        let mut g = vec![0.0; 6];
        tik.gradient(&m, &mut g);
        for i in 0..6 {
            let eps = 1e-7;
            let mut mp = m.clone();
            mp[i] += eps;
            let mut mm = m.clone();
            mm[i] -= eps;
            let fd = (tik.value(&mp) - tik.value(&mm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-6 * (1.0 + fd.abs()));
        }
        // Nullspace: constants.
        let mut gc = vec![0.0; 6];
        tik.gradient(&[9.0; 6], &mut gc);
        assert!(gc.iter().all(|&v| v.abs() < 1e-12));
    }
}
