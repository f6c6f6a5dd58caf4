//! The 2-D structured SH grid and its wave-equation implementation.

use quake_fem::quad4::scalar_quad_stiffness;
use quake_solver::wave::ScalarWaveEq;

/// Configuration of the antiplane solver. `x` is horizontal distance,
/// `z` is depth (down positive); the free surface is `z = 0`.
#[derive(Clone, Debug)]
pub struct ShConfig {
    /// Elements along x and z.
    pub nx: usize,
    pub nz: usize,
    /// Element edge (m).
    pub h: f64,
    /// Constant (known) density, kg/m^3 — the paper inverts mu only.
    pub rho: f64,
    pub dt: f64,
    pub n_steps: usize,
    /// Receiver node indices (typically on the free surface).
    pub receivers: Vec<usize>,
    /// Background modulus for the frozen absorbing-boundary impedance.
    pub mu_background: f64,
    /// Which edges absorb: [left, right, bottom]. The top (z = 0) is always
    /// the free surface.
    pub absorbing: [bool; 3],
}

/// The assembled 2-D solver.
pub struct ShSolver {
    pub cfg: ShConfig,
    mass: Vec<f64>,
    cab: Vec<f64>,
}

impl ShSolver {
    pub fn new(cfg: &ShConfig) -> ShSolver {
        assert!(cfg.nx > 0 && cfg.nz > 0, "ShConfig::nx and nz must be > 0");
        for (name, v) in
            [("h", cfg.h), ("rho", cfg.rho), ("dt", cfg.dt), ("mu_background", cfg.mu_background)]
        {
            assert!(v.is_finite() && v > 0.0, "ShConfig::{name} must be finite and > 0, got {v}");
        }
        let nn = (cfg.nx + 1) * (cfg.nz + 1);
        for (i, &r) in cfg.receivers.iter().enumerate() {
            assert!(r < nn, "ShConfig::receivers[{i}] = {r} is not a node (n_nodes = {nn})");
        }
        let shell = ShSolver { cfg: cfg.clone(), mass: Vec::new(), cab: Vec::new() };
        // Lumped mass rho h^2/4 per incident element.
        let me = cfg.rho * cfg.h * cfg.h / 4.0;
        let mut mass = vec![0.0; nn];
        for e in 0..shell.n_elements() {
            for c in 0..4 {
                mass[shell.elem_node(e, c)] += me;
            }
        }
        // First-order ABC on left/right/bottom edges: impedance
        // sqrt(rho mu0) * h/2 per incident half-edge; top (z = 0) is free.
        let imp = (cfg.rho * cfg.mu_background).sqrt() * cfg.h / 2.0;
        let mut cab = vec![0.0; nn];
        for k in 0..=cfg.nz {
            for i in 0..=cfg.nx {
                let idx = shell.node(i, k);
                let mut halves = 0u32;
                if (cfg.absorbing[0] && i == 0) || (cfg.absorbing[1] && i == cfg.nx) {
                    halves += edge_mult(k, cfg.nz);
                }
                if cfg.absorbing[2] && k == cfg.nz {
                    halves += edge_mult(i, cfg.nx);
                }
                cab[idx] = imp * halves as f64;
            }
        }
        ShSolver { cfg: cfg.clone(), mass, cab }
    }

    pub fn node(&self, i: usize, k: usize) -> usize {
        debug_assert!(i <= self.cfg.nx && k <= self.cfg.nz);
        i + (self.cfg.nx + 1) * k
    }

    pub fn elem(&self, i: usize, k: usize) -> usize {
        debug_assert!(i < self.cfg.nx && k < self.cfg.nz);
        i + self.cfg.nx * k
    }

    /// Element corner node (bit 0 = +x, bit 1 = +z, matching quad4 order).
    #[inline]
    pub fn elem_node(&self, e: usize, c: usize) -> usize {
        let i = e % self.cfg.nx;
        let k = e / self.cfg.nx;
        self.node(i + (c & 1), k + ((c >> 1) & 1))
    }

    /// Element center (x, z) in meters.
    pub fn elem_center(&self, e: usize) -> [f64; 2] {
        let i = e % self.cfg.nx;
        let k = e / self.cfg.nx;
        [(i as f64 + 0.5) * self.cfg.h, (k as f64 + 0.5) * self.cfg.h]
    }

    /// Put `n` receivers uniformly on the free surface (builder style).
    pub fn with_surface_receivers(mut self, n: usize) -> ShSolver {
        let mut rec = Vec::with_capacity(n);
        for a in 0..n {
            let i = (a + 1) * self.cfg.nx / (n + 1);
            rec.push(i); // row k = 0 -> node index = i
        }
        rec.sort_unstable();
        rec.dedup();
        self.cfg.receivers = rec;
        self
    }

    /// Sample the element moduli from a pointwise field `mu(x, z)`.
    pub fn mu_from(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        (0..self.n_elements())
            .map(|e| {
                let c = self.elem_center(e);
                f(c[0], c[1])
            })
            .collect()
    }
}

fn edge_mult(i: usize, n: usize) -> u32 {
    if i == 0 || i == n {
        1
    } else {
        2
    }
}

impl ScalarWaveEq for ShSolver {
    fn n_nodes(&self) -> usize {
        (self.cfg.nx + 1) * (self.cfg.nz + 1)
    }

    fn n_elements(&self) -> usize {
        self.cfg.nx * self.cfg.nz
    }

    fn n_steps(&self) -> usize {
        self.cfg.n_steps
    }

    fn dt(&self) -> f64 {
        self.cfg.dt
    }

    fn receivers(&self) -> &[usize] {
        &self.cfg.receivers
    }

    fn mass(&self) -> &[f64] {
        &self.mass
    }

    fn abc_damping(&self) -> &[f64] {
        &self.cab
    }

    fn apply_k(&self, mu: &[f64], x: &[f64], y: &mut [f64], scale: f64) {
        assert_eq!(mu.len(), self.n_elements());
        let kq = scalar_quad_stiffness();
        let w = self.cfg.nx + 1;
        for (k, mu_row) in mu.chunks_exact(self.cfg.nx).enumerate() {
            let (xb, xt) = (&x[k * w..][..w], &x[(k + 1) * w..][..w]);
            let (yb, yt) = y[k * w..(k + 2) * w].split_at_mut(w);
            // Element row k lies between node rows k (b) and k + 1 (t).
            // `lb` and `lt` hold the running sums of element i's left
            // corners in registers: each node still receives element
            // i - 1's contribution before element i's, as in a plain loop
            // over elements, but without a store and reload between them.
            let (mut lb, mut lt) = (yb[0], yt[0]);
            for (i, &m) in mu_row.iter().enumerate() {
                let s = scale * m;
                let (rb, rt) = (yb[i + 1], yt[i + 1]);
                if s == 0.0 {
                    yb[i] = lb;
                    yt[i] = lt;
                    (lb, lt) = (rb, rt);
                    continue;
                }
                let xe = [xb[i], xb[i + 1], xt[i], xt[i + 1]];
                let mut a = [0.0; 4];
                for r in 0..4 {
                    let mut acc = 0.0;
                    for c in 0..4 {
                        acc += kq[r][c] * xe[c];
                    }
                    a[r] = s * acc;
                }
                yb[i] = lb + a[0];
                yt[i] = lt + a[2];
                (lb, lt) = (rb + a[1], rt + a[3]);
            }
            yb[w - 1] = lb;
            yt[w - 1] = lt;
        }
    }

    fn accumulate_dk(&self, u: &[f64], v: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_elements());
        let kq = scalar_quad_stiffness();
        let w = self.cfg.nx + 1;
        for (k, out_row) in out.chunks_exact_mut(self.cfg.nx).enumerate() {
            let (ub, ut) = (&u[k * w..][..w], &u[(k + 1) * w..][..w]);
            let (vb, vt) = (&v[k * w..][..w], &v[(k + 1) * w..][..w]);
            for (i, o) in out_row.iter_mut().enumerate() {
                let ue = [ub[i], ub[i + 1], ut[i], ut[i + 1]];
                let ve = [vb[i], vb[i + 1], vt[i], vt[i + 1]];
                let mut acc = 0.0;
                for r in 0..4 {
                    for c in 0..4 {
                        acc += ue[r] * kq[r][c] * ve[c];
                    }
                }
                *o += acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_solver::wave::{adjoint, forward, material_gradient};

    fn cfg() -> ShConfig {
        ShConfig {
            nx: 24,
            nz: 16,
            h: 500.0,
            rho: 2200.0,
            dt: 0.05,
            n_steps: 80,
            receivers: vec![],
            mu_background: 2200.0 * 2000.0 * 2000.0,
            absorbing: [true; 3],
        }
    }

    /// `n` values of a 64-bit LCG in `[-0.5, 0.5)`.
    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut st = seed;
        (0..n)
            .map(|_| {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// `apply_k` as one loop over element ids, each element's corners from
    /// `elem_node`: the bit-for-bit reference of the row walk.
    fn reference_apply_k(s: &ShSolver, mu: &[f64], x: &[f64], y: &mut [f64], scale: f64) {
        let kq = scalar_quad_stiffness();
        for e in 0..s.n_elements() {
            let sc = scale * mu[e];
            if sc == 0.0 {
                continue;
            }
            let nid: [usize; 4] = std::array::from_fn(|c| s.elem_node(e, c));
            for r in 0..4 {
                let mut acc = 0.0;
                for c in 0..4 {
                    acc += kq[r][c] * x[nid[c]];
                }
                y[nid[r]] += sc * acc;
            }
        }
    }

    /// `accumulate_dk` as one loop over element ids (see above).
    fn reference_accumulate_dk(s: &ShSolver, u: &[f64], v: &[f64], out: &mut [f64]) {
        let kq = scalar_quad_stiffness();
        for e in 0..s.n_elements() {
            let nid: [usize; 4] = std::array::from_fn(|c| s.elem_node(e, c));
            let mut acc = 0.0;
            for r in 0..4 {
                for c in 0..4 {
                    acc += u[nid[r]] * kq[r][c] * v[nid[c]];
                }
            }
            out[e] += acc;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernels_match_the_per_element_reference_bit_for_bit() {
        for (nx, nz) in [(1, 1), (1, 5), (5, 1), (7, 3)] {
            let s = ShSolver::new(&ShConfig { nx, nz, ..cfg() });
            let (nn, ne) = (s.n_nodes(), s.n_elements());
            let seed = (nx * 100 + nz) as u64;
            // Moduli with zero and negative-zero entries, which both skip.
            let mut mu: Vec<f64> = lcg(seed, ne).iter().map(|r| 3e10 * (1.0 + r)).collect();
            mu[ne / 2] = 0.0;
            mu[ne - 1] = -0.0;
            let x = lcg(seed + 2, nn);
            // A target that already holds values, a negative zero among them.
            let mut y0 = lcg(seed + 3, nn);
            y0[nn / 3] = -0.0;
            for scale in [1.0, -0.37, -2.5e-3, 0.0] {
                let (mut got, mut want) = (y0.clone(), y0.clone());
                s.apply_k(&mu, &x, &mut got, scale);
                reference_apply_k(&s, &mu, &x, &mut want, scale);
                assert_eq!(bits(&got), bits(&want), "apply_k {nx}x{nz}, scale {scale}");
            }
            let v = lcg(seed + 4, nn);
            let out0 = lcg(seed + 5, ne);
            let (mut got, mut want) = (out0.clone(), out0);
            s.accumulate_dk(&x, &v, &mut got);
            reference_accumulate_dk(&s, &x, &v, &mut want);
            assert_eq!(bits(&got), bits(&want), "accumulate_dk {nx}x{nz}");
        }
    }

    #[test]
    fn invalid_configs_panic_naming_the_field() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        type Case = (&'static str, fn(&mut ShConfig));
        let cases: [Case; 12] = [
            ("ShConfig::h", |c| c.h = f64::INFINITY),
            ("ShConfig::h", |c| c.h = f64::NAN),
            ("ShConfig::rho", |c| c.rho = f64::INFINITY),
            ("ShConfig::rho", |c| c.rho = 0.0),
            ("ShConfig::dt", |c| c.dt = f64::INFINITY),
            ("ShConfig::dt", |c| c.dt = -0.05),
            ("ShConfig::mu_background", |c| c.mu_background = f64::NAN),
            ("ShConfig::mu_background", |c| c.mu_background = -1.0),
            ("ShConfig::mu_background", |c| c.mu_background = f64::INFINITY),
            ("ShConfig::mu_background", |c| c.mu_background = 0.0),
            ("ShConfig::receivers[1]", |c| c.receivers = vec![3, 25 * 17]),
            ("ShConfig::receivers[0]", |c| c.receivers = vec![usize::MAX]),
        ];
        for (field, set) in cases {
            let mut c = cfg();
            set(&mut c);
            let err = catch_unwind(AssertUnwindSafe(|| ShSolver::new(&c)))
                .err()
                .unwrap_or_else(|| panic!("{field}: accepted {c:?}"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(field), "{field}: panic message {msg:?}");
        }
        // The last node is a receiver like any other.
        let mut c = cfg();
        c.receivers = vec![25 * 17 - 1];
        ShSolver::new(&c);
    }

    #[test]
    fn mass_and_abc_layout() {
        let s = ShSolver::new(&cfg());
        let total: f64 = s.mass().iter().sum();
        let area = 24.0 * 16.0 * 500.0 * 500.0;
        assert!((total - 2200.0 * area).abs() < 1e-6 * total);
        let cab = s.abc_damping();
        assert_eq!(cab[s.node(12, 0)], 0.0, "free surface");
        assert!(cab[s.node(0, 8)] > 0.0, "left edge");
        assert!(cab[s.node(24, 8)] > 0.0, "right edge");
        assert!(cab[s.node(12, 16)] > 0.0, "bottom");
        assert_eq!(cab[s.node(12, 8)], 0.0, "interior");
    }

    #[test]
    fn sh_pulse_travels_at_shear_speed() {
        let mut c = cfg();
        c.n_steps = 120;
        let s = ShSolver::new(&c);
        let vs = 2000.0;
        let mu = vec![c.rho * vs * vs; s.n_elements()];
        let src = s.node(4, 8);
        let probe = s.node(16, 8); // 6 km away
        let run = forward(
            &s,
            &mu,
            &mut |k, f| {
                if k < 4 {
                    f[src] = 1e9;
                }
            },
            true,
        );
        let series: Vec<f64> = run.states.iter().map(|u| u[probe].abs()).collect();
        let peak = series.iter().cloned().fold(0.0f64, f64::max);
        let arrival = series.iter().position(|&v| v > 0.05 * peak).unwrap() as f64 * c.dt;
        let expected = 6000.0 / vs;
        assert!((arrival - expected).abs() < 0.5, "arrival {arrival} vs {expected}");
    }

    #[test]
    fn absorbing_edges_drain_energy_reflecting_edges_keep_it() {
        // Same pulse, with and without ABC: the absorbing run must end far
        // quieter (first-order ABCs absorb imperfectly at grazing incidence,
        // so we compare rather than demand near-zero).
        let mut c = cfg();
        c.n_steps = 400;
        let run_with = |absorbing: [bool; 3]| {
            let mut cc = c.clone();
            cc.absorbing = absorbing;
            let s = ShSolver::new(&cc);
            let mu = vec![cc.rho * 2000.0 * 2000.0; s.n_elements()];
            let src = s.node(12, 2);
            let run = forward(
                &s,
                &mu,
                &mut |k, f| {
                    if k < 4 {
                        f[src] = 1e9;
                    }
                },
                true,
            );
            let amp = |u: &Vec<f64>| u.iter().map(|v| v * v).sum::<f64>().sqrt();
            (amp(&run.states[100]), amp(&run.states[400]))
        };
        let (_, end_abc) = run_with([true; 3]);
        let (mid_ref, end_ref) = run_with([false; 3]);
        assert!(end_ref > 0.7 * mid_ref, "reflecting box lost energy");
        assert!(
            end_abc < 0.35 * end_ref,
            "ABC barely better than reflecting: {end_abc} vs {end_ref}"
        );
    }

    #[test]
    fn gradient_check_2d() {
        let mut c = cfg();
        c.nx = 12;
        c.nz = 8;
        c.n_steps = 50;
        let s = ShSolver::new(&c).with_surface_receivers(6);
        let ne = s.n_elements();
        let mu0: Vec<f64> =
            (0..ne).map(|e| 2200.0 * 2000.0f64.powi(2) * (1.0 + 0.1 * ((e % 4) as f64))).collect();
        let mut mu_true = mu0.clone();
        for (i, v) in mu_true.iter_mut().enumerate() {
            *v *= 1.0 + 0.03 * ((i % 3) as f64);
        }
        let src = s.node(6, 4);
        fn forcing(src: usize) -> impl FnMut(usize, &mut [f64]) {
            move |k, f| {
                if k < 6 {
                    f[src] = 1e8;
                }
            }
        }
        let data = forward(&s, &mu_true, &mut forcing(src), false).traces;
        let misfit = |mu: &[f64]| {
            let run = forward(&s, mu, &mut forcing(src), false);
            run.traces
                .iter()
                .zip(&data)
                .flat_map(|(t, d)| t.iter().zip(d))
                .map(|(a, b)| 0.5 * (a - b) * (a - b) * s.dt())
                .sum::<f64>()
        };
        let run = forward(&s, &mu0, &mut forcing(src), true);
        let residuals: Vec<Vec<f64>> = run
            .traces
            .iter()
            .zip(&data)
            .map(|(t, d)| t.iter().zip(d).map(|(a, b)| a - b).collect())
            .collect();
        let mut lambda = Vec::new();
        adjoint(&s, &mu0, &residuals, &mut lambda);
        let g = material_gradient(&s, &run.states, &lambda);
        for &e in &[0usize, ne / 2, ne - 1] {
            let eps = mu0[e] * 1e-6;
            let mut mp = mu0.clone();
            mp[e] += eps;
            let mut mm = mu0.clone();
            mm[e] -= eps;
            let fd = (misfit(&mp) - misfit(&mm)) / (2.0 * eps);
            let rel = (g[e] - fd).abs() / (1.0 + fd.abs().max(g[e].abs()));
            assert!(rel < 1e-5, "element {e}: {} vs {fd}", g[e]);
        }
    }
}
