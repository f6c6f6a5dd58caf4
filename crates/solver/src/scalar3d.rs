//! Structured-grid 3-D scalar wave solver — the Table 3.1 substrate.
//!
//! The paper's inversion-scalability study (Table 3.1) runs on a *regular*
//! hexahedral grid (65^3 wave-propagation unknowns), with the shear modulus
//! as the inverted field. This module provides that discretization with the
//! [`crate::wave::ScalarWaveEq`] interface: lumped mass, canonical 8x8
//! element stiffness (`K_e = mu_e h K_S`), first-order absorbing boundaries
//! with a frozen background impedance, and a free surface on top.

use crate::wave::ScalarWaveEq;
use quake_fem::hex8::scalar_hex_stiffness;

/// Configuration of the structured scalar solver.
#[derive(Clone, Debug)]
pub struct Scalar3dConfig {
    /// Elements per axis.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Element edge (m).
    pub h: f64,
    /// Constant density (kg/m^3).
    pub rho: f64,
    pub dt: f64,
    pub n_steps: usize,
    /// Absorbing domain faces (0/1 -x/+x, 2/3 -y/+y, 4/5 -z/+z);
    /// face 4 (z = 0) is typically the free surface.
    pub abc: [bool; 6],
    /// Receiver node indices.
    pub receivers: Vec<usize>,
    /// Background modulus for the frozen ABC impedance `sqrt(rho mu)`.
    pub mu_background: f64,
}

/// The assembled solver.
pub struct Scalar3dSolver {
    pub cfg: Scalar3dConfig,
    mass: Vec<f64>,
    cab: Vec<f64>,
}

impl Scalar3dSolver {
    pub fn new(cfg: &Scalar3dConfig) -> Scalar3dSolver {
        assert!(
            cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0,
            "Scalar3dConfig::nx, ny and nz must be > 0"
        );
        for (name, v) in
            [("h", cfg.h), ("rho", cfg.rho), ("dt", cfg.dt), ("mu_background", cfg.mu_background)]
        {
            let ok = v.is_finite() && v > 0.0;
            assert!(ok, "Scalar3dConfig::{name} must be finite and > 0, got {v}");
        }
        let nn = (cfg.nx + 1) * (cfg.ny + 1) * (cfg.nz + 1);
        for (i, &r) in cfg.receivers.iter().enumerate() {
            assert!(r < nn, "Scalar3dConfig::receivers[{i}] = {r} is not a node (n_nodes = {nn})");
        }
        let shell = Scalar3dSolver { cfg: cfg.clone(), mass: Vec::new(), cab: Vec::new() };
        // Lumped mass: rho h^3 / 8 per incident element.
        let mut mass = vec![0.0; nn];
        let me = cfg.rho * cfg.h * cfg.h * cfg.h / 8.0;
        for e in 0..shell.n_elements() {
            for c in 0..8 {
                mass[shell.elem_node(e, c)] += me;
            }
        }
        // Frozen ABC impedance: sqrt(rho mu0) * h^2/4 per incident
        // quarter-face on each absorbing side.
        let mut cab = vec![0.0; nn];
        let imp = (cfg.rho * cfg.mu_background).sqrt() * cfg.h * cfg.h / 4.0;
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    let idx = shell.node(i, j, k);
                    let mut quarters = 0u32;
                    if cfg.abc[0] && i == 0 {
                        quarters += face_mult(j, ny) * face_mult(k, nz);
                    }
                    if cfg.abc[1] && i == nx {
                        quarters += face_mult(j, ny) * face_mult(k, nz);
                    }
                    if cfg.abc[2] && j == 0 {
                        quarters += face_mult(i, nx) * face_mult(k, nz);
                    }
                    if cfg.abc[3] && j == ny {
                        quarters += face_mult(i, nx) * face_mult(k, nz);
                    }
                    if cfg.abc[4] && k == 0 {
                        quarters += face_mult(i, nx) * face_mult(j, ny);
                    }
                    if cfg.abc[5] && k == nz {
                        quarters += face_mult(i, nx) * face_mult(j, ny);
                    }
                    cab[idx] = imp * quarters as f64;
                }
            }
        }
        Scalar3dSolver { cfg: cfg.clone(), mass, cab }
    }

    /// Node index from grid coordinates.
    pub fn node(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i <= self.cfg.nx && j <= self.cfg.ny && k <= self.cfg.nz);
        i + (self.cfg.nx + 1) * (j + (self.cfg.ny + 1) * k)
    }

    /// Element index from grid coordinates.
    pub fn elem(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.cfg.nx && j < self.cfg.ny && k < self.cfg.nz);
        i + self.cfg.nx * (j + self.cfg.ny * k)
    }

    /// Global node of an element corner (bit-coded as in `quake-fem`).
    #[inline]
    pub fn elem_node(&self, e: usize, c: usize) -> usize {
        let i = e % self.cfg.nx;
        let j = (e / self.cfg.nx) % self.cfg.ny;
        let k = e / (self.cfg.nx * self.cfg.ny);
        self.node(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
    }

    /// Calls `f(e, corner nodes)` for every element in id order, walking the
    /// grid plane by plane and row by row so that no element id is divided
    /// into `(i, j, k)`.
    #[inline]
    fn for_each_element(&self, mut f: impl FnMut(usize, [usize; 8])) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let (sy, sz) = (nx + 1, (nx + 1) * (ny + 1));
        let mut e = 0;
        for k in 0..self.cfg.nz {
            for j in 0..ny {
                // Node (0, j, k); the corners follow `elem_node`'s order.
                let row = j * sy + k * sz;
                for n in row..row + nx {
                    let (y, z, yz) = (n + sy, n + sz, n + sy + sz);
                    f(e, [n, n + 1, y, y + 1, z, z + 1, yz, yz + 1]);
                    e += 1;
                }
            }
        }
    }

    /// Center coordinates of an element (m).
    pub fn elem_center(&self, e: usize) -> [f64; 3] {
        let i = e % self.cfg.nx;
        let j = (e / self.cfg.nx) % self.cfg.ny;
        let k = e / (self.cfg.nx * self.cfg.ny);
        [
            (i as f64 + 0.5) * self.cfg.h,
            (j as f64 + 0.5) * self.cfg.h,
            (k as f64 + 0.5) * self.cfg.h,
        ]
    }

    /// Place `n x n` receivers uniformly on the free surface (z = 0),
    /// builder-style.
    pub fn with_receivers_at_surface(mut self, n: usize) -> Scalar3dSolver {
        let mut rec = Vec::with_capacity(n * n);
        let shell = Scalar3dSolver { cfg: self.cfg.clone(), mass: Vec::new(), cab: Vec::new() };
        for a in 0..n {
            for b in 0..n {
                let i = (a + 1) * self.cfg.nx / (n + 1);
                let j = (b + 1) * self.cfg.ny / (n + 1);
                rec.push(shell.node(i, j, 0));
            }
        }
        rec.sort_unstable();
        rec.dedup();
        self.cfg.receivers = rec;
        self
    }
}

/// Per-axis multiplicity of quarter-faces at a boundary node: a node in the
/// interior of a face grid line touches 2 element edges along that axis.
fn face_mult(i: usize, n: usize) -> u32 {
    if i == 0 || i == n {
        1
    } else {
        2
    }
}

impl ScalarWaveEq for Scalar3dSolver {
    fn n_nodes(&self) -> usize {
        (self.cfg.nx + 1) * (self.cfg.ny + 1) * (self.cfg.nz + 1)
    }

    fn n_elements(&self) -> usize {
        self.cfg.nx * self.cfg.ny * self.cfg.nz
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
        let ks = scalar_hex_stiffness();
        self.for_each_element(|e, nid| {
            let s = scale * mu[e] * self.cfg.h;
            if s == 0.0 {
                return;
            }
            let xe = nid.map(|n| x[n]);
            // Two blocks of four columns with independent lane accumulators
            // (the same auto-vectorization shape as the elastic matvec).
            for r in 0..8 {
                let row = &ks[r];
                let mut acc = [0.0; 4];
                for l in 0..4 {
                    acc[l] += row[l] * xe[l];
                    acc[l] += row[4 + l] * xe[4 + l];
                }
                y[nid[r]] += s * ((acc[0] + acc[1]) + (acc[2] + acc[3]));
            }
        });
    }

    fn accumulate_dk(&self, u: &[f64], v: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_elements());
        let ks = scalar_hex_stiffness();
        self.for_each_element(|e, nid| {
            let ue = nid.map(|n| u[n]);
            let ve = nid.map(|n| v[n]);
            let mut acc = 0.0;
            for r in 0..8 {
                for c in 0..8 {
                    acc += ue[r] * ks[r][c] * ve[c];
                }
            }
            out[e] += self.cfg.h * acc;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::{forward, ScalarWaveEq};

    fn cfg() -> Scalar3dConfig {
        Scalar3dConfig {
            nx: 8,
            ny: 8,
            nz: 8,
            h: 100.0,
            rho: 2000.0,
            dt: 0.015,
            n_steps: 60,
            abc: [true, true, true, true, false, true],
            receivers: vec![],
            mu_background: 2e9,
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
    /// `elem_node`: the bit-for-bit reference of the plane and row walk.
    fn reference_apply_k(s: &Scalar3dSolver, mu: &[f64], x: &[f64], y: &mut [f64], scale: f64) {
        let ks = scalar_hex_stiffness();
        for e in 0..s.n_elements() {
            let sc = scale * mu[e] * s.cfg.h;
            if sc == 0.0 {
                continue;
            }
            let nid: [usize; 8] = std::array::from_fn(|c| s.elem_node(e, c));
            let xe = nid.map(|n| x[n]);
            for r in 0..8 {
                let row = &ks[r];
                let mut acc = [0.0; 4];
                for l in 0..4 {
                    acc[l] += row[l] * xe[l];
                    acc[l] += row[4 + l] * xe[4 + l];
                }
                y[nid[r]] += sc * ((acc[0] + acc[1]) + (acc[2] + acc[3]));
            }
        }
    }

    /// `accumulate_dk` as one loop over element ids (see above).
    fn reference_accumulate_dk(s: &Scalar3dSolver, u: &[f64], v: &[f64], out: &mut [f64]) {
        let ks = scalar_hex_stiffness();
        for e in 0..s.n_elements() {
            let nid: [usize; 8] = std::array::from_fn(|c| s.elem_node(e, c));
            let mut acc = 0.0;
            for r in 0..8 {
                for c in 0..8 {
                    acc += u[nid[r]] * ks[r][c] * v[nid[c]];
                }
            }
            out[e] += s.cfg.h * acc;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernels_match_the_per_element_reference_bit_for_bit() {
        for (nx, ny, nz) in [(1, 1, 1), (3, 2, 5)] {
            let s = Scalar3dSolver::new(&Scalar3dConfig { nx, ny, nz, ..cfg() });
            let (nn, ne) = (s.n_nodes(), s.n_elements());
            let seed = (nx * 100 + ny * 10 + nz) as u64;
            // Moduli with zero and negative-zero entries, which both skip.
            let mut mu: Vec<f64> = lcg(seed, ne).iter().map(|r| 2e9 * (1.0 + r)).collect();
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
                assert_eq!(bits(&got), bits(&want), "apply_k {nx}x{ny}x{nz}, scale {scale}");
            }
            let v = lcg(seed + 4, nn);
            let out0 = lcg(seed + 5, ne);
            let (mut got, mut want) = (out0.clone(), out0);
            s.accumulate_dk(&x, &v, &mut got);
            reference_accumulate_dk(&s, &x, &v, &mut want);
            assert_eq!(bits(&got), bits(&want), "accumulate_dk {nx}x{ny}x{nz}");
        }
    }

    #[test]
    fn invalid_configs_panic_naming_the_field() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        type Case = (&'static str, fn(&mut Scalar3dConfig));
        let cases: [Case; 11] = [
            ("Scalar3dConfig::h", |c| c.h = f64::INFINITY),
            ("Scalar3dConfig::h", |c| c.h = f64::NAN),
            ("Scalar3dConfig::rho", |c| c.rho = f64::INFINITY),
            ("Scalar3dConfig::rho", |c| c.rho = -2000.0),
            ("Scalar3dConfig::dt", |c| c.dt = f64::INFINITY),
            ("Scalar3dConfig::dt", |c| c.dt = 0.0),
            ("Scalar3dConfig::mu_background", |c| c.mu_background = -1.0),
            ("Scalar3dConfig::mu_background", |c| c.mu_background = f64::NAN),
            ("Scalar3dConfig::mu_background", |c| c.mu_background = f64::INFINITY),
            ("Scalar3dConfig::receivers[2]", |c| c.receivers = vec![0, 1, 9 * 9 * 9]),
            ("Scalar3dConfig::receivers[0]", |c| c.receivers = vec![usize::MAX]),
        ];
        for (field, set) in cases {
            let mut c = cfg();
            set(&mut c);
            let err = catch_unwind(AssertUnwindSafe(|| Scalar3dSolver::new(&c)))
                .err()
                .unwrap_or_else(|| panic!("{field}: accepted {c:?}"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(field), "{field}: panic message {msg:?}");
        }
        // The last node is a receiver like any other.
        let mut c = cfg();
        c.receivers = vec![9 * 9 * 9 - 1];
        Scalar3dSolver::new(&c);
    }

    #[test]
    fn mass_sums_to_total() {
        let s = Scalar3dSolver::new(&cfg());
        let total: f64 = s.mass().iter().sum();
        let expect = 2000.0 * (800.0f64).powi(3);
        assert!((total - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn abc_damping_only_on_absorbing_faces() {
        let s = Scalar3dSolver::new(&cfg());
        let cab = s.abc_damping();
        // Free surface interior node: no damping.
        assert_eq!(cab[s.node(4, 4, 0)], 0.0);
        // Bottom interior node: 4 quarter-faces.
        let imp = (2000.0f64 * 2e9).sqrt() * 100.0 * 100.0 / 4.0;
        assert!((cab[s.node(4, 4, 8)] - 4.0 * imp).abs() < 1e-6);
        // Side interior node.
        assert!((cab[s.node(0, 4, 4)] - 4.0 * imp).abs() < 1e-6);
        // Interior: zero.
        assert_eq!(cab[s.node(4, 4, 4)], 0.0);
        // Bottom edge node: 2 quarter-faces from the bottom + side face.
        assert!(cab[s.node(0, 4, 8)] > 3.9 * imp);
    }

    #[test]
    fn apply_k_annihilates_constants_and_is_symmetric() {
        let s = Scalar3dSolver::new(&cfg());
        let mu: Vec<f64> = (0..s.n_elements()).map(|e| 1e9 * (1.0 + (e % 3) as f64)).collect();
        let n = s.n_nodes();
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        s.apply_k(&mu, &ones, &mut y, 1.0);
        assert!(y.iter().all(|v| v.abs() < 1e-3), "K 1 != 0");
        let mut st = 7u64;
        let mut rnd = || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let mut ka = vec![0.0; n];
        s.apply_k(&mu, &a, &mut ka, 1.0);
        let mut kb = vec![0.0; n];
        s.apply_k(&mu, &b, &mut kb, 1.0);
        let x: f64 = ka.iter().zip(&b).map(|(p, q)| p * q).sum();
        let yv: f64 = kb.iter().zip(&a).map(|(p, q)| p * q).sum();
        assert!((x - yv).abs() < 1e-9 * (1.0 + x.abs()));
    }

    #[test]
    fn accumulate_dk_is_derivative_of_apply_k() {
        let s = Scalar3dSolver::new(&cfg());
        let n = s.n_nodes();
        let ne = s.n_elements();
        let mut st = 9u64;
        let mut rnd = || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let u: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let v: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let mut dk = vec![0.0; ne];
        s.accumulate_dk(&u, &v, &mut dk);
        for &e in &[0usize, ne / 2, ne - 1] {
            let mut mu = vec![0.0; ne];
            mu[e] = 1.0;
            let mut kv = vec![0.0; n];
            s.apply_k(&mu, &v, &mut kv, 1.0);
            let direct: f64 = u.iter().zip(&kv).map(|(a, b)| a * b).sum();
            assert!((dk[e] - direct).abs() < 1e-9 * (1.0 + direct.abs()), "e={e}");
        }
    }

    #[test]
    fn wave_propagates_at_shear_speed() {
        let mut c = cfg();
        c.n_steps = 120;
        c.dt = 0.01;
        let s = Scalar3dSolver::new(&c);
        let mu = vec![2e9; s.n_elements()];
        let vs = (2e9f64 / 2000.0).sqrt(); // 1000 m/s
        let src = s.node(4, 4, 4);
        let probe = s.node(7, 4, 4); // 300 m away
        let run = forward(
            &s,
            &mu,
            &mut |k, f| {
                if k < 3 {
                    f[src] = 1e9;
                }
            },
            true,
        );
        let series: Vec<f64> = run.states.iter().map(|u| u[probe].abs()).collect();
        let peak = series.iter().cloned().fold(0.0f64, f64::max);
        assert!(peak > 0.0);
        let arrival = series.iter().position(|&v| v > 0.05 * peak).unwrap() as f64 * c.dt;
        let expected = 300.0 / vs; // 0.3 s
        assert!((arrival - expected).abs() < 0.12, "arrival {arrival} vs expected {expected}");
    }

    #[test]
    fn receivers_builder_places_surface_nodes() {
        let s = Scalar3dSolver::new(&cfg()).with_receivers_at_surface(3);
        assert_eq!(s.receivers().len(), 9);
        for &r in s.receivers() {
            assert!(r < (8 + 1) * (8 + 1), "receiver {r} not on the z=0 plane");
        }
    }
}
