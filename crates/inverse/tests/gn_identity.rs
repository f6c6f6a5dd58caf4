//! The Gauss-Newton inversions pinned bit for bit: FNV-1a over the
//! `f64::to_bits` of the recovered fields and the convergence record,
//! computed at commit 5a2c39d (where the material and the source problem
//! each ran their own copy of the outer iteration, and `MaterialMap` and
//! `prolong` their own copies of the multilinear stencil), for the material
//! problems of `gncg.rs`'s `recovers_representable_target` and
//! `traced_inversion_emits_one_event_per_gn_iteration` and the source
//! problem of `source.rs`'s `recovers_target_source`; and the material
//! inversion's multilinear operators (`MaterialMap` and `prolong`) on 3-D
//! grids with clamped, interior and inactive axes. The 3-D material
//! inversion on a `Scalar3dSolver` (the Table 3.1 path) is pinned at commit
//! 47a4756, before its element loops stopped dividing element ids into grid
//! coordinates.

use quake_antiplane::{FaultSource, ShConfig, ShSolver};
use quake_inverse::matmap::prolong;
use quake_inverse::{
    invert_material, invert_source, GnConfig, GnStats, MaterialMap, SourceInversionConfig, TvReg,
};
use quake_solver::wave::{forward, ScalarWaveEq};
use quake_solver::{Scalar3dConfig, Scalar3dSolver};

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn stats(&mut self, s: &GnStats) {
        self.word(s.gn_iters as u64);
        self.word(s.cg_iters_total as u64);
        self.word(s.cg_iters_per_gn.len() as u64);
        for &c in &s.cg_iters_per_gn {
            self.word(c as u64);
        }
        self.f64s(&s.objective_history);
        self.f64s(&s.misfit_history);
        self.f64s(&s.grad_norms);
        self.word(s.converged as u64);
    }
}

fn material_solver() -> ShSolver {
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

/// Material inversion of a target on the 4 x 3 inversion grid with
/// `m_true[5] = base * f5` and `m_true[6] = base * f6`; returns the hash of
/// `(m, stats)`.
fn material_hash(f5: f64, f6: f64, cfg: &GnConfig) -> u64 {
    let s = material_solver();
    let dims = [4, 3, 1];
    let centers: Vec<[f64; 3]> = (0..s.n_elements())
        .map(|e| {
            let c = s.elem_center(e);
            [c[0], c[1], 0.0]
        })
        .collect();
    let map = MaterialMap::new(&centers, [6000.0, 4000.0, 1.0], dims);
    let base = 2200.0 * 2000.0f64.powi(2);
    let mut m_true = vec![base; map.n_param()];
    m_true[5] = base * f5;
    m_true[6] = base * f6;
    let forcing = |k: usize, f: &mut [f64]| {
        if k < 8 {
            f[40] += 1e8 * ((k as f64 + 1.0) / 8.0);
        }
    };
    let data = forward(&s, &map.interpolate(&m_true), &mut |k, f| forcing(k, f), false).traces;
    let tv = TvReg { dims, spacing: [2000.0, 2000.0, 1.0], eps: 0.01 * base / 2000.0, beta: 1e-26 };
    let m0 = vec![base; map.n_param()];
    let (m, stats) = invert_material(&s, &forcing, &data, &map, &tv, &m0, cfg);
    let mut h = Fnv::new();
    h.f64s(&m);
    h.stats(&stats);
    h.0
}

#[test]
fn material_inversions_match_the_pinned_bits() {
    let base = 2200.0 * 2000.0f64.powi(2);
    let representable = GnConfig {
        max_gn_iters: 20,
        grad_tol: 1e-5,
        barrier: Some((0.1 * base, 1e-6)),
        ..GnConfig::default()
    };
    let traced = GnConfig { max_gn_iters: 3, ..GnConfig::default() };
    let got = [material_hash(1.25, 0.8, &representable), material_hash(1.2, 1.0, &traced)];
    assert_eq!(
        got,
        [0x2b86_a6f1_50c2_e26d, 0xd274_cc6c_e595_6013],
        "material inversion bits changed: {got:#018x?}"
    );
}

#[test]
fn scalar3d_material_inversion_matches_the_pinned_bits() {
    // A box with three different edge counts, so the x, y and z node strides
    // all differ, and a soft blob under a vertical gradient as the target.
    let (nx, ny, nz, h) = (6, 5, 4, 200.0);
    let rho = 2000.0;
    let base = rho * 1500.0 * 1500.0;
    let s = Scalar3dSolver::new(&Scalar3dConfig {
        nx,
        ny,
        nz,
        h,
        rho,
        dt: 0.3 * h / 3000.0,
        n_steps: 40,
        abc: [true, true, true, true, false, true],
        receivers: vec![],
        mu_background: base,
    })
    .with_receivers_at_surface(3);
    let domain = [nx as f64 * h, ny as f64 * h, nz as f64 * h];
    let centers: Vec<[f64; 3]> = (0..s.n_elements()).map(|e| s.elem_center(e)).collect();
    let mu_true: Vec<f64> = centers
        .iter()
        .map(|c| {
            let r2 = ((c[0] - 0.5 * domain[0]) / (0.3 * domain[0])).powi(2)
                + ((c[1] - 0.5 * domain[1]) / (0.3 * domain[1])).powi(2)
                + ((c[2] - 0.4 * domain[2]) / (0.3 * domain[2])).powi(2);
            base * (1.0 + 0.3 * c[2] / domain[2] - 0.3 * (-r2).exp())
        })
        .collect();
    let src = s.node(nx / 2, ny / 2, nz / 2);
    let forcing = move |k: usize, f: &mut [f64]| {
        if k < 8 {
            f[src] += 1e9 * ((k as f64 + 1.0) / 8.0);
        }
    };
    let data = forward(&s, &mu_true, &mut |k, f| forcing(k, f), false).traces;
    let dims = [3, 3, 3];
    let map = MaterialMap::new(&centers, domain, dims);
    let sp = [domain[0] / 2.0, domain[1] / 2.0, domain[2] / 2.0];
    let tv = TvReg { dims, spacing: sp, eps: 0.02 * base / sp[0], beta: 1e-28 };
    let cfg = GnConfig {
        max_gn_iters: 5,
        max_cg_iters: 20,
        cg_tol: 0.1,
        barrier: Some((0.05 * base, 1e-7)),
        ..GnConfig::default()
    };
    let (m, stats) = invert_material(&s, &forcing, &data, &map, &tv, &vec![base; 27], &cfg);
    let mut hash = Fnv::new();
    hash.f64s(&m);
    hash.stats(&stats);
    assert!(stats.cg_iters_total > 5, "too few Hessian products to pin: {stats:?}");
    assert_eq!(
        hash.0, 0xdfa8_8e3b_99bc_7a0f,
        "3-D material inversion bits changed: {:#018x}",
        hash.0
    );
}

#[test]
fn source_inversion_matches_the_pinned_bits() {
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
    let mu = vec![2200.0 * 2000.0 * 2000.0; s.n_elements()];
    let template = FaultSource::from_hypocenter(&s, &mu, 10, 3, 8, 5, 2800.0, 1.5, 1.0);
    let data = forward(&s, &mu, &mut |k, f| template.add_force(k as f64 * s.dt(), f), false).traces;
    let ns = template.n_segments();
    let (d0, r0, a0) = (vec![0.5; ns], vec![2.5; ns], vec![0.7; ns]);
    let cfg = SourceInversionConfig {
        gn: GnConfig { max_gn_iters: 40, grad_tol: 1e-8, ..GnConfig::default() },
        beta_delay: 1e-6,
        beta_rise: 1e-6,
        beta_amplitude: 1e-6,
        ..SourceInversionConfig::default()
    };
    let out = invert_source(&s, &template, &mu, &data, (&d0, &r0, &a0), &cfg);
    let mut fields = Fnv::new();
    fields.f64s(&out.delays);
    fields.f64s(&out.rises);
    fields.f64s(&out.amplitudes);
    let mut stats = Fnv::new();
    stats.stats(&out.stats);
    let mut iterates = Fnv::new();
    iterates.word(out.iterates.len() as u64);
    for (it, d, r, a) in &out.iterates {
        iterates.word(*it as u64);
        iterates.f64s(d);
        iterates.f64s(r);
        iterates.f64s(a);
    }
    let got = [fields.0, stats.0, iterates.0];
    assert_eq!(
        got,
        [0x9419_a7a3_98dd_0101, 0x5b28_9701_5383_900c, 0x089a_79fe_c526_b32e],
        "source inversion bits changed: {got:#018x?}"
    );
}

#[test]
fn material_map_and_prolongation_match_the_pinned_bits() {
    let mut st = 3u64;
    let mut rnd = || {
        st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
        (st >> 11) as f64 / (1u64 << 53) as f64
    };
    // Centers overshoot the domain on both sides so clamping is exercised.
    let centers: Vec<[f64; 3]> =
        (0..200).map(|_| [rnd() * 1200.0 - 100.0, rnd() * 800.0, rnd() * 500.0]).collect();
    let mut got = Vec::new();
    for dims in [[5, 4, 3], [7, 1, 2], [1, 1, 1]] {
        let map = MaterialMap::new(&centers, [1000.0, 800.0, 500.0], dims);
        let m: Vec<f64> = (0..map.n_param()).map(|_| rnd()).collect();
        let g: Vec<f64> = (0..map.n_elements()).map(|_| rnd()).collect();
        let fine = [dims[0] * 2 - 1, dims[1] + 2, dims[2] * 3];
        let mut h = Fnv::new();
        h.f64s(&map.interpolate(&m));
        h.f64s(&map.transpose_apply(&g));
        h.f64s(&prolong(&m, dims, fine));
        got.push(h.0);
    }
    assert_eq!(
        got,
        [0xcf85_5251_0713_bdba, 0xe8ff_3a83_7f62_4040, 0xc356_0b10_3839_ca62],
        "multilinear operator bits changed: {got:#018x?}"
    );
}
