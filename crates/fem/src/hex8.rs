//! Canonical trilinear hexahedral element matrices.
//!
//! Every element in an octree mesh is an axis-aligned cube, so the elastic
//! stiffness of an element with side `h` and Lame moduli `(lambda, mu)` is
//!
//! ```text
//! K_e = h * (lambda * K_L + mu * K_M)
//! ```
//!
//! for two *constant* 24x24 matrices computed once here. This is the paper's
//! key memory optimization: no element (let alone global) stiffness storage —
//! just two canonical matrices plus per-element `(h, lambda, mu, rho)`
//! vectors. The scalar (acoustic / SH) analogue is an 8x8 matrix with
//! `K_e = h * mu * K_S`.
//!
//! DOF ordering for the elastic matrices is node-major: `dof = 3*node + comp`.

use crate::quadrature::gauss_3d;
use crate::shape::hex8_dn;
use std::sync::OnceLock;

/// The two canonical 24x24 elastic stiffness factors plus the 8x8 scalar
/// stiffness and the 8x8 consistent mass (all on the unit cube).
#[derive(Clone, Debug)]
pub struct ElasticHexMatrices {
    /// Lambda (volumetric) part; multiply by `h * lambda`.
    pub k_lambda: [[f64; 24]; 24],
    /// Mu (shear) part; multiply by `h * mu`.
    pub k_mu: [[f64; 24]; 24],
    /// Combined `K = h (lambda K_L + mu K_M)` diagonal helper: the diagonal of
    /// `K_L` and `K_M` (used to split diagonal/off-diagonal damping in the
    /// paper's explicit update (2.4)).
    pub k_lambda_diag: [f64; 24],
    pub k_mu_diag: [f64; 24],
}

static ELASTIC: OnceLock<ElasticHexMatrices> = OnceLock::new();
static SCALAR: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
static MASS_CONSISTENT: OnceLock<[[f64; 8]; 8]> = OnceLock::new();

/// Canonical elastic hex matrices (computed once, 2x2x2 Gauss — exact for
/// trilinear basis on affine cubes).
pub fn elastic_hex_matrices() -> &'static ElasticHexMatrices {
    ELASTIC.get_or_init(|| {
        let mut kl = [[0.0; 24]; 24];
        let mut km = [[0.0; 24]; 24];
        // One-time OnceLock init with the literal order 2: gauss_1d's
        // unsupported-order panic is unreachable, and the rule tables are
        // built exactly once per process.
        for q in gauss_3d(2) {
            let dn = hex8_dn(q.xi);
            // Build the 6x24 strain-displacement matrix B (Voigt order
            // [exx, eyy, ezz, gxy, gyz, gzx], engineering shears).
            let mut b = [[0.0; 24]; 6];
            for i in 0..8 {
                let [gx, gy, gz] = dn[i];
                let c = 3 * i;
                b[0][c] = gx;
                b[1][c + 1] = gy;
                b[2][c + 2] = gz;
                b[3][c] = gy;
                b[3][c + 1] = gx;
                b[4][c + 1] = gz;
                b[4][c + 2] = gy;
                b[5][c] = gz;
                b[5][c + 2] = gx;
            }
            // D_lambda = m m^T with m = [1,1,1,0,0,0];
            // D_mu = diag(2,2,2,1,1,1).
            for r in 0..24 {
                for c in 0..24 {
                    let div_r = b[0][r] + b[1][r] + b[2][r];
                    let div_c = b[0][c] + b[1][c] + b[2][c];
                    kl[r][c] += q.w * div_r * div_c;
                    let mut mu_rc = 0.0;
                    for k in 0..3 {
                        mu_rc += 2.0 * b[k][r] * b[k][c];
                    }
                    for k in 3..6 {
                        mu_rc += b[k][r] * b[k][c];
                    }
                    km[r][c] += q.w * mu_rc;
                }
            }
        }
        let mut kld = [0.0; 24];
        let mut kmd = [0.0; 24];
        for i in 0..24 {
            kld[i] = kl[i][i];
            kmd[i] = km[i][i];
        }
        ElasticHexMatrices { k_lambda: kl, k_mu: km, k_lambda_diag: kld, k_mu_diag: kmd }
    })
}

/// Canonical scalar stiffness on the unit cube: `K_e = h * mu * K_S`.
pub fn scalar_hex_stiffness() -> &'static [[f64; 8]; 8] {
    SCALAR.get_or_init(|| {
        let mut k = [[0.0; 8]; 8];
        for q in gauss_3d(2) {
            let dn = hex8_dn(q.xi);
            for r in 0..8 {
                for c in 0..8 {
                    k[r][c] +=
                        q.w * (dn[r][0] * dn[c][0] + dn[r][1] * dn[c][1] + dn[r][2] * dn[c][2]);
                }
            }
        }
        k
    })
}

/// Consistent scalar mass on the unit cube: `M_e = rho h^3 * M_C`.
///
/// The production solvers lump (`rho h^3 / 8` per node); the consistent matrix
/// is kept for the lumped-vs-consistent ablation bench.
pub fn consistent_hex_mass() -> &'static [[f64; 8]; 8] {
    MASS_CONSISTENT.get_or_init(|| {
        let mut m = [[0.0; 8]; 8];
        for q in gauss_3d(2) {
            let n = crate::shape::hex8_n(q.xi);
            for r in 0..8 {
                for c in 0..8 {
                    m[r][c] += q.w * n[r] * n[c];
                }
            }
        }
        m
    })
}

/// Lumped nodal mass of a hex of side `h` and density `rho`.
#[inline]
pub fn lumped_hex_mass(rho: f64, h: f64) -> f64 {
    rho * h * h * h / 8.0
}

/// Combined stiffness template `T = h (lambda K_L + mu K_M)` as a flat
/// row-major 24x24 matrix (`t[r * 24 + c]`).
///
/// On an octree mesh every element of a given level has the same side `h`,
/// so elements sharing `(h, lambda, mu)` share this exact matrix. The solver
/// precomputes one template per distinct class (a handful per mesh: levels x
/// materials) and the element sweep applies a single 24x24 matvec against
/// it, instead of combining the two canonical matrices on the fly — half the
/// flops and half the matrix traffic per element.
///
/// Build-time only; the per-step kernel lives in `quake-solver`.
pub fn combined_hex_stiffness(lambda: f64, mu: f64, h: f64) -> [f64; 576] {
    let m = elastic_hex_matrices();
    let mut t = [0.0; 576];
    for r in 0..24 {
        for c in 0..24 {
            t[r * 24 + c] = h * (lambda * m.k_lambda[r][c] + mu * m.k_mu[r][c]);
        }
    }
    t
}

#[inline(always)]
fn sum4(a: [f64; 4]) -> f64 {
    (a[0] + a[1]) + (a[2] + a[3])
}

/// `y += scale * (lambda*K_L + mu*K_M) x` for 24-vectors — the element matvec
/// at the heart of the wave solver.
///
/// The inner loop runs over six blocks of four columns with four independent
/// lane accumulators per canonical matrix, a shape the auto-vectorizer maps
/// onto 256-bit FMA lanes without a reduction dependency per column.
///
/// Flop count: 24*24*4 + 24*4 muls/adds ~ 2400 flops (see `quake-machine`).
#[inline]
pub fn elastic_matvec(
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
        let mut al = [0.0; 4];
        let mut am = [0.0; 4];
        for b in 0..6 {
            let c0 = 4 * b;
            for l in 0..4 {
                al[l] += rl[c0 + l] * x[c0 + l];
                am[l] += rm[c0 + l] * x[c0 + l];
            }
        }
        y[r] += scale * (lambda * sum4(al) + mu * sum4(am));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_k(lambda: f64, mu: f64, h: f64) -> [[f64; 24]; 24] {
        let m = elastic_hex_matrices();
        let mut k = [[0.0; 24]; 24];
        for r in 0..24 {
            for c in 0..24 {
                k[r][c] = h * (lambda * m.k_lambda[r][c] + mu * m.k_mu[r][c]);
            }
        }
        k
    }

    #[test]
    fn stiffness_is_symmetric() {
        let k = full_k(1.3, 0.7, 2.0);
        for r in 0..24 {
            for c in 0..24 {
                assert!((k[r][c] - k[c][r]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rigid_translations_are_in_nullspace() {
        let k = full_k(2.0, 1.0, 1.5);
        for comp in 0..3 {
            let mut u = [0.0; 24];
            for n in 0..8 {
                u[3 * n + comp] = 1.0;
            }
            for r in 0..24 {
                let f: f64 = (0..24).map(|c| k[r][c] * u[c]).sum();
                assert!(f.abs() < 1e-11, "translation {comp} row {r}: {f}");
            }
        }
    }

    #[test]
    fn rigid_rotations_are_in_nullspace() {
        // Infinitesimal rotation u = omega x (x - x0) produces zero strain.
        let k = full_k(2.0, 1.0, 1.0);
        let omegas = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        for w in omegas {
            let mut u = [0.0; 24];
            for n in 0..8usize {
                let x = [
                    (n & 1) as f64 - 0.5,
                    ((n >> 1) & 1) as f64 - 0.5,
                    ((n >> 2) & 1) as f64 - 0.5,
                ];
                u[3 * n] = w[1] * x[2] - w[2] * x[1];
                u[3 * n + 1] = w[2] * x[0] - w[0] * x[2];
                u[3 * n + 2] = w[0] * x[1] - w[1] * x[0];
            }
            for r in 0..24 {
                let f: f64 = (0..24).map(|c| k[r][c] * u[c]).sum();
                assert!(f.abs() < 1e-11, "rotation {w:?} row {r}: {f}");
            }
        }
    }

    #[test]
    fn stiffness_is_positive_semidefinite_on_random_vectors() {
        let k = full_k(1.0, 1.0, 1.0);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for _ in 0..50 {
            let mut u = [0.0; 24];
            for v in &mut u {
                *v = next();
            }
            let mut e = 0.0;
            for r in 0..24 {
                for c in 0..24 {
                    e += u[r] * k[r][c] * u[c];
                }
            }
            assert!(e > -1e-11, "u^T K u = {e} < 0");
        }
    }

    #[test]
    fn uniaxial_stretch_energy_matches_continuum() {
        // u = (x, 0, 0) on a unit cube: exx = 1, energy = 1/2 (lambda + 2 mu).
        let (lambda, mu) = (1.7, 0.9);
        let k = full_k(lambda, mu, 1.0);
        let mut u = [0.0; 24];
        for n in 0..8usize {
            u[3 * n] = (n & 1) as f64;
        }
        let mut e = 0.0;
        for r in 0..24 {
            for c in 0..24 {
                e += 0.5 * u[r] * k[r][c] * u[c];
            }
        }
        assert!((e - 0.5 * (lambda + 2.0 * mu)).abs() < 1e-12, "energy {e}");
    }

    #[test]
    fn simple_shear_energy_matches_continuum() {
        // u = (y, 0, 0): gamma_xy = 1, energy = 1/2 mu.
        let (lambda, mu) = (2.3, 0.6);
        let k = full_k(lambda, mu, 1.0);
        let mut u = [0.0; 24];
        for n in 0..8usize {
            u[3 * n] = ((n >> 1) & 1) as f64;
        }
        let mut e = 0.0;
        for r in 0..24 {
            for c in 0..24 {
                e += 0.5 * u[r] * k[r][c] * u[c];
            }
        }
        assert!((e - 0.5 * mu).abs() < 1e-12, "energy {e}");
    }

    #[test]
    fn scalar_stiffness_constant_nullspace_and_linear_energy() {
        let k = scalar_hex_stiffness();
        // Constant field: K u = 0.
        for r in 0..8 {
            let s: f64 = k[r].iter().sum();
            assert!(s.abs() < 1e-13);
        }
        // u = x on a unit cube: energy = 1/2 |grad u|^2 = 1/2.
        let mut u = [0.0; 8];
        for n in 0..8usize {
            u[n] = (n & 1) as f64;
        }
        let mut e = 0.0;
        for r in 0..8 {
            for c in 0..8 {
                e += 0.5 * u[r] * k[r][c] * u[c];
            }
        }
        assert!((e - 0.5).abs() < 1e-13);
    }

    #[test]
    fn elastic_matvec_matches_explicit_product() {
        let m = elastic_hex_matrices();
        let (lambda, mu, h) = (1.1, 0.4, 3.0);
        let k = full_k(lambda, mu, h);
        let mut x = [0.0; 24];
        for (i, v) in x.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let mut y = [0.0; 24];
        elastic_matvec(m, lambda, mu, h, &x, &mut y);
        for r in 0..24 {
            let expect: f64 = (0..24).map(|c| k[r][c] * x[c]).sum();
            assert!((y[r] - expect).abs() < 1e-11);
        }
    }

    #[test]
    fn combined_template_times_x_matches_per_element_matvec() {
        // Property: for every octree level's h and heterogeneous (lambda, mu),
        // a single matvec against the combined template reproduces the
        // canonical per-element stiffness matvec to <= 1e-13 (relative).
        let m = elastic_hex_matrices();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for level in 0..8 {
            let h = 8.0 / (1u64 << level) as f64;
            for (lambda, mu) in [(2.0, 1.0), (5.4, 0.3), (0.9, 2.7)] {
                let t = combined_hex_stiffness(lambda, mu, h);
                let k = full_k(lambda, mu, h);
                let mut x = [0.0; 24];
                for v in &mut x {
                    *v = next();
                }
                let mut y_ref = [0.0; 24];
                elastic_matvec(m, lambda, mu, h, &x, &mut y_ref);
                for r in 0..24 {
                    let yt: f64 = (0..24).map(|c| t[r * 24 + c] * x[c]).sum();
                    let yk: f64 = (0..24).map(|c| k[r][c] * x[c]).sum();
                    // Template entries equal the explicit K entries bit-exactly
                    // (same arithmetic), so the matvecs agree bit-exactly too.
                    assert_eq!(yt.to_bits(), yk.to_bits(), "level {level} row {r}");
                    let scale = x.iter().map(|v| v.abs()).fold(0.0f64, f64::max)
                        * t[r * 24..r * 24 + 24].iter().map(|v| v.abs()).sum::<f64>();
                    assert!(
                        (yt - y_ref[r]).abs() <= 1e-13 * scale.max(1e-300),
                        "level {level} ({lambda},{mu}) row {r}: {yt} vs {}",
                        y_ref[r]
                    );
                }
            }
        }
    }

    #[test]
    fn consistent_mass_rows_sum_to_lumped() {
        // Row-sum lumping of the consistent mass gives 1/8 per node.
        let m = consistent_hex_mass();
        for r in 0..8 {
            let s: f64 = m[r].iter().sum();
            assert!((s - 0.125).abs() < 1e-13);
        }
        assert!((lumped_hex_mass(2.0, 3.0) - 2.0 * 27.0 / 8.0).abs() < 1e-12);
    }
}
