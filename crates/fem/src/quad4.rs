//! Canonical bilinear quad element matrices.
//!
//! Used by the 2-D antiplane (SH) solver of Section 3 and for the boundary
//! faces of the 3-D hexahedral solver (Stacey absorbing-boundary terms).
//!
//! A useful 2-D fact: the scalar stiffness `int grad N . grad N dA` of a
//! square element is *independent of its size* (the 1/h^2 from the gradients
//! cancels the h^2 from the area), so a single canonical 4x4 matrix covers
//! every element: `K_e = mu_e * K_Q`.

use crate::quadrature::gauss_2d;
use crate::shape::{quad4_dn, quad4_n};
use std::sync::OnceLock;

static SCALAR: OnceLock<[[f64; 4]; 4]> = OnceLock::new();
static FACE_N_DN: OnceLock<[[[f64; 4]; 4]; 2]> = OnceLock::new();

/// Canonical scalar quad stiffness `K_Q` (size-independent):
/// `K_e = mu_e * K_Q`.
pub fn scalar_quad_stiffness() -> &'static [[f64; 4]; 4] {
    SCALAR.get_or_init(|| {
        let mut k = [[0.0; 4]; 4];
        for q in gauss_2d(2) {
            let dn = quad4_dn(q.xi);
            for r in 0..4 {
                for c in 0..4 {
                    k[r][c] += q.w * (dn[r][0] * dn[c][0] + dn[r][1] * dn[c][1]);
                }
            }
        }
        k
    })
}

/// `int_face N_r dN_c/dxi_axis dA` on the unit square, for `axis = 0, 1`.
///
/// On a physical face of side `h` this scales by `h` (one factor `h^2` from
/// the area times `1/h` from the tangential derivative). These are the
/// building blocks of the Stacey boundary's `c1 d/dtau` coupling terms.
pub fn quad4_n_dn_unit() -> &'static [[[f64; 4]; 4]; 2] {
    FACE_N_DN.get_or_init(|| {
        let mut f = [[[0.0; 4]; 4]; 2];
        for q in gauss_2d(2) {
            let n = quad4_n(q.xi);
            let dn = quad4_dn(q.xi);
            for axis in 0..2 {
                for r in 0..4 {
                    for c in 0..4 {
                        f[axis][r][c] += q.w * n[r] * dn[c][axis];
                    }
                }
            }
        }
        f
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_quad_stiffness_known_values() {
        // The classic bilinear square stiffness: diagonal 2/3, opposite
        // corner -1/3, edge neighbors -1/6.
        let k = scalar_quad_stiffness();
        for r in 0..4 {
            assert!((k[r][r] - 2.0 / 3.0).abs() < 1e-13);
        }
        // Node 0 = (0,0); node 3 = (1,1) is its diagonal opposite.
        assert!((k[0][3] + 1.0 / 3.0).abs() < 1e-13);
        assert!((k[0][1] + 1.0 / 6.0).abs() < 1e-13);
        assert!((k[0][2] + 1.0 / 6.0).abs() < 1e-13);
    }

    #[test]
    fn scalar_quad_constant_nullspace() {
        let k = scalar_quad_stiffness();
        for r in 0..4 {
            let s: f64 = k[r].iter().sum();
            assert!(s.abs() < 1e-14);
        }
    }

    #[test]
    fn n_dn_columns_integrate_derivative_of_linear_field() {
        // sum_r int N_r dN_c/dxi = int dN_c/dxi (partition of unity), and
        // contracting columns with nodal values of u = xi gives
        // int N_r du/dxi = int N_r = 1/4.
        let f = quad4_n_dn_unit();
        let u: [f64; 4] = [0.0, 1.0, 0.0, 1.0]; // u = xi_0 at the four nodes
        for r in 0..4 {
            let v: f64 = (0..4).map(|c| f[0][r][c] * u[c]).sum();
            assert!((v - 0.25).abs() < 1e-14, "row {r}: {v}");
        }
        // d(xi_0)/d(xi_1) = 0.
        for r in 0..4 {
            let v: f64 = (0..4).map(|c| f[1][r][c] * u[c]).sum();
            assert!(v.abs() < 1e-14);
        }
    }
}
