//! Stacey absorbing-boundary terms (Section 2.1).
//!
//! On a boundary face with outward normal `n` and tangentials `tau1, tau2`,
//! Stacey's condition prescribes the traction
//!
//! ```text
//! t_n    = -d1 dun/dt + c1 (dutau1/dtau1 + dutau2/dtau2)
//! t_tau1 = -c1 dun/dtau1 - d2 dutau1/dt
//! t_tau2 = -c1 dun/dtau2 - d2 dutau2/dt
//! ```
//!
//! with `d1 = rho vp`, `d2 = rho vs`, `c1 = -2 mu + sqrt(mu (lambda + 2 mu))`.
//! The velocity terms are lumped into the diagonal damping `C^AB` (they enter
//! the eq. (2.4) update semi-implicitly); the tangential-derivative terms form
//! the unsymmetric face stiffness `K^AB`, applied explicitly each step. Both
//! are local in space and time — the property that makes the condition cheap
//! on thousands of processors.

use quake_fem::quad4::quad4_n_dn_unit;
use quake_mesh::hexmesh::{HexMesh, FACE_CORNERS};

/// Precomputed Stacey data for one absorbing boundary face.
#[derive(Clone, Copy, Debug)]
pub struct AbcFace {
    /// Owning element (faces are partitioned with their elements).
    pub element: u32,
    /// Global node ids of the face corners in quad4 order.
    pub nodes: [u32; 4],
    /// Normal axis (0..3) and outward sign.
    pub normal_axis: usize,
    pub normal_sign: f64,
    /// The two in-face axes, matching the quad4 local axes.
    pub tangent_axes: [usize; 2],
    /// `c1 * h` (the tangential-coupling scale).
    pub c1_h: f64,
    /// Lumped damping per node: normal and tangential (already times
    /// area/4).
    pub d_normal: f64,
    pub d_tangent: f64,
}

/// Build the absorbing faces for a mesh. `absorb[f]` says whether domain
/// face `f` (0/1 = -x/+x, 2/3 = -y/+y, 4/5 = -z/+z) absorbs; the free
/// surface (usually face 4, z = 0) is simply omitted.
pub fn build_abc_faces(mesh: &HexMesh, absorb: [bool; 6]) -> Vec<AbcFace> {
    let mut out = Vec::new();
    for bf in &mesh.boundary_faces {
        if !absorb[bf.face as usize] {
            continue;
        }
        let e = &mesh.elements[bf.element as usize];
        let corners = FACE_CORNERS[bf.face as usize];
        let nodes = std::array::from_fn(|i| e.nodes[corners[i]]);
        let normal_axis = (bf.face / 2) as usize;
        let normal_sign = if bf.face % 2 == 0 { -1.0 } else { 1.0 };
        let tangent_axes = match normal_axis {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let (lambda, mu, rho) = (e.material.lambda, e.material.mu, e.material.rho);
        let vp = ((lambda + 2.0 * mu) / rho).sqrt();
        let vs = (mu / rho).sqrt();
        let c1 = -2.0 * mu + (mu * (lambda + 2.0 * mu)).sqrt();
        let area4 = e.h * e.h / 4.0;
        out.push(AbcFace {
            element: bf.element,
            nodes,
            normal_axis,
            normal_sign,
            tangent_axes,
            c1_h: c1 * e.h,
            d_normal: rho * vp * area4,
            d_tangent: rho * vs * area4,
        });
    }
    out
}

/// Accumulate the lumped `C^AB` diagonal (per dof, 3 comps per node).
pub fn accumulate_abc_damping(faces: &[AbcFace], diag: &mut [f64]) {
    for f in faces {
        for &n in &f.nodes {
            let base = n as usize * 3;
            diag[base + f.normal_axis] += f.d_normal;
            diag[base + f.tangent_axes[0]] += f.d_tangent;
            diag[base + f.tangent_axes[1]] += f.d_tangent;
        }
    }
}

// Runs once per face per step inside the solver's step loop, on fixed-size
// stack scratch (the root `alloc_free` tests count it).
/// Add `scale` times the `K^AB` traction forces at displacement `u` into
/// `force`. The scale parameter lets the solver accumulate `dt^2 * t` into
/// its rhs directly, with no intermediate traction vector.
pub fn apply_abc_stiffness(faces: &[AbcFace], u: &[f64], force: &mut [f64], scale: f64) {
    let fnd = quad4_n_dn_unit();
    for f in faces {
        // Gather the face displacements.
        let mut un = [0.0; 4];
        let mut ut = [[0.0; 4]; 2];
        for (c, &n) in f.nodes.iter().enumerate() {
            let base = n as usize * 3;
            un[c] = f.normal_sign * u[base + f.normal_axis];
            ut[0][c] = u[base + f.tangent_axes[0]];
            ut[1][c] = u[base + f.tangent_axes[1]];
        }
        for (r, &n) in f.nodes.iter().enumerate() {
            let base = n as usize * 3;
            // t_n += c1 (surface divergence of tangential displacement).
            let mut div = 0.0;
            let mut dn0 = 0.0;
            let mut dn1 = 0.0;
            for c in 0..4 {
                div += fnd[0][r][c] * ut[0][c] + fnd[1][r][c] * ut[1][c];
                dn0 += fnd[0][r][c] * un[c];
                dn1 += fnd[1][r][c] * un[c];
            }
            force[base + f.normal_axis] += scale * f.normal_sign * f.c1_h * div;
            force[base + f.tangent_axes[0]] -= scale * f.c1_h * dn0;
            force[base + f.tangent_axes[1]] -= scale * f.c1_h * dn1;
        }
    }
}

/// [`apply_abc_stiffness`] for planar (structure-of-arrays) vectors:
/// `dof = axis * n_nodes + node` with `n_nodes = u.len() / 3`. Per-face
/// arithmetic is identical to the node-major variant — only the
/// gather/scatter indexing differs — so every dof receives a bit-identical
/// contribution.
pub fn apply_abc_stiffness_planar(faces: &[AbcFace], u: &[f64], force: &mut [f64], scale: f64) {
    let n = u.len() / 3;
    let fnd = quad4_n_dn_unit();
    for f in faces {
        let mut un = [0.0; 4];
        let mut ut = [[0.0; 4]; 2];
        for (c, &nd) in f.nodes.iter().enumerate() {
            let nd = nd as usize;
            un[c] = f.normal_sign * u[f.normal_axis * n + nd];
            ut[0][c] = u[f.tangent_axes[0] * n + nd];
            ut[1][c] = u[f.tangent_axes[1] * n + nd];
        }
        for (r, &nd) in f.nodes.iter().enumerate() {
            let nd = nd as usize;
            let mut div = 0.0;
            let mut dn0 = 0.0;
            let mut dn1 = 0.0;
            for c in 0..4 {
                div += fnd[0][r][c] * ut[0][c] + fnd[1][r][c] * ut[1][c];
                dn0 += fnd[0][r][c] * un[c];
                dn1 += fnd[1][r][c] * un[c];
            }
            force[f.normal_axis * n + nd] += scale * f.normal_sign * f.c1_h * div;
            force[f.tangent_axes[0] * n + nd] -= scale * f.c1_h * dn0;
            force[f.tangent_axes[1] * n + nd] -= scale * f.c1_h * dn1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_octree::LinearOctree;

    fn mesh() -> HexMesh {
        HexMesh::from_octree(&LinearOctree::uniform(1), 2.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        })
    }

    #[test]
    fn face_counts_and_coefficients() {
        let m = mesh();
        let faces = build_abc_faces(&m, [true; 6]);
        assert_eq!(faces.len(), 6 * 4);
        let f = &faces[0];
        // vp = 2, vs = 1, h = 1: d_normal = rho vp h^2/4 = 0.5.
        assert!((f.d_normal - 0.5).abs() < 1e-12);
        assert!((f.d_tangent - 0.25).abs() < 1e-12);
        // c1 = -2 mu + sqrt(mu (lambda + 2 mu)) = -2 + 2 = 0 for this material.
        assert!(f.c1_h.abs() < 1e-12);
    }

    #[test]
    fn free_surface_is_skipped() {
        let m = mesh();
        let faces = build_abc_faces(&m, [true, true, true, true, false, true]);
        assert_eq!(faces.len(), 5 * 4);
        assert!(faces.iter().all(|f| !(f.normal_axis == 2 && f.normal_sign < 0.0)));
    }

    #[test]
    fn damping_diag_is_positive_on_abc_nodes_only() {
        let m = mesh();
        let faces = build_abc_faces(&m, [true, false, false, false, false, false]);
        let mut diag = vec![0.0; m.n_nodes() * 3];
        accumulate_abc_damping(&faces, &mut diag);
        for (n, gc) in m.grid_coords.iter().enumerate() {
            let on = gc[0] == 0;
            let d = diag[3 * n] + diag[3 * n + 1] + diag[3 * n + 2];
            assert_eq!(d > 0.0, on, "node {n} at {gc:?}");
        }
    }

    #[test]
    fn stiffness_term_vanishes_for_rigid_translation() {
        // A rigid translation has no tangential derivatives: K^AB u = 0.
        let m = HexMesh::from_octree(&LinearOctree::uniform(1), 2.0, |_, _, _, _| {
            ElemMaterial { lambda: 3.0, mu: 1.0, rho: 1.0 } // c1 != 0 here
        });
        let faces = build_abc_faces(&m, [true; 6]);
        assert!(faces[0].c1_h.abs() > 0.01);
        let u = vec![1.0; m.n_nodes() * 3];
        let mut f = vec![0.0; m.n_nodes() * 3];
        apply_abc_stiffness(&faces, &u, &mut f, 1.0);
        for v in f {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn planar_stiffness_matches_interleaved_bitwise() {
        let m = HexMesh::from_octree(&LinearOctree::uniform(1), 2.0, |_, _, _, _| ElemMaterial {
            lambda: 3.0,
            mu: 1.0,
            rho: 1.0,
        });
        let faces = build_abc_faces(&m, [true, true, true, true, false, true]);
        let n = m.n_nodes();
        let mut s = 424242u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let ui: Vec<f64> = (0..3 * n).map(|_| rnd()).collect();
        let mut up = vec![0.0; 3 * n];
        for nd in 0..n {
            for c in 0..3 {
                up[c * n + nd] = ui[3 * nd + c];
            }
        }
        let mut fi = vec![0.0; 3 * n];
        let mut fp = vec![0.0; 3 * n];
        apply_abc_stiffness(&faces, &ui, &mut fi, 0.37);
        apply_abc_stiffness_planar(&faces, &up, &mut fp, 0.37);
        for nd in 0..n {
            for c in 0..3 {
                assert_eq!(fi[3 * nd + c].to_bits(), fp[c * n + nd].to_bits());
            }
        }
    }

    #[test]
    fn stiffness_forces_balance_globally() {
        // int of dN/dtau over a face is zero row-summed in c, and the force
        // columns sum to zero over the face nodes for linear fields... at
        // minimum, total force from a linear normal field must cancel between
        // opposite tangential directions. Check sum of tangential forces = 0
        // for un linear in tau (pure couple).
        let m = HexMesh::from_octree(&LinearOctree::uniform(1), 2.0, |_, _, _, _| ElemMaterial {
            lambda: 3.0,
            mu: 1.0,
            rho: 1.0,
        });
        let faces = build_abc_faces(&m, [true, false, false, false, false, false]);
        let mut u = vec![0.0; m.n_nodes() * 3];
        // un on the -x face linear in y: u_x = y at x = 0.
        for (n, c) in m.coords.iter().enumerate() {
            if m.grid_coords[n][0] == 0 {
                u[3 * n] = c[1];
            }
        }
        let mut f = vec![0.0; m.n_nodes() * 3];
        apply_abc_stiffness(&faces, &u, &mut f, 1.0);
        let ty: f64 = (0..m.n_nodes()).map(|n| f[3 * n + 1]).sum();
        // The net tangential thrust int c1 dun/dy dA is nonzero (it is the
        // absorbed shear); but the *z*-tangential force must vanish since
        // un has no z-dependence.
        let tz: f64 = (0..m.n_nodes()).map(|n| f[3 * n + 2]).sum();
        assert!(tz.abs() < 1e-12, "tz = {tz}");
        assert!(ty.abs() > 1e-6, "expected nonzero absorbed shear, got {ty}");
    }
}
