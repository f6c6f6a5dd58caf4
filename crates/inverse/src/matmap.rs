//! The material map `P`: inversion-grid vertex values -> element moduli.
//!
//! The inversion parameterizes `mu` on a (usually coarser) vertex grid and
//! the wave solver needs one modulus per element; `P` is multilinear
//! interpolation evaluated at element centers. Gradients pull back through
//! `P^T`. Axes with a single vertex plane are inactive (that is how the 2-D
//! problems reuse the 3-D map).

/// Sparse multilinear interpolation operator.
#[derive(Clone, Debug)]
pub struct MaterialMap {
    /// Per element: up to 8 `(param index, weight)` entries.
    entries: Vec<Vec<(u32, f64)>>,
    n_param: usize,
    /// Vertices per axis.
    pub dims: [usize; 3],
}

impl MaterialMap {
    /// Build for element centers inside `domain` (meters per axis) and an
    /// inversion grid with `dims` vertices per axis (an axis with `dims = 1`
    /// is constant along that axis).
    pub fn new(centers: &[[f64; 3]], domain: [f64; 3], dims: [usize; 3]) -> MaterialMap {
        assert!(dims.iter().all(|&d| d >= 1));
        let n_param = dims[0] * dims[1] * dims[2];
        let entries = centers
            .iter()
            .map(|c| {
                let mut ent: Vec<(u32, f64)> = Vec::with_capacity(8);
                stencil(dims, std::array::from_fn(|a| c[a] / domain[a]), |p, w| {
                    if w != 0.0 {
                        ent.push((p as u32, w));
                    }
                });
                ent
            })
            .collect();
        MaterialMap { entries, n_param, dims }
    }

    pub fn n_param(&self) -> usize {
        self.n_param
    }

    pub fn n_elements(&self) -> usize {
        self.entries.len()
    }

    /// `mu_e = P m`.
    pub fn interpolate(&self, m: &[f64]) -> Vec<f64> {
        assert_eq!(m.len(), self.n_param);
        self.entries.iter().map(|ent| ent.iter().map(|&(p, w)| w * m[p as usize]).sum()).collect()
    }

    /// `g_m = P^T g_e`.
    pub fn transpose_apply(&self, g_e: &[f64]) -> Vec<f64> {
        assert_eq!(g_e.len(), self.entries.len());
        let mut g = vec![0.0; self.n_param];
        for (ent, &ge) in self.entries.iter().zip(g_e) {
            for &(p, w) in ent {
                g[p as usize] += w * ge;
            }
        }
        g
    }
}

/// Calls `f(vertex, weight)` over the multilinear stencil of a grid with
/// `dims` vertices per axis at normalized coordinates `t` (clamped to
/// `[0, 1]`): up to 8 vertices, x fastest. An inactive axis (`dims = 1`)
/// ignores its coordinate and weighs 1.
fn stencil(dims: [usize; 3], t: [f64; 3], mut f: impl FnMut(usize, f64)) {
    // Per axis: lower vertex + fractional weight.
    let mut lo = [0usize; 3];
    let mut frac = [0.0f64; 3];
    for a in 0..3 {
        if dims[a] > 1 {
            let x = t[a].clamp(0.0, 1.0) * (dims[a] - 1) as f64;
            let fl = x.floor().min((dims[a] - 2) as f64);
            lo[a] = fl as usize;
            frac[a] = x - fl;
        }
    }
    for bz in 0..dims[2].min(2) {
        for by in 0..dims[1].min(2) {
            for bx in 0..dims[0].min(2) {
                let w = axis_w(dims[0], bx, frac[0])
                    * axis_w(dims[1], by, frac[1])
                    * axis_w(dims[2], bz, frac[2]);
                f(lo[0] + bx + dims[0] * (lo[1] + by + dims[1] * (lo[2] + bz)), w);
            }
        }
    }
}

/// Multilinear prolongation of a vertex field from `from_dims` to `to_dims`
/// over the same domain (the multiscale-continuation transfer operator).
pub fn prolong(m: &[f64], from_dims: [usize; 3], to_dims: [usize; 3]) -> Vec<f64> {
    assert_eq!(m.len(), from_dims.iter().product::<usize>());
    let mut out = Vec::with_capacity(to_dims.iter().product());
    for k in 0..to_dims[2] {
        for j in 0..to_dims[1] {
            for i in 0..to_dims[0] {
                let t = [
                    norm_coord(i, to_dims[0]),
                    norm_coord(j, to_dims[1]),
                    norm_coord(k, to_dims[2]),
                ];
                let mut acc = 0.0;
                stencil(from_dims, t, |p, w| acc += w * m[p]);
                out.push(acc);
            }
        }
    }
    out
}

fn axis_w(dim: usize, b: usize, frac: f64) -> f64 {
    if dim == 1 {
        1.0
    } else if b == 0 {
        1.0 - frac
    } else {
        frac
    }
}

fn norm_coord(i: usize, dim: usize) -> f64 {
    if dim == 1 {
        0.0
    } else {
        i as f64 / (dim - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn centers_2d(nx: usize, nz: usize, h: f64) -> Vec<[f64; 3]> {
        let mut c = Vec::new();
        for k in 0..nz {
            for i in 0..nx {
                c.push([(i as f64 + 0.5) * h, (k as f64 + 0.5) * h, 0.0]);
            }
        }
        c
    }

    #[test]
    fn constant_field_maps_to_constant() {
        let centers = centers_2d(8, 6, 100.0);
        let map = MaterialMap::new(&centers, [800.0, 600.0, 1.0], [5, 4, 1]);
        let m = vec![3.5; map.n_param()];
        let mu = map.interpolate(&m);
        for v in mu {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_field_is_reproduced_exactly() {
        let centers = centers_2d(10, 10, 50.0);
        let domain = [500.0, 500.0, 1.0];
        let dims = [6, 6, 1];
        let map = MaterialMap::new(&centers, domain, dims);
        let f = |x: f64, y: f64| 2.0 + 3.0 * x / 500.0 - 1.5 * y / 500.0;
        let mut m = vec![0.0; map.n_param()];
        for j in 0..6 {
            for i in 0..6 {
                m[i + 6 * j] = f(i as f64 * 100.0, j as f64 * 100.0);
            }
        }
        let mu = map.interpolate(&m);
        for (v, c) in mu.iter().zip(&centers) {
            assert!((v - f(c[0], c[1])).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_adjoint() {
        let centers = centers_2d(7, 5, 80.0);
        let map = MaterialMap::new(&centers, [560.0, 400.0, 1.0], [4, 3, 1]);
        let mut s = 5u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let m: Vec<f64> = (0..map.n_param()).map(|_| rnd()).collect();
        let g: Vec<f64> = (0..map.n_elements()).map(|_| rnd()).collect();
        let pm = map.interpolate(&m);
        let ptg = map.transpose_apply(&g);
        let lhs: f64 = pm.iter().zip(&g).map(|(a, b)| a * b).sum();
        let rhs: f64 = m.iter().zip(&ptg).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()));
    }

    #[test]
    fn single_vertex_grid_is_a_global_constant() {
        let centers = centers_2d(6, 6, 10.0);
        let map = MaterialMap::new(&centers, [60.0, 60.0, 1.0], [1, 1, 1]);
        assert_eq!(map.n_param(), 1);
        let mu = map.interpolate(&[7.0]);
        assert!(mu.iter().all(|&v| v == 7.0));
        let back = map.transpose_apply(&vec![1.0; map.n_elements()]);
        assert!((back[0] - 36.0).abs() < 1e-12);
    }

    #[test]
    fn prolongation_preserves_linear_fields() {
        // A linear field on a 3x3 grid prolonged to 5x5 stays linear.
        let f = |x: f64, y: f64| 1.0 + 2.0 * x + 3.0 * y;
        let mut coarse = Vec::new();
        for j in 0..3 {
            for i in 0..3 {
                coarse.push(f(i as f64 / 2.0, j as f64 / 2.0));
            }
        }
        let fine = prolong(&coarse, [3, 3, 1], [5, 5, 1]);
        for j in 0..5 {
            for i in 0..5 {
                let expect = f(i as f64 / 4.0, j as f64 / 4.0);
                assert!((fine[i + 5 * j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn prolongation_from_constant_1x1() {
        let fine = prolong(&[4.2], [1, 1, 1], [9, 9, 1]);
        assert_eq!(fine.len(), 81);
        assert!(fine.iter().all(|&v| v == 4.2));
    }
}
