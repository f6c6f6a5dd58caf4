//! The hexahedral mesh data structure and its construction from a balanced
//! linear octree.

use quake_octree::morton::{morton_encode, GRID};
use quake_octree::{node_runs, BalanceMode, LinearOctree, Octant};

/// Per-element material (derived from the velocity model at mesh time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElemMaterial {
    pub lambda: f64,
    pub mu: f64,
    pub rho: f64,
}

impl ElemMaterial {
    pub fn vs(&self) -> f64 {
        (self.mu / self.rho).sqrt()
    }

    pub fn vp(&self) -> f64 {
        ((self.lambda + 2.0 * self.mu) / self.rho).sqrt()
    }
}

/// One cube element: node ids in the bit-coded corner order of `quake-fem`
/// (`corner i = (i&1, (i>>1)&1, (i>>2)&1)`).
#[derive(Clone, Copy, Debug)]
pub struct Element {
    pub nodes: [u32; 8],
    /// Physical edge length (m).
    pub h: f64,
    pub level: u8,
    pub material: ElemMaterial,
}

/// A hanging-node constraint: `u[node] = sum_j w_j u[master_j]` with all
/// masters regular (chains already resolved).
#[derive(Clone, Debug)]
pub struct Constraint {
    pub node: u32,
    pub masters: Vec<(u32, f64)>,
}

/// An element face on the domain boundary. Face ids: 0/1 = -x/+x,
/// 2/3 = -y/+y, 4/5 = -z/+z (z down, so face 4 is the free surface).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryFace {
    pub element: u32,
    pub face: u8,
}

/// Local corner indices of each face, in the quad4 order of `quake-fem`
/// (bit-coded on the two in-face axes).
pub const FACE_CORNERS: [[usize; 4]; 6] = [
    [0, 2, 4, 6], // -x: (y,z) bits
    [1, 3, 5, 7], // +x
    [0, 1, 4, 5], // -y: (x,z) bits
    [2, 3, 6, 7], // +y
    [0, 1, 2, 3], // -z: (x,y) bits (free surface)
    [4, 5, 6, 7], // +z
];

/// A hexahedral finite-element mesh over a cubic physical domain.
#[derive(Clone, Debug)]
pub struct HexMesh {
    /// Physical edge length of the domain (m).
    pub domain_size: f64,
    /// Node coordinates (m), indexed by node id; includes hanging nodes.
    pub coords: Vec<[f64; 3]>,
    /// Grid coordinates of each node on the octree vertex grid.
    pub grid_coords: Vec<[u32; 3]>,
    pub elements: Vec<Element>,
    /// Hanging-node constraints (masters fully resolved to regular nodes).
    pub constraints: Vec<Constraint>,
    /// `true` for hanging nodes, indexed by node id.
    pub hanging: Vec<bool>,
    /// Faces of elements on each domain boundary.
    pub boundary_faces: Vec<BoundaryFace>,
}

impl HexMesh {
    /// Build a mesh from a 2-to-1 balanced octree; materials are sampled at
    /// element centers via `material(x, y, z, h)`.
    pub fn from_octree(
        tree: &LinearOctree,
        domain_size: f64,
        mut material: impl FnMut(f64, f64, f64, f64) -> ElemMaterial,
    ) -> HexMesh {
        assert!(
            tree.is_balanced(BalanceMode::Full),
            "mesh construction requires a fully balanced octree"
        );
        let leaves = tree.leaves();

        // --- Node numbering: Morton-sorted distinct corner keys. ---
        let mut keys: Vec<u64> = Vec::with_capacity(leaves.len() * 8);
        for o in leaves {
            keys.extend(o.corner_keys());
        }
        keys.sort_unstable();
        let hanging: Vec<bool> = node_runs(&keys).map(|(_, h)| h).collect();
        keys.dedup();
        let node_id = |k: u64| -> u32 {
            keys.binary_search(&k).expect("corner key must be registered") as u32
        };

        let scale = domain_size / GRID as f64;
        let mut coords = Vec::with_capacity(keys.len());
        let mut grid_coords = Vec::with_capacity(keys.len());
        for &k in &keys {
            let (x, y, z) = quake_octree::morton_decode(k);
            grid_coords.push([x, y, z]);
            coords.push([x as f64 * scale, y as f64 * scale, z as f64 * scale]);
        }

        // --- Elements. ---
        let mut elements = Vec::with_capacity(leaves.len());
        for o in leaves {
            let h = o.size_unit() * domain_size;
            let ctr = o.center_unit();
            elements.push(Element {
                nodes: o.corner_keys().map(node_id),
                h,
                level: o.level,
                material: material(
                    ctr[0] * domain_size,
                    ctr[1] * domain_size,
                    ctr[2] * domain_size,
                    h,
                ),
            });
        }

        // --- First-level masters; only the nodes that hang by corner
        // multiplicity have their leaves looked up. ---
        let mut raw_masters: Vec<Option<Vec<(u32, f64)>>> = vec![None; keys.len()];
        for (id, gc) in grid_coords.iter().enumerate() {
            if hanging[id] {
                raw_masters[id] = hanging_masters(tree, *gc, &node_id);
            }
        }

        // --- Resolve constraint chains (a master may itself hang from a
        // still-coarser neighbor). Depth is bounded by the level range. ---
        let mut constraints = Vec::new();
        for id in 0..keys.len() {
            let Some(masters) = &raw_masters[id] else { continue };
            let mut resolved: Vec<(u32, f64)> = Vec::new();
            let mut work: Vec<(u32, f64)> = masters.clone();
            let mut depth = 0;
            while let Some((m, w)) = work.pop() {
                if let Some(mm) = &raw_masters[m as usize] {
                    depth += 1;
                    assert!(depth < 64, "constraint chain does not terminate");
                    for (m2, w2) in mm {
                        work.push((*m2, w * w2));
                    }
                } else {
                    match resolved.iter_mut().find(|(r, _)| *r == m) {
                        Some((_, rw)) => *rw += w,
                        None => resolved.push((m, w)),
                    }
                }
            }
            resolved.sort_unstable_by_key(|(m, _)| *m);
            debug_assert!(
                (resolved.iter().map(|(_, w)| w).sum::<f64>() - 1.0).abs() < 1e-12,
                "constraint weights must sum to 1"
            );
            constraints.push(Constraint { node: id as u32, masters: resolved });
        }

        // --- Domain-boundary faces. ---
        let mut boundary_faces = Vec::new();
        for (ei, o) in leaves.iter().enumerate() {
            let s = o.size();
            let checks = [
                (0u8, o.x == 0),
                (1, o.x + s == GRID),
                (2, o.y == 0),
                (3, o.y + s == GRID),
                (4, o.z == 0),
                (5, o.z + s == GRID),
            ];
            for (face, on) in checks {
                if on {
                    boundary_faces.push(BoundaryFace { element: ei as u32, face });
                }
            }
        }

        HexMesh { domain_size, coords, grid_coords, elements, constraints, hanging, boundary_faces }
    }

    pub fn n_nodes(&self) -> usize {
        self.coords.len()
    }

    pub fn n_elements(&self) -> usize {
        self.elements.len()
    }

    pub fn n_hanging(&self) -> usize {
        self.constraints.len()
    }

    // Hanging-node fold/interpolate run on every vector in every step; the
    // root tests `alloc_free` and `bit_pins` check that they allocate nothing
    // and stay bit-deterministic.
    /// Fold hanging entries of a force-like vector into their masters
    /// (`f <- B^T f`); hanging entries are zeroed. `ncomp` components per
    /// node, node-major (`dof = ncomp*node + comp`).
    pub fn fold_hanging(&self, f: &mut [f64], ncomp: usize) {
        assert_eq!(f.len(), self.n_nodes() * ncomp);
        for c in &self.constraints {
            for comp in 0..ncomp {
                let v = f[c.node as usize * ncomp + comp];
                if v != 0.0 {
                    for &(m, w) in &c.masters {
                        f[m as usize * ncomp + comp] += w * v;
                    }
                }
                f[c.node as usize * ncomp + comp] = 0.0;
            }
        }
    }

    /// Fold hanging entries of a *diagonal* (squared weights):
    /// `diag(B^T A B) = A_mm + sum_h w_hm^2 A_hh`. Hanging entries are set
    /// to 1 so they can never produce a division by zero.
    pub fn fold_hanging_diag(&self, diag: &mut [f64], ncomp: usize) {
        assert_eq!(diag.len(), self.n_nodes() * ncomp);
        for c in &self.constraints {
            for comp in 0..ncomp {
                let v = diag[c.node as usize * ncomp + comp];
                for &(m, w) in &c.masters {
                    diag[m as usize * ncomp + comp] += w * w * v;
                }
                diag[c.node as usize * ncomp + comp] = 1.0;
            }
        }
    }

    /// Interpolate hanging values from their masters (`u <- B u_bar`).
    pub fn interpolate_hanging(&self, u: &mut [f64], ncomp: usize) {
        assert_eq!(u.len(), self.n_nodes() * ncomp);
        for c in &self.constraints {
            for comp in 0..ncomp {
                let mut v = 0.0;
                for &(m, w) in &c.masters {
                    v += w * u[m as usize * ncomp + comp];
                }
                u[c.node as usize * ncomp + comp] = v;
            }
        }
    }

    /// [`fold_hanging`](Self::fold_hanging) for planar (structure-of-arrays)
    /// storage: component planes of `n_nodes` values each, `dof = comp *
    /// n_nodes + node`. Per-dof arithmetic and accumulation order are
    /// identical to the node-major variant — only the indexing differs — so
    /// each dof's result is bit-identical to folding the interleaved vector.
    pub fn fold_hanging_planar(&self, f: &mut [f64], ncomp: usize) {
        HexMesh::fold_constraints_planar(&self.constraints, self.n_nodes(), f, ncomp);
    }

    /// [`fold_hanging_planar`](Self::fold_hanging_planar) over an explicit
    /// constraint list over `n` nodes — a rate group's constraint clusters,
    /// visited in the order given (the same per-constraint arithmetic, so
    /// folding a partition of the mesh's constraints group by group
    /// reproduces the whole-mesh fold bit for bit).
    pub fn fold_constraints_planar(
        constraints: &[Constraint],
        n: usize,
        f: &mut [f64],
        ncomp: usize,
    ) {
        assert_eq!(f.len(), n * ncomp);
        for c in constraints {
            for comp in 0..ncomp {
                let v = f[comp * n + c.node as usize];
                if v != 0.0 {
                    for &(m, w) in &c.masters {
                        f[comp * n + m as usize] += w * v;
                    }
                }
                f[comp * n + c.node as usize] = 0.0;
            }
        }
    }

    /// [`interpolate_hanging`](Self::interpolate_hanging) for planar
    /// (structure-of-arrays) storage (`dof = comp * n_nodes + node`).
    pub fn interpolate_hanging_planar(&self, u: &mut [f64], ncomp: usize) {
        HexMesh::interpolate_constraints_planar(&self.constraints, self.n_nodes(), u, ncomp);
    }

    /// [`interpolate_hanging_planar`](Self::interpolate_hanging_planar) over
    /// an explicit constraint list (see
    /// [`fold_constraints_planar`](Self::fold_constraints_planar)).
    pub fn interpolate_constraints_planar(
        constraints: &[Constraint],
        n: usize,
        u: &mut [f64],
        ncomp: usize,
    ) {
        assert_eq!(u.len(), n * ncomp);
        for c in constraints {
            for comp in 0..ncomp {
                let mut v = 0.0;
                for &(m, w) in &c.masters {
                    v += w * u[comp * n + m as usize];
                }
                u[comp * n + c.node as usize] = v;
            }
        }
    }

    /// Node id nearest to a physical point (for receiver placement).
    pub fn nearest_node(&self, p: [f64; 3]) -> u32 {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.coords.iter().enumerate() {
            let d = (c[0] - p[0]).powi(2) + (c[1] - p[1]).powi(2) + (c[2] - p[2]).powi(2);
            if d < best_d && !self.hanging[i] {
                best_d = d;
                best = i as u32;
            }
        }
        best
    }

    /// The element containing a physical point, with the point's local
    /// reference coordinates in `[0,1]^3`.
    pub fn locate(&self, tree: &LinearOctree, p: [f64; 3]) -> Option<(u32, [f64; 3])> {
        // Written as a range test so that NaN is outside too.
        if p.iter().any(|v| !(0.0..=self.domain_size).contains(v)) {
            return None;
        }
        let g = GRID as f64 / self.domain_size;
        let to_grid = |v: f64| -> u32 { ((v * g).floor().max(0.0) as u32).min(GRID - 1) };
        let idx = tree.find_containing_index(to_grid(p[0]), to_grid(p[1]), to_grid(p[2]))?;
        let e = &self.elements[idx];
        let lo = self.coords[e.nodes[0] as usize];
        let xi = [
            ((p[0] - lo[0]) / e.h).clamp(0.0, 1.0),
            ((p[1] - lo[1]) / e.h).clamp(0.0, 1.0),
            ((p[2] - lo[2]) / e.h).clamp(0.0, 1.0),
        ];
        Some((idx as u32, xi))
    }

    /// Estimated solver memory per grid point in bytes (for the
    /// hex-vs-tet memory comparison): the hex solver stores only nodal
    /// vectors plus per-element scalars.
    pub fn memory_estimate_bytes(&self, ncomp: usize) -> usize {
        // 3 state vectors + mass/damping diagonals + force, ncomp each.
        let per_node = 8 * ncomp * 6;
        let per_elem = 8 * 4 + 4 * 8 + 8; // materials + node ids + h
        self.n_nodes() * per_node + self.n_elements() * per_elem
    }
}

/// If node `p` is hanging, return its (first-level) masters with weights.
///
/// `p` hangs iff some incident leaf does not have it as a corner; it then
/// sits at an edge midpoint (2 masters, 1/2 each) or face center (4 masters,
/// 1/4 each) of the *coarsest* such leaf.
fn hanging_masters(
    tree: &LinearOctree,
    p: [u32; 3],
    node_id: &impl Fn(u64) -> u32,
) -> Option<Vec<(u32, f64)>> {
    let mut coarsest: Option<&Octant> = None;
    for dz in 0..2u32 {
        for dy in 0..2u32 {
            for dx in 0..2u32 {
                if dx > p[0] || dy > p[1] || dz > p[2] {
                    continue;
                }
                let q = (p[0] - dx, p[1] - dy, p[2] - dz);
                if q.0 >= GRID || q.1 >= GRID || q.2 >= GRID {
                    continue;
                }
                let Some(leaf) = tree.find_containing(q.0, q.1, q.2) else { continue };
                let s = leaf.size();
                let is_corner = (p[0] == leaf.x || p[0] == leaf.x + s)
                    && (p[1] == leaf.y || p[1] == leaf.y + s)
                    && (p[2] == leaf.z || p[2] == leaf.z + s);
                if !is_corner && coarsest.is_none_or(|c| leaf.level < c.level) {
                    coarsest = Some(leaf);
                }
            }
        }
    }
    let leaf = coarsest?;
    let s = leaf.size();
    let rel = [p[0] - leaf.x, p[1] - leaf.y, p[2] - leaf.z];
    let mut mid_axes = Vec::new();
    for (a, &r) in rel.iter().enumerate() {
        if r == s / 2 {
            mid_axes.push(a);
        } else {
            assert!(r == 0 || r == s, "node off the half-grid of a balanced tree");
        }
    }
    match mid_axes.len() {
        1 => {
            // Edge midpoint: endpoints along the mid axis.
            let a = mid_axes[0];
            let mut m = Vec::with_capacity(2);
            for v in [0, s] {
                let mut q = [leaf.x + rel[0], leaf.y + rel[1], leaf.z + rel[2]];
                q[a] = [leaf.x, leaf.y, leaf.z][a] + v;
                m.push((node_id(morton_encode(q[0], q[1], q[2])), 0.5));
            }
            Some(m)
        }
        2 => {
            // Face center: the four face corners.
            let (a, b) = (mid_axes[0], mid_axes[1]);
            let lo = [leaf.x, leaf.y, leaf.z];
            let mut m = Vec::with_capacity(4);
            for va in [0, s] {
                for vb in [0, s] {
                    let mut q = [leaf.x + rel[0], leaf.y + rel[1], leaf.z + rel[2]];
                    q[a] = lo[a] + va;
                    q[b] = lo[b] + vb;
                    m.push((node_id(morton_encode(q[0], q[1], q[2])), 0.25));
                }
            }
            Some(m)
        }
        n => panic!("impossible hanging-node configuration with {n} mid axes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_octree::MAX_LEVEL;

    fn mat(_x: f64, _y: f64, _z: f64, _h: f64) -> ElemMaterial {
        ElemMaterial { lambda: 1.0, mu: 1.0, rho: 1.0 }
    }

    fn one_refined() -> (LinearOctree, HexMesh) {
        let t = LinearOctree::build(|o| {
            o.level == 0 || (o.level == 1 && o.x == 0 && o.y == 0 && o.z == 0)
        });
        let m = HexMesh::from_octree(&t, 100.0, mat);
        (t, m)
    }

    #[test]
    fn known_two_level_mesh_counts() {
        let (_, m) = one_refined();
        assert_eq!(m.n_elements(), 15);
        assert_eq!(m.n_nodes(), 46);
        assert_eq!(m.n_hanging(), 12);
        // All six domain boundaries are present.
        for face in 0..6u8 {
            assert!(m.boundary_faces.iter().any(|b| b.face == face));
        }
    }

    #[test]
    fn uniform_mesh_counts_and_no_constraints() {
        let t = LinearOctree::uniform(2);
        let m = HexMesh::from_octree(&t, 80.0, mat);
        assert_eq!(m.n_elements(), 64);
        assert_eq!(m.n_nodes(), 125);
        assert_eq!(m.n_hanging(), 0);
        // 4x4 faces on each of the 6 sides.
        assert_eq!(m.boundary_faces.len(), 6 * 16);
        // Element sizes all equal domain/4.
        for e in &m.elements {
            assert!((e.h - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hanging_interpolation_reproduces_linear_fields() {
        // The defining property of the constraints: a globally linear field
        // restricted to the regular nodes interpolates *exactly* at hanging
        // nodes. Use a deeper adaptive tree including constraint chains.
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut t = LinearOctree::build(|o| o.level < 4 && o.contains_point(half, half, half));
        t.balance(BalanceMode::Full);
        let m = HexMesh::from_octree(&t, 1.0, mat);
        assert!(m.n_hanging() > 0);
        let f = |p: [f64; 3]| 3.0 * p[0] - 2.0 * p[1] + 0.5 * p[2] + 7.0;
        let mut u: Vec<f64> = m.coords.iter().map(|&c| f(c)).collect();
        // Scribble on the hanging entries, then restore by interpolation.
        for c in &m.constraints {
            u[c.node as usize] = -999.0;
        }
        m.interpolate_hanging(&mut u, 1);
        for (i, c) in m.coords.iter().enumerate() {
            assert!((u[i] - f(*c)).abs() < 1e-9, "node {i} at {c:?}: {} vs {}", u[i], f(*c));
        }
    }

    #[test]
    fn fold_and_interpolate_are_adjoint() {
        let (_, m) = one_refined();
        let n = m.n_nodes();
        // Deterministic pseudo-random vectors.
        let mut s = 1234567u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let f: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let mut ub: Vec<f64> = (0..n).map(|_| rnd()).collect();
        // u_bar lives on regular nodes: zero hanging entries.
        for c in &m.constraints {
            ub[c.node as usize] = 0.0;
        }
        // <B^T f, u_bar> == <f, B u_bar>.
        let mut ftf = f.clone();
        m.fold_hanging(&mut ftf, 1);
        let lhs: f64 = ftf.iter().zip(&ub).map(|(a, b)| a * b).sum();
        let mut bu = ub.clone();
        m.interpolate_hanging(&mut bu, 1);
        let rhs: f64 = f.iter().zip(&bu).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn planar_fold_and_interpolate_match_interleaved_bitwise() {
        let (_, m) = one_refined();
        let n = m.n_nodes();
        let ncomp = 3;
        let mut s = 987654321u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let inter: Vec<f64> = (0..n * ncomp).map(|_| rnd()).collect();
        // Planar copy of the same field: dof = comp * n + node.
        let mut planar = vec![0.0; n * ncomp];
        for nd in 0..n {
            for c in 0..ncomp {
                planar[c * n + nd] = inter[nd * ncomp + c];
            }
        }
        let mut fi = inter.clone();
        let mut fp = planar.clone();
        m.fold_hanging(&mut fi, ncomp);
        m.fold_hanging_planar(&mut fp, ncomp);
        for nd in 0..n {
            for c in 0..ncomp {
                assert_eq!(fi[nd * ncomp + c].to_bits(), fp[c * n + nd].to_bits());
            }
        }
        let mut ui = inter;
        let mut up = planar;
        m.interpolate_hanging(&mut ui, ncomp);
        m.interpolate_hanging_planar(&mut up, ncomp);
        for nd in 0..n {
            for c in 0..ncomp {
                assert_eq!(ui[nd * ncomp + c].to_bits(), up[c * n + nd].to_bits());
            }
        }
    }

    #[test]
    fn fold_diag_uses_squared_weights() {
        let (_, m) = one_refined();
        let n = m.n_nodes();
        let mut diag = vec![2.0; n];
        m.fold_hanging_diag(&mut diag, 1);
        // An edge-hanging node contributes 0.25 * 2.0 to each of 2 masters;
        // face-hanging 0.0625 * 2.0 to each of 4. Every master got >= 2.0.
        for c in &m.constraints {
            assert_eq!(diag[c.node as usize], 1.0);
            for &(mst, _) in &c.masters {
                assert!(diag[mst as usize] > 2.0);
            }
        }
    }

    #[test]
    fn locate_finds_containing_element() {
        let (t, m) = one_refined();
        let (ei, xi) = m.locate(&t, [10.0, 10.0, 10.0]).unwrap();
        let e = &m.elements[ei as usize];
        assert!((e.h - 25.0).abs() < 1e-9, "should land in a fine element");
        for v in xi {
            assert!((0.0..=1.0).contains(&v));
        }
        // Interpolating node coordinates at xi recovers the point.
        let n = quake_fem_shape(xi);
        let mut p = [0.0; 3];
        for (c, w) in e.nodes.iter().zip(&n) {
            for d in 0..3 {
                p[d] += w * m.coords[*c as usize][d];
            }
        }
        for d in 0..3 {
            assert!((p[d] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn locate_rejects_non_finite_and_outside_points() {
        let (t, m) = one_refined();
        for axis in 0..3 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9, 100.0 + 1e-9] {
                let mut p = [10.0; 3];
                p[axis] = bad;
                assert_eq!(m.locate(&t, p), None, "axis {axis} = {bad}");
            }
        }
        // The closed domain is inside, far faces included.
        assert!(m.locate(&t, [0.0; 3]).is_some());
        assert!(m.locate(&t, [100.0; 3]).is_some());
    }

    // Minimal local copy of the trilinear shape functions to avoid a test
    // dependency cycle.
    fn quake_fem_shape(xi: [f64; 3]) -> [f64; 8] {
        let mut n = [0.0; 8];
        for (i, ni) in n.iter_mut().enumerate() {
            let fx = if i & 1 == 0 { 1.0 - xi[0] } else { xi[0] };
            let fy = if (i >> 1) & 1 == 0 { 1.0 - xi[1] } else { xi[1] };
            let fz = if (i >> 2) & 1 == 0 { 1.0 - xi[2] } else { xi[2] };
            *ni = fx * fy * fz;
        }
        n
    }
}
