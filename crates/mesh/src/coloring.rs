//! Node-disjoint element coloring: the deterministic sweep order.
//!
//! The explicit step scatters each element's 24 force contributions into the
//! global rhs through its 8 corner nodes. We greedily partition the elements
//! into *colors* such that within one color all corner-node sets are
//! pairwise disjoint, and the solver sweeps color by color.
//!
//! Because each node is written by at most one element per color, the sum
//! order at every node is fixed by the coloring alone: the solver may
//! reorder the elements *inside* a color (it sorts them by stiffness class,
//! see `quake_solver::sweep`) without changing a single floating-point sum.
//! That is all the coloring is used for — an order, not a race guard: the
//! sweep is serial within a rank, and parallelism lives in ranks and serve
//! workers (DESIGN.md "Why the sweep is serial within a rank").

use crate::hexmesh::HexMesh;

/// A node-disjoint coloring of an element subset, stored color-major.
#[derive(Clone, Debug)]
pub struct ElementColoring {
    /// Element ids grouped by color; within a color, ascending id (Morton)
    /// order.
    pub order: Vec<u32>,
    /// Half-open ranges into `order`: color `c` is
    /// `order[offsets[c]..offsets[c+1]]`.
    pub offsets: Vec<usize>,
}

impl ElementColoring {
    pub fn n_colors(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The element ids of color `c`.
    pub fn color(&self, c: usize) -> &[u32] {
        &self.order[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Iterate the colors as slices of element ids.
    pub fn colors(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.n_colors()).map(move |c| self.color(c))
    }
}

/// Greedy first-fit coloring of `elems` (a subset of `mesh` element ids, in
/// ascending order) such that no two elements of one color share a corner
/// node. Deterministic; a 2-to-1 balanced hex mesh needs ~8-16 colors (up to
/// 8 same-size elements meet at a regular node), far below the 128-color cap.
pub fn color_elements(mesh: &HexMesh, elems: &[u32]) -> ElementColoring {
    let mut node_mask = vec![0u128; mesh.coords.len()];
    let mut colors = Vec::with_capacity(elems.len());
    let mut n_colors = 0usize;
    for &e in elems {
        let nodes = mesh.elements[e as usize].nodes;
        let mut used: u128 = 0;
        for &n in &nodes {
            used |= node_mask[n as usize];
        }
        let c = (!used).trailing_zeros() as usize;
        assert!(c < 128, "element coloring exceeded 128 colors");
        for &n in &nodes {
            node_mask[n as usize] |= 1u128 << c;
        }
        n_colors = n_colors.max(c + 1);
        colors.push(c);
    }

    // Bucket color-major, keeping ascending element order within each color.
    let mut offsets = vec![0usize; n_colors + 1];
    for &c in &colors {
        offsets[c + 1] += 1;
    }
    for i in 1..=n_colors {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; elems.len()];
    for (i, &e) in elems.iter().enumerate() {
        let c = colors[i];
        order[cursor[c]] = e;
        cursor[c] += 1;
    }
    ElementColoring { order, offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hexmesh::ElemMaterial;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};

    fn mat(_: f64, _: f64, _: f64, _: f64) -> ElemMaterial {
        ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 }
    }

    fn check_valid(mesh: &HexMesh, elems: &[u32], coloring: &ElementColoring) {
        // Permutation of the input subset.
        let mut sorted = coloring.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, elems);
        // Node-disjoint within each color.
        let mut owner = vec![u32::MAX; mesh.coords.len()];
        for color in coloring.colors() {
            owner.iter_mut().for_each(|o| *o = u32::MAX);
            for &e in color {
                for &n in &mesh.elements[e as usize].nodes {
                    assert_eq!(owner[n as usize], u32::MAX, "node {n} shared within a color");
                    owner[n as usize] = e;
                }
            }
        }
    }

    #[test]
    fn uniform_mesh_coloring_is_valid_and_compact() {
        let mesh = HexMesh::from_octree(&LinearOctree::uniform(3), 8.0, mat);
        let elems: Vec<u32> = (0..mesh.elements.len() as u32).collect();
        let c = color_elements(&mesh, &elems);
        check_valid(&mesh, &elems, &c);
        // A uniform grid 8-colors like a 3-D checkerboard.
        assert_eq!(c.n_colors(), 8);
    }

    #[test]
    fn hanging_node_mesh_coloring_is_valid() {
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut tree = LinearOctree::build(|o| o.level < 3 || (o.level < 4 && o.x < half));
        tree.balance(BalanceMode::Full);
        let mesh = HexMesh::from_octree(&tree, 8.0, mat);
        let elems: Vec<u32> = (0..mesh.elements.len() as u32).collect();
        let c = color_elements(&mesh, &elems);
        check_valid(&mesh, &elems, &c);
        assert!(c.n_colors() <= 32, "unexpectedly many colors: {}", c.n_colors());
    }

    #[test]
    fn subset_coloring_is_valid() {
        let mesh = HexMesh::from_octree(&LinearOctree::uniform(3), 8.0, mat);
        let elems: Vec<u32> = (0..mesh.elements.len() as u32).filter(|e| e % 3 != 0).collect();
        let c = color_elements(&mesh, &elems);
        check_valid(&mesh, &elems, &c);
    }
}
