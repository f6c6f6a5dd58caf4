//! Linear octrees: sorted leaf sets with construction, point location and
//! 2-to-1 balancing.

use crate::morton::{morton_decode, morton_encode, GRID, LEVEL_BITS, MAX_LEVEL};
use crate::octant::Octant;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

/// Which neighbor relations the 2-to-1 constraint is enforced across.
///
/// The mesher uses [`BalanceMode::Full`] (faces, edges and corners), which
/// keeps the hanging-node rules of the paper — midside = average of 2 edge
/// masters, midface = average of 4 — sufficient everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceMode {
    /// Across shared faces only.
    Face,
    /// Faces and edges.
    FaceEdge,
    /// Faces, edges and corners (26-neighborhood).
    Full,
}

impl BalanceMode {
    fn admits(&self, d: (i32, i32, i32)) -> bool {
        let taxicab = d.0.abs() + d.1.abs() + d.2.abs();
        match self {
            BalanceMode::Face => taxicab <= 1,
            BalanceMode::FaceEdge => taxicab <= 2,
            BalanceMode::Full => true,
        }
    }

    /// The admitted direction set.
    pub fn directions(&self) -> Vec<(i32, i32, i32)> {
        Octant::all_directions().filter(|&d| self.admits(d)).collect()
    }
}

/// A complete linear octree: the leaves, sorted by locational key.
#[derive(Clone, Debug)]
pub struct LinearOctree {
    leaves: Vec<Octant>,
    /// `leaves[i].key()`: the key is interleaved once, when the leaves are
    /// sorted, so point location is a plain `u64` search.
    keys: Vec<u64>,
}

impl LinearOctree {
    /// Build by recursive refinement from the root: `refine(o)` decides
    /// whether octant `o` is subdivided. This is the in-core equivalent of
    /// the etree *auto-navigation* construct step.
    pub fn build(mut refine: impl FnMut(&Octant) -> bool) -> LinearOctree {
        let mut leaves = Vec::new();
        let mut stack = vec![Octant::ROOT];
        while let Some(o) = stack.pop() {
            if o.level < MAX_LEVEL && refine(&o) {
                stack.extend(o.children());
            } else {
                leaves.push(o);
            }
        }
        LinearOctree::sorted(leaves)
    }

    fn sorted(leaves: Vec<Octant>) -> LinearOctree {
        let mut keyed: Vec<(u64, Octant)> = leaves.into_iter().map(|o| (o.key(), o)).collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let (keys, leaves) = keyed.into_iter().unzip();
        LinearOctree { leaves, keys }
    }

    /// Wrap an existing leaf set (sorted internally). The caller must supply
    /// a complete, disjoint cover; `debug_assert`ed via
    /// [`LinearOctree::validate_complete`].
    pub fn from_leaves(leaves: Vec<Octant>) -> LinearOctree {
        let t = LinearOctree::sorted(leaves);
        debug_assert!(t.validate_complete(), "leaf set is not a complete disjoint cover");
        t
    }

    /// A uniform tree at the given level (`8^level` leaves).
    pub fn uniform(level: u8) -> LinearOctree {
        LinearOctree::build(|o| o.level < level)
    }

    pub fn leaves(&self) -> &[Octant] {
        &self.leaves
    }

    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    pub fn max_level(&self) -> u8 {
        self.leaves.iter().map(|o| o.level).max().unwrap_or(0)
    }

    pub fn min_level(&self) -> u8 {
        self.leaves.iter().map(|o| o.level).min().unwrap_or(0)
    }

    /// Leaf counts per level, indexed by level.
    pub fn level_histogram(&self) -> Vec<usize> {
        level_histogram_of(self.leaves.iter().map(|o| o.level))
    }

    /// Index of the leaf containing the grid point: the last leaf whose key
    /// does not exceed the point's deepest-level key.
    pub fn find_containing_index(&self, px: u32, py: u32, pz: u32) -> Option<usize> {
        if px >= GRID || py >= GRID || pz >= GRID {
            return None;
        }
        let key = (morton_encode(px, py, pz) << LEVEL_BITS) | MAX_LEVEL as u64;
        let idx = self.keys.partition_point(|&k| k <= key).checked_sub(1)?;
        self.leaves[idx].contains_point(px, py, pz).then_some(idx)
    }

    /// The leaf containing a grid point.
    pub fn find_containing(&self, px: u32, py: u32, pz: u32) -> Option<&Octant> {
        self.find_containing_index(px, py, pz).map(|i| &self.leaves[i])
    }

    /// Enforce the 2-to-1 constraint by global ripple refinement. Produces
    /// the unique minimal balanced refinement of the current leaf set.
    pub fn balance(&mut self, mode: BalanceMode) {
        let mut map: BTreeMap<u64, Octant> =
            self.keys.iter().copied().zip(self.leaves.iter().copied()).collect();
        let Ok(_) = ripple(&mut map, self.leaves.iter().copied(), self.min_level(), mode);
        (self.keys, self.leaves) = map.into_iter().unzip();
    }

    /// True if every pair of touching leaves (per `mode`) differs by at most
    /// one level: no leaf coarser than a sibling family covers one of the
    /// family's sample points (the family rule of [`ripple`]).
    pub fn is_balanced(&self, mode: BalanceMode) -> bool {
        let dirs = mode.directions();
        families(self.leaves.iter().copied(), self.min_level()).iter().all(|f| {
            dirs.iter().filter_map(|&d| sample_point(f, d)).all(|p| {
                let n = self
                    .find_containing(p.0, p.1, p.2)
                    .expect("complete octree must cover sample point");
                n.level >= f.level
            })
        })
    }

    /// Check that the leaves are disjoint and tile the whole domain.
    pub fn validate_complete(&self) -> bool {
        let mut vol: u128 = 0;
        for w in self.leaves.windows(2) {
            if w[0].contains(&w[1]) || w[1].contains(&w[0]) {
                return false;
            }
        }
        for o in &self.leaves {
            vol += (o.size() as u128).pow(3);
        }
        vol == (GRID as u128).pow(3)
    }
}

/// Counts per level (index = level) of a level sequence — the single
/// histogram routine behind [`LinearOctree::level_histogram`] and the mesh
/// statistics in `quake-mesh` (`MeshStats`). Empty input yields an empty
/// histogram; otherwise the result has `max(level) + 1` entries.
pub fn level_histogram_of(levels: impl IntoIterator<Item = u8>) -> Vec<usize> {
    let mut h = Vec::new();
    for level in levels {
        if h.len() <= level as usize {
            h.resize(level as usize + 1, 0);
        }
        h[level as usize] += 1;
    }
    h
}

/// The mesh nodes of a complete octree, read off `sorted_keys` — every
/// leaf's [`Octant::corner_keys`], duplicates kept, sorted: each distinct key
/// in Morton order (its rank is the node id) with its hanging flag.
///
/// *Corner multiplicity*: the 8 grid cells around a node (4, 2, 1 on a
/// domain face, edge, corner) each lie in exactly one leaf, and a leaf that
/// has the node as a corner covers exactly one of them; so the node is a
/// corner of every incident leaf — regular — iff its key occurs
/// `8 >> (axes on the boundary)` times, and hangs iff it occurs fewer.
pub fn node_runs(sorted_keys: &[u64]) -> impl Iterator<Item = (u64, bool)> + '_ {
    sorted_keys.chunk_by(|a, b| a == b).map(|run| {
        let (x, y, z) = morton_decode(run[0]);
        let on_boundary = [x, y, z].iter().filter(|&&v| v == 0 || v == GRID).count();
        (run[0], run.len() < 8 >> on_boundary)
    })
}

/// Sample grid point just outside `o` in direction `d` (None if outside the
/// domain). One point per direction suffices to detect a *coarser* toucher,
/// because a leaf at a coarser level that touches `o` across `d` necessarily
/// covers the aligned block this point lies in.
pub fn sample_point(o: &Octant, d: (i32, i32, i32)) -> Option<(u32, u32, u32)> {
    let s = o.size() as i64;
    let comp = |base: u32, di: i32| -> i64 {
        match di {
            -1 => base as i64 - 1,
            0 => base as i64,
            1 => base as i64 + s,
            _ => unreachable!(),
        }
    };
    let (px, py, pz) = (comp(o.x, d.0), comp(o.y, d.1), comp(o.z, d.2));
    let g = GRID as i64;
    if px < 0 || py < 0 || pz < 0 || px >= g || py >= g || pz >= g {
        return None;
    }
    Some((px as u32, py as u32, pz as u32))
}

/// The sibling families the 2-to-1 rule is checked on: the parents of
/// `leaves`, sorted by key and deduplicated. Families at `floor` (the
/// coarsest leaf level) or coarser are left out: nothing is coarser than
/// them, so they cannot be the fine side of a violation.
fn families(leaves: impl IntoIterator<Item = Octant>, floor: u8) -> Vec<Octant> {
    let mut families: Vec<Octant> =
        leaves.into_iter().filter(|o| o.level > floor + 1).filter_map(|o| o.parent()).collect();
    families.sort_unstable_by_key(Octant::key);
    families.dedup();
    families
}

/// A complete leaf set that [`ripple`] refines: point location and a split.
/// The in-core `BTreeMap` (keyed by [`Octant::key`]) cannot fail; the etree
/// implements it over its octant store, whose calls return I/O errors.
pub trait LeafSet {
    type Error;
    /// The leaf containing grid point `p`.
    fn leaf_at(&mut self, p: (u32, u32, u32)) -> Result<Octant, Self::Error>;
    /// Replace leaf `n` by its eight children.
    fn split(&mut self, n: Octant) -> Result<(), Self::Error>;
}

impl LeafSet for BTreeMap<u64, Octant> {
    type Error = Infallible;

    fn leaf_at(&mut self, p: (u32, u32, u32)) -> Result<Octant, Infallible> {
        let key = (morton_encode(p.0, p.1, p.2) << LEVEL_BITS) | MAX_LEVEL as u64;
        let (_, &o) = self
            .range(..=key)
            .next_back()
            .filter(|(_, o)| o.contains_point(p.0, p.1, p.2))
            .expect("complete octree must cover sample point");
        Ok(o)
    }

    fn split(&mut self, n: Octant) -> Result<(), Infallible> {
        self.remove(&n.key());
        self.extend(n.children().map(|c| (c.key(), c)));
        Ok(())
    }
}

/// The ripple-refinement loop: the one place a leaf is split to satisfy
/// 2-to-1, for the in-core balance and the etree's balance on its store.
/// `floor` is the coarsest leaf level: splitting only raises levels, so a
/// family at `floor` or coarser never has a coarser toucher. Returns the
/// number of sample points probed.
///
/// The rule is checked once per sibling family, not once per leaf: a leaf
/// violates 2-to-1 exactly when a leaf coarser than its parent covers one of
/// the parent's sample points, so the parents of `leaves` are probed, and a
/// split leaf is queued once, as the parent of its new family.
pub fn ripple<L: LeafSet>(
    set: &mut L,
    leaves: impl IntoIterator<Item = Octant>,
    floor: u8,
    mode: BalanceMode,
) -> Result<u64, L::Error> {
    let dirs = mode.directions();
    let mut queue = VecDeque::from(families(leaves, floor));
    let mut probes = 0;
    while let Some(f) = queue.pop_front() {
        for &d in &dirs {
            let Some(p) = sample_point(&f, d) else { continue };
            probes += 1;
            // Split the covering leaf until it is at the family's level.
            loop {
                let n = set.leaf_at(p)?;
                if n.level >= f.level {
                    break;
                }
                set.split(n)?;
                if n.level > floor {
                    queue.push_back(n);
                }
            }
        }
    }
    Ok(probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tree_counts() {
        for level in 0..4u8 {
            let t = LinearOctree::uniform(level);
            assert_eq!(t.len(), 8usize.pow(level as u32));
            assert!(t.validate_complete());
            assert!(t.is_balanced(BalanceMode::Full));
        }
    }

    #[test]
    fn build_refines_only_where_asked() {
        // Refine only the octant containing the origin corner, three times.
        let t = LinearOctree::build(|o| o.level < 3 && o.x == 0 && o.y == 0 && o.z == 0);
        // Each refinement of one octant adds 7 leaves: 1 -> 8 -> 15 -> 22.
        assert_eq!(t.len(), 22);
        assert!(t.validate_complete());
        assert_eq!(t.max_level(), 3);
        assert_eq!(t.min_level(), 1);
    }

    #[test]
    fn point_location_finds_the_right_leaf() {
        let t = LinearOctree::build(|o| {
            o.level < 2 || (o.level < 4 && o.x == 0 && o.y == 0 && o.z == 0)
        });
        assert!(t.validate_complete());
        for o in t.leaves() {
            let c = (o.x + o.size() / 2, o.y + o.size() / 2, o.z + o.size() / 2);
            assert_eq!(t.find_containing(c.0, c.1, c.2), Some(o));
            assert_eq!(t.find_containing(o.x, o.y, o.z), Some(o));
        }
        assert!(t.find_containing(GRID, 0, 0).is_none());
    }

    #[test]
    fn unbalanced_seed_becomes_balanced_minimally() {
        // Deep refinement around the domain center: across the center planes
        // the deep leaves touch level-1 leaves, violating 2:1 badly. (A tree
        // refined toward a *domain corner* is automatically balanced — each
        // leaf's outward neighbors are exactly one level coarser.)
        let deep = 6u8;
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut t = LinearOctree::build(|o| o.level < deep && o.contains_point(half, half, half));
        assert!(!t.is_balanced(BalanceMode::Face));
        let before = t.len();
        t.balance(BalanceMode::Full);
        assert!(t.validate_complete());
        assert!(t.is_balanced(BalanceMode::Full));
        assert!(t.len() > before);
        // The deep leaves must be untouched (balance only refines).
        assert_eq!(t.max_level(), deep);
    }

    #[test]
    fn ripple_probes_each_family_once() {
        // The centre-refined level-6 tree of the test above: 43 leaves, 239
        // once balanced. Probing every queued leaf's 26 sample points, as the
        // loop did before it probed per family, took 4 758 probes.
        let half = 1u32 << (MAX_LEVEL - 1);
        let t = LinearOctree::build(|o| o.level < 6 && o.contains_point(half, half, half));
        let mut map: BTreeMap<u64, Octant> = t.leaves().iter().map(|o| (o.key(), *o)).collect();
        let Ok(probes) =
            ripple(&mut map, t.leaves().iter().copied(), t.min_level(), BalanceMode::Full);
        assert_eq!((t.len(), map.len()), (43, 239));
        assert_eq!(probes, 650);
    }

    #[test]
    fn balance_is_idempotent() {
        let mut t = LinearOctree::build(|o| o.level < 5 && o.x == 0 && o.y == 0 && o.z == 0);
        t.balance(BalanceMode::Full);
        let once = t.leaves().to_vec();
        t.balance(BalanceMode::Full);
        assert_eq!(once, t.leaves());
    }

    #[test]
    fn face_mode_is_weaker_than_full() {
        let mut tf = LinearOctree::build(|o| o.level < 5 && o.x == 0 && o.y == 0 && o.z == 0);
        let mut tc = tf.clone();
        tf.balance(BalanceMode::Face);
        tc.balance(BalanceMode::Full);
        assert!(tf.len() <= tc.len());
        assert!(tf.is_balanced(BalanceMode::Face));
        assert!(tc.is_balanced(BalanceMode::Full));
    }

    /// Deterministic LCG-driven cases (randomized-property tests without an
    /// external crate — the build is offline): unbalanced trees refined to
    /// depth around a few seed corners. The last one keeps level-1 leaves
    /// against level-3 ones across the centre planes — the edge of the rule
    /// that a leaf within one level of the coarsest cannot violate.
    fn lcg_trees() -> Vec<LinearOctree> {
        let mut state = 0xD001u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut trees: Vec<LinearOctree> = (0..16)
            .map(|_| {
                let r = next();
                let n_seeds = 1 + (r % 3) as usize;
                let depth = (3 + (r >> 8) % 3) as u8;
                let seeds: Vec<(u32, u32, u32)> = (0..n_seeds)
                    .map(|_| {
                        let q = next();
                        ((q as u32) % 8, ((q >> 8) as u32) % 8, ((q >> 16) as u32) % 8)
                    })
                    .collect();
                LinearOctree::build(|o| {
                    o.level < depth
                        && seeds.iter().any(|&(sx, sy, sz)| {
                            let s = 1u32 << (MAX_LEVEL - 3);
                            o.contains_point(sx * s, sy * s, sz * s)
                        })
                })
            })
            .collect();
        let below_centre = (1u32 << (MAX_LEVEL - 1)) - 1;
        trees.push(LinearOctree::build(|o| {
            o.level < 3 && o.contains_point(below_centre, below_centre, below_centre)
        }));
        trees
    }

    #[test]
    fn prop_balance_produces_balanced_complete_tree() {
        for mut t in lcg_trees() {
            t.balance(BalanceMode::Full);
            assert!(t.validate_complete());
            assert!(t.is_balanced(BalanceMode::Full));
        }
    }

    #[test]
    fn prop_point_location_matches_a_linear_scan() {
        for mut t in lcg_trees() {
            for balanced in [false, true] {
                if balanced {
                    t.balance(BalanceMode::Full);
                }
                for o in t.leaves() {
                    let s = o.size();
                    // Corners, centre, and the last grid point before each
                    // far face (the far corners themselves belong to the
                    // neighbors, or to nobody on the domain boundary).
                    for (x, y, z) in [
                        (o.x, o.y, o.z),
                        (o.x + s / 2, o.y + s / 2, o.z + s / 2),
                        (o.x + s - 1, o.y + s - 1, o.z + s - 1),
                        (o.x + s, o.y, o.z),
                        (o.x, o.y + s, o.z),
                        (o.x, o.y, o.z + s),
                        (o.x + s, o.y + s, o.z + s),
                    ] {
                        let scan = t.leaves().iter().find(|l| {
                            x < GRID && y < GRID && z < GRID && l.contains_point(x, y, z)
                        });
                        assert_eq!(t.find_containing(x, y, z), scan, "point ({x}, {y}, {z})");
                    }
                }
            }
        }
    }

    #[test]
    fn prop_is_balanced_agrees_with_violation_count() {
        use crate::balance::violation_count;
        let modes = [BalanceMode::Face, BalanceMode::FaceEdge, BalanceMode::Full];
        let mut unbalanced = 0;
        for t in lcg_trees() {
            for mode in modes {
                let violations = violation_count(&t, mode);
                unbalanced += (violations > 0) as usize;
                assert_eq!(t.is_balanced(mode), violations == 0, "{mode:?} before balance");
                let mut b = t.clone();
                b.balance(mode);
                assert!(b.is_balanced(mode), "{mode:?} after balance");
                assert_eq!(violation_count(&b, mode), 0, "{mode:?} after balance");
                // A weaker mode's balance leaves the stronger ones to judge.
                for other in modes {
                    assert_eq!(b.is_balanced(other), violation_count(&b, other) == 0);
                }
            }
        }
        assert!(unbalanced >= 8, "the generator must produce violating trees, got {unbalanced}");
    }
}
