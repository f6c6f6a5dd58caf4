//! Octants: axis-aligned cubes on the virtual grid, with locational keys.

use crate::morton::{morton_decode, morton_encode, GRID, LEVEL_BITS, MAX_LEVEL};

/// An octant of an octree over the unit cube, addressed on the
/// `2^MAX_LEVEL` virtual integer grid.
///
/// `(x, y, z)` is the lower corner in grid units and must be aligned to the
/// octant's size `2^(MAX_LEVEL - level)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Octant {
    pub x: u32,
    pub y: u32,
    pub z: u32,
    pub level: u8,
}

impl Octant {
    /// The root octant covering the whole domain.
    pub const ROOT: Octant = Octant { x: 0, y: 0, z: 0, level: 0 };

    pub fn new(x: u32, y: u32, z: u32, level: u8) -> Octant {
        let o = Octant { x, y, z, level };
        debug_assert!(level <= MAX_LEVEL);
        debug_assert!(
            x.is_multiple_of(o.size()) && y.is_multiple_of(o.size()) && z.is_multiple_of(o.size()),
            "octant corner not aligned to its size"
        );
        debug_assert!(x < GRID && y < GRID && z < GRID);
        o
    }

    /// Edge length in virtual-grid units.
    #[inline]
    pub fn size(&self) -> u32 {
        1 << (MAX_LEVEL - self.level)
    }

    /// Locational key: Morton code of the lower corner, then the level.
    ///
    /// Lexicographic order on keys = preorder traversal order; in particular
    /// an ancestor sorts immediately before its first descendant.
    #[inline]
    pub fn key(&self) -> u64 {
        (morton_encode(self.x, self.y, self.z) << LEVEL_BITS) | self.level as u64
    }

    /// Inverse of [`Octant::key`].
    pub fn from_key(key: u64) -> Octant {
        let level = (key & ((1 << LEVEL_BITS) - 1)) as u8;
        let (x, y, z) = morton_decode(key >> LEVEL_BITS);
        Octant::new(x, y, z, level)
    }

    /// The `i`-th child (bit-coded: bit0 = +x, bit1 = +y, bit2 = +z).
    pub fn child(&self, i: usize) -> Octant {
        assert!(self.level < MAX_LEVEL, "cannot refine below MAX_LEVEL");
        let s = self.size() / 2;
        Octant::new(
            self.x + if i & 1 != 0 { s } else { 0 },
            self.y + if i & 2 != 0 { s } else { 0 },
            self.z + if i & 4 != 0 { s } else { 0 },
            self.level + 1,
        )
    }

    /// All eight children, in Morton order.
    pub fn children(&self) -> [Octant; 8] {
        std::array::from_fn(|i| self.child(i))
    }

    /// The parent octant (None for the root).
    pub fn parent(&self) -> Option<Octant> {
        if self.level == 0 {
            return None;
        }
        let s = self.size() * 2;
        Some(Octant::new(self.x / s * s, self.y / s * s, self.z / s * s, self.level - 1))
    }

    /// The ancestor at `level` (<= self.level).
    pub fn ancestor_at(&self, level: u8) -> Octant {
        assert!(level <= self.level);
        let s = 1u32 << (MAX_LEVEL - level);
        Octant::new(self.x / s * s, self.y / s * s, self.z / s * s, level)
    }

    /// True if `self` contains (or equals) `other`.
    pub fn contains(&self, other: &Octant) -> bool {
        if other.level < self.level {
            return false;
        }
        other.ancestor_at(self.level) == *self
    }

    /// True if the grid point `(px, py, pz)` lies inside this octant.
    pub fn contains_point(&self, px: u32, py: u32, pz: u32) -> bool {
        let s = self.size();
        px >= self.x
            && px < self.x + s
            && py >= self.y
            && py < self.y + s
            && pz >= self.z
            && pz < self.z + s
    }

    /// Mesh-node keys of the eight corners, bit-coded like [`Octant::child`]
    /// (the `quake-fem` corner order): the Morton code of each corner grid
    /// point, whose coordinates run up to and including `GRID`.
    pub fn corner_keys(&self) -> [u64; 8] {
        let s = self.size();
        std::array::from_fn(|c| {
            morton_encode(
                self.x + if c & 1 != 0 { s } else { 0 },
                self.y + if c & 2 != 0 { s } else { 0 },
                self.z + if c & 4 != 0 { s } else { 0 },
            )
        })
    }

    /// Center of the octant in unit-cube coordinates.
    pub fn center_unit(&self) -> [f64; 3] {
        let s = self.size() as f64;
        let g = GRID as f64;
        [
            (self.x as f64 + 0.5 * s) / g,
            (self.y as f64 + 0.5 * s) / g,
            (self.z as f64 + 0.5 * s) / g,
        ]
    }

    /// Lower corner in unit-cube coordinates.
    pub fn corner_unit(&self) -> [f64; 3] {
        let g = GRID as f64;
        [self.x as f64 / g, self.y as f64 / g, self.z as f64 / g]
    }

    /// Edge length in unit-cube coordinates.
    pub fn size_unit(&self) -> f64 {
        self.size() as f64 / GRID as f64
    }

    /// The 26 neighbor direction triples (faces, edges, corners).
    pub fn all_directions() -> impl Iterator<Item = (i32, i32, i32)> {
        (-1..=1).flat_map(move |dx| {
            (-1..=1).flat_map(move |dy| {
                (-1..=1).filter_map(move |dz| {
                    if dx == 0 && dy == 0 && dz == 0 {
                        None
                    } else {
                        Some((dx, dy, dz))
                    }
                })
            })
        })
    }
}

impl PartialOrd for Octant {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Octant {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip_and_preorder() {
        let o = Octant::new(0, 0, 0, 2);
        assert_eq!(Octant::from_key(o.key()), o);
        // Parent sorts before first child, child 0 before child 1.
        let kids = o.children();
        assert!(o.key() < kids[0].key());
        for w in kids.windows(2) {
            assert!(w[0].key() < w[1].key());
        }
    }

    #[test]
    fn children_tile_parent() {
        let o = Octant::new(1 << 18, 0, 1 << 18, 1);
        let mut vol = 0u64;
        for c in o.children() {
            assert!(o.contains(&c));
            assert_eq!(c.parent(), Some(o));
            vol += (c.size() as u64).pow(3);
        }
        assert_eq!(vol, (o.size() as u64).pow(3));
    }

    #[test]
    fn ancestor_and_contains() {
        let leaf = Octant::new(3 << 14, 5 << 14, 9 << 14, 5);
        let anc = leaf.ancestor_at(2);
        assert!(anc.contains(&leaf));
        assert!(!leaf.contains(&anc));
        assert!(anc.contains_point(leaf.x, leaf.y, leaf.z));
    }

    #[test]
    fn directions_counts() {
        assert_eq!(Octant::all_directions().count(), 26);
    }

    /// Deterministic LCG sample stream (randomized-property tests without
    /// an external crate — the build is offline).
    fn samples(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        })
    }

    #[test]
    fn prop_key_roundtrip() {
        for r in samples(0xB001, 400) {
            let (xb, yb, zb) =
                ((r as u32) % 256, ((r >> 8) as u32) % 256, ((r >> 16) as u32) % 256);
            let level = ((r >> 24) % 9) as u8;
            let s = 1u32 << (MAX_LEVEL - level);
            let o = Octant::new(
                (xb % (1 << level)) * s,
                (yb % (1 << level)) * s,
                (zb % (1 << level)) * s,
                level,
            );
            assert_eq!(Octant::from_key(o.key()), o);
        }
    }

    #[test]
    fn prop_child_parent_roundtrip() {
        for r in samples(0xB002, 400) {
            let (xb, yb, zb) = ((r as u32) % 64, ((r >> 8) as u32) % 64, ((r >> 16) as u32) % 64);
            let level = ((r >> 24) % 7) as u8;
            let i = ((r >> 28) % 8) as usize;
            let s = 1u32 << (MAX_LEVEL - level);
            let o = Octant::new(
                (xb % (1 << level)) * s,
                (yb % (1 << level)) * s,
                (zb % (1 << level)) * s,
                level,
            );
            assert_eq!(o.child(i).parent(), Some(o));
        }
    }

    #[test]
    fn prop_descendant_keys_nest_between_siblings() {
        // Every descendant of child i keys between child i and child i+1.
        for i in 0..8usize {
            for j in 0..8usize {
                let o = Octant::ROOT;
                let ci = o.child(i);
                let desc = ci.child(j);
                assert!(desc.key() > ci.key());
                if i < 7 {
                    assert!(desc.key() < o.child(i + 1).key());
                }
            }
        }
    }
}
