//! Morton (Z-order) codes — the linearization behind the etree keys.
//!
//! Coordinates live on a virtual `2^MAX_LEVEL`-cube integer grid. A Morton
//! code interleaves the bits of `(x, y, z)`; appending the octant level gives
//! a total order over all octants of all sizes that coincides with a preorder
//! traversal of the octree (the paper's B-tree key, after Gargantini).

/// Maximum octree depth. `3 * MAX_LEVEL + LEVEL_BITS` must fit in 64 bits.
pub const MAX_LEVEL: u8 = 19;

/// Bits reserved for the level in a locational key.
pub const LEVEL_BITS: u32 = 5;

/// Side length of the virtual grid (`2^MAX_LEVEL`).
pub const GRID: u32 = 1 << MAX_LEVEL;

/// Spread the low 20 bits of `v` so they occupy every third bit.
#[inline]
fn spread3(v: u32) -> u64 {
    let mut x = (v as u64) & 0xf_ffff; // 20 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Collapse every third bit back into the low 20 bits.
#[inline]
fn collapse3(v: u64) -> u32 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0xf_ffff;
    x as u32
}

/// Interleaved Morton code of a grid point.
///
/// Coordinates up to `2^20 - 1` are accepted (one bit beyond `MAX_LEVEL`):
/// *node* coordinates include the far domain face at `GRID` itself.
#[inline]
pub fn morton_encode(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << 20) && y < (1 << 20) && z < (1 << 20));
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Inverse of [`morton_encode`].
#[inline]
pub fn morton_decode(m: u64) -> (u32, u32, u32) {
    (collapse3(m), collapse3(m >> 1), collapse3(m >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_corners() {
        for &(x, y, z) in &[(0, 0, 0), (GRID - 1, GRID - 1, GRID - 1), (1, 2, 3), (GRID - 1, 0, 1)]
        {
            assert_eq!(morton_decode(morton_encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn morton_orders_quadrants_z_shaped() {
        // Within one level, z-order visits the 8 children in bit order.
        let half = GRID / 2;
        let kids = [
            (0, 0, 0),
            (half, 0, 0),
            (0, half, 0),
            (half, half, 0),
            (0, 0, half),
            (half, 0, half),
            (0, half, half),
            (half, half, half),
        ];
        let codes: Vec<u64> = kids.iter().map(|&(x, y, z)| morton_encode(x, y, z)).collect();
        for w in codes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn morton_code_of_child_shares_parent_prefix() {
        // A child's code differs from its parent corner code only in the
        // 3-bit group at the child's level.
        let (x, y, z) = (12 << 10, 7 << 10, 3 << 10);
        let parent = morton_encode(x, y, z);
        let child = morton_encode(x + (1 << 9), y, z + (1 << 9));
        // High bits above the child's refinement bits agree.
        assert_eq!(parent >> 30, child >> 30);
    }

    /// Deterministic LCG over sampled coordinates (randomized-property
    /// tests without an external crate — the build is offline).
    fn samples(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        })
    }

    #[test]
    fn prop_roundtrip() {
        for s in samples(0xA001, 600) {
            let (x, y, z) =
                ((s as u32) % GRID, ((s >> 16) as u32) % GRID, ((s >> 32) as u32) % GRID);
            assert_eq!(morton_decode(morton_encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn prop_monotone_along_axes() {
        // Morton order is monotone when only one coordinate grows and the
        // others are fixed (x and x+1 may differ in many bits, but the
        // interleaved compare still follows the highest changed bit).
        for s in samples(0xA002, 600) {
            let x = (s as u32) % (GRID - 1);
            let (y, z) = (((s >> 16) as u32) % GRID, ((s >> 32) as u32) % GRID);
            assert!(morton_encode(x, y, z) < morton_encode(x + 1, y, z));
        }
    }
}
