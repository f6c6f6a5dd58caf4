//! The per-leaf 2-to-1 violation count: the test oracle that
//! [`LinearOctree::is_balanced`] and [`LinearOctree::balance`], which check
//! the rule once per sibling family, are measured against.

use crate::tree::{sample_point, BalanceMode, LinearOctree};

/// Count how many leaves violate the constraint, asking each leaf's own
/// sample points.
pub fn violation_count(tree: &LinearOctree, mode: BalanceMode) -> usize {
    let dirs = mode.directions();
    tree.leaves()
        .iter()
        .filter(|o| {
            o.level >= 2
                && dirs.iter().any(|&d| {
                    sample_point(o, d)
                        .and_then(|p| tree.find_containing(p.0, p.1, p.2))
                        .is_some_and(|n| n.level + 1 < o.level)
                })
        })
        .count()
}
