//! Linear octrees for multiresolution hexahedral meshing.
//!
//! The SC2003 meshes are *linear octrees*: the leaves of an octree over a
//! cubic domain, each identified by a locational key that interleaves the
//! Morton code of its lower corner with its level ([`morton`], [`octant`]).
//! [`tree::LinearOctree`] stores the sorted leaf set and provides
//! construction by recursive refinement ("auto-navigation" in etree
//! terminology), point location and 2-to-1 balancing. [`tree::ripple`],
//! the balance loop, runs over any [`tree::LeafSet`]: the in-core map here
//! and the etree's octant store; [`balance`] holds the per-leaf violation
//! count the balance is tested against; [`adapt`] builds wavelength-adaptive
//! trees from a shear-velocity field (`h <= vs / (p * fmax)`).

#![forbid(unsafe_code)]

pub mod adapt;
pub mod balance;
pub mod morton;
pub mod octant;
pub mod tree;

pub use adapt::build_wavelength_adaptive;
pub use morton::{morton_decode, morton_encode, MAX_LEVEL};
pub use octant::Octant;
pub use tree::{
    level_histogram_of, node_runs, ripple, sample_point, BalanceMode, LeafSet, LinearOctree,
};
