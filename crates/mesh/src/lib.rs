//! Hexahedral finite-element meshes from balanced octrees.
//!
//! - [`hexmesh`]: the mesh data structure — Morton-ordered cube elements with
//!   per-element `(h, lambda, mu, rho)` (no element matrices are ever
//!   stored), global node numbering, hanging-node constraints (midside = mean
//!   of 2 edge masters, midface = mean of 4 face masters, chains resolved),
//!   and domain-boundary face lists for the free surface and absorbing
//!   boundaries,
//! - [`driver`]: wavelength-adaptive meshing straight from a
//!   `quake_model::MaterialModel` (`h <= vs / (p fmax)`),
//! - [`partition`]: element partitioning — Morton (space-filling-curve)
//!   chunking and recursive coordinate bisection — plus communication plans
//!   (shared-node exchange lists) and edge-cut/imbalance statistics
//!   (the ParMETIS substitute, see DESIGN.md),
//! - [`coloring`]: node-disjoint element coloring (kept only for the
//!   frozen benchmark package's mesh ledger),
//! - [`stats`]: the mesh summaries behind Fig 2.3.

#![forbid(unsafe_code)]

pub mod coloring;
pub mod driver;
pub mod hexmesh;
pub mod partition;
pub mod rategroups;
pub mod stats;

pub use coloring::{color_elements, ElementColoring};
pub use driver::{mesh_from_model, MeshingParams};
pub use hexmesh::{BoundaryFace, Constraint, ElemMaterial, Element, HexMesh};
pub use partition::{partition_morton, partition_rcb, ExchangePlan, PartitionStats};
pub use rategroups::RateGroups;
pub use stats::MeshStats;
