//! # quake — terascale forward and inverse earthquake modeling
//!
//! A Rust reproduction of *"High Resolution Forward And Inverse Earthquake
//! Modeling on Terascale Computers"* (Akcelik et al., SC2003): octree-based
//! multiresolution hexahedral FEM wave propagation, the out-of-core *etree*
//! mesh generator, and adjoint-based Gauss-Newton-CG inversion for basin
//! material models and earthquake sources.
//!
//! This crate is a facade re-exporting the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fem`] | `quake-fem` | element matrices, shape functions, quadrature |
//! | [`octree`] | `quake-octree` | linear octrees, balancing, adaptivity |
//! | [`etree`] | `quake-etree` | out-of-core octree B-tree + mesh pipeline |
//! | [`mesh`] | `quake-mesh` | hex meshes, hanging nodes, partitioning |
//! | [`model`] | `quake-model` | material + source models |
//! | [`parcomm`] | `quake-parcomm` | SPMD rank/communicator layer |
//! | [`machine`] | `quake-machine` | calibrated machine performance model |
//! | [`telemetry`] | `quake-telemetry` | spans/counters/NDJSON traces |
//! | [`solver`] | `quake-solver` | 3-D elastic/scalar explicit wave solvers |
//! | [`antiplane`] | `quake-antiplane` | 2-D SH forward/adjoint solvers |
//! | [`inverse`] | `quake-inverse` | Gauss-Newton-CG inversion framework |
//! | [`ckpt`] | `quake-ckpt` | checksummed checkpoint/restart snapshots |
//! | [`core`] | `quake-core` | end-to-end simulation/inversion drivers |
//! | [`serve`] | `quake-serve` | scenario-ensemble job engine + result cache |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`: build a layered basin model, mesh it
//! adaptively, run an earthquake, and look at the seismograms.

#![forbid(unsafe_code)]

pub use quake_antiplane as antiplane;
pub use quake_ckpt as ckpt;
pub use quake_core as core;
pub use quake_etree as etree;
pub use quake_fem as fem;
pub use quake_inverse as inverse;
pub use quake_machine as machine;
pub use quake_mesh as mesh;
pub use quake_model as model;
pub use quake_octree as octree;
pub use quake_parcomm as parcomm;
pub use quake_serve as serve;
pub use quake_solver as solver;
pub use quake_telemetry as telemetry;
