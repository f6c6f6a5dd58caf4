//! Finite-element kernels for the quake workspace.
//!
//! This crate provides the small, dense building blocks the wave-propagation
//! solvers are made of:
//!
//! - [`linalg`]: a small dense matrix for the tet4 baseline (no external BLAS),
//! - [`quadrature`]: Gauss-Legendre rules on the unit interval/square/cube,
//! - [`shape`]: trilinear hex8, bilinear quad4 and linear tet4 shape functions,
//! - [`hex8`]: canonical hexahedral element matrices. Because every octree leaf
//!   is a cube, the elastic stiffness of *any* element is
//!   `h * (lambda * K_L + mu * K_M)` for two constant 24x24 matrices — the
//!   memory-free element design of the SC2003 paper,
//! - [`quad4`]: canonical bilinear quad matrices for the 2-D antiplane solver,
//! - [`tet4`]: linear tetrahedra for the baseline (pre-octree) solver.
//!
//! All matrices use engineering (Voigt) shear strains and the node ordering
//! `node i = ((i)&1, (i>>1)&1, (i>>2)&1)` on the unit reference cube.

#![forbid(unsafe_code)]

pub mod hex8;
pub mod linalg;
pub mod quad4;
pub mod quadrature;
pub mod shape;
pub mod tet4;

pub use hex8::{elastic_hex_matrices, scalar_hex_stiffness, ElasticHexMatrices};
pub use linalg::DMat;
pub use quad4::scalar_quad_stiffness;
pub use tet4::tet4_stiffness;
