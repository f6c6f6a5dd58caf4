//! Seismic inversion framework (Section 3 of the paper).
//!
//! Solves the nonlinear least-squares problem (3.1): find the material field
//! `mu(x)` and/or the source parameter fields `(T, t0, u0)` along the fault
//! that minimize the misfit between predicted and observed seismograms,
//! subject to the wave equation, with total-variation regularization on the
//! material and Tikhonov regularization on the source.
//!
//! The machinery:
//!
//! - [`matmap`]: the inversion-grid -> element-moduli interpolation operator
//!   `P` (the paper's material grid is independent of the wave grid;
//!   Table 3.1 sweeps it from 5^3 to 129^3 vertices),
//! - [`regularization`]: smoothed total variation (with the lagged-
//!   diffusivity Gauss-Newton Hessian) and Tikhonov smoothing,
//! - [`misfit`]: trace misfits, residuals and the 5% noise model,
//! - [`gncg`]: the one Gauss-Newton-Krylov outer iteration both inverse
//!   problems run — matrix-free CG on the reduced Hessian (each product =
//!   one incremental forward + one incremental adjoint solve),
//!   Morales-Nocedal L-BFGS preconditioning from CG secant pairs, Armijo
//!   line search and telemetry — and the material problem
//!   (TV plus a log-barrier keeping the moduli positive),
//! - [`multiscale`]: grid-continuation driver (Fig 3.2's 1x1 -> 257x257
//!   cascade) and frequency continuation via progressive low-pass data,
//! - [`source`]: the source problem for the same loop — the fault's
//!   delay-time, rise-time and amplitude fields under Tikhonov smoothing
//!   (Fig 3.3).

#![forbid(unsafe_code)]

pub mod gncg;
pub mod matmap;
pub mod misfit;
pub mod multiscale;
pub mod regularization;
pub mod source;

pub use gncg::{invert_material, invert_material_traced, GnConfig, GnStats};
pub use matmap::MaterialMap;
pub use misfit::{add_noise, misfit_value, residuals};
pub use multiscale::{invert_multiscale, LevelResult, MultiscaleConfig};
pub use regularization::{TikhonovReg, TvReg};
pub use source::{invert_source, SourceInversionConfig, SourceInversionResult};
