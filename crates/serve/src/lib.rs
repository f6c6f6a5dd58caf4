//! `quake-serve` — the scenario-ensemble serving engine.
//!
//! The forward-modeling stack (`quake-core`) answers one question at a
//! time: *given this source, what does the basin do?* Hazard work asks it
//! thousands of times against one frozen mesh — ensembles over rupture
//! position, timing, magnitude, and material uncertainty. This crate turns
//! the solver into a **service** for that workload:
//!
//! - [`ScenarioRequest`] names a unit of work (sources, receiver layout,
//!   step budget, registered material perturbation) and carries a
//!   *canonical content address* ([`RequestKey`]): permuted-but-equal
//!   source lists share one key, while any single-ulp change to any `f64`
//!   input produces a new one,
//! - [`ResultCache`] is the content-addressed store behind the engine —
//!   CRC-framed files (the `quake-ckpt` format), atomic tmp+rename writes,
//!   corrupt entries degrade to recomputes, byte-budget eviction,
//! - [`ServeEngine`] owns a fixed worker pool over prebuilt mesh/solver
//!   variants. Workers reuse a preallocated [`ServeScratch`] per variant,
//!   so the steady-state serving path performs no heap allocation
//!   (counted by the root `tests/alloc_free.rs`); requests queue on two
//!   lanes (`Interactive` ahead of `Batch`), admission is bounded by a
//!   telemetry-calibrated cost budget, and `drain`/`shutdown` complete
//!   every accepted request exactly once,
//! - [`HazardMap`] reduces an ensemble to per-station peak ground
//!   velocity — the first-class aggregate product.
//!
//! Served traces are **bit-identical** to a direct
//! `quake_core::ForwardRun` of the same scenario, whether computed or
//! replayed from cache (`tests/equivalence.rs` pins both).

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod exec;
pub mod products;
pub mod request;

pub use cache::{CachedResult, ResultCache, RESULT_KIND};
pub use engine::{
    EngineConfig, EngineStats, ScaledModel, ScenarioResponse, ServeEngine, ServeError, Ticket,
    Variant,
};
pub use exec::{effective_steps, run_scenario, ServeScratch};
pub use products::{pgv_of, trace_pgv, HazardMap};
pub use request::{Lane, RequestKey, ScenarioRequest, REQUEST_ENCODING};
