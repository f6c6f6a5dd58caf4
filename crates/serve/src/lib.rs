//! `quake-serve` — the scenario-ensemble serving engine.
//!
//! The forward-modeling stack (`quake-core`) answers one question at a
//! time: *given this source, what does the basin do?* Hazard work asks it
//! thousands of times against one frozen mesh — ensembles over rupture
//! position, timing, magnitude, and material uncertainty. This crate turns
//! the solver into a **service** for that workload:
//!
//! - [`ScenarioRequest`] names a unit of work (sources, receiver layout,
//!   step budget) and carries a
//!   *canonical content address* ([`RequestKey`]): permuted-but-equal
//!   source lists share one key, while any single-ulp change to any `f64`
//!   input produces a new one,
//! - [`ResultCache`] is the content-addressed store behind the engine —
//!   CRC-framed files (the `quake-ckpt` format), atomic tmp+rename writes,
//!   corrupt entries degrade to recomputes, byte-budget eviction,
//! - [`ServeEngine`] owns a fixed worker pool over one prebuilt mesh and
//!   its solver data. Each worker reuses one preallocated [`ServeScratch`],
//!   so the steady-state serving path performs no heap allocation
//!   (counted by the root `tests/alloc_free.rs`); requests queue FIFO,
//!   admission is bounded by a static cost budget, and `drain`/`shutdown`
//!   complete every accepted request exactly once.
//!
//! Served traces are **bit-identical** to a direct
//! `quake_core::ForwardRun` of the same scenario, whether computed or
//! replayed from cache (`tests/equivalence.rs` pins both).

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod exec;
pub mod request;

pub use cache::{CachedResult, ResultCache, RESULT_KIND};
pub use engine::{
    EngineConfig, EngineStats, ScenarioResponse, ServeEngine, ServeError, Ticket, Variant,
};
pub use exec::{effective_steps, run_scenario, ServeScratch};
pub use request::{RequestKey, ScenarioRequest, REQUEST_ENCODING};
