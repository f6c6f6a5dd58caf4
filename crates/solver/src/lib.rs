//! Explicit wave-propagation solvers on octree hexahedral meshes.
//!
//! The heart of the forward-modeling half of the paper (Section 2):
//!
//! - [`elastic`]: the production solver — Navier elastodynamics, trilinear
//!   hexes on a balanced octree, lumped-mass central differences with the
//!   diagonal/off-diagonal damping split of eq. (2.4), elementwise
//!   least-squares Rayleigh damping, Stacey absorbing boundaries and
//!   hanging-node projection (`B^T A B ubar = B^T b`). No per-element
//!   matrix is ever stored: the element matvec is `gather -> 24x24 dense ->
//!   scatter` against one precomputed stiffness *template* per distinct
//!   `(h, lambda, mu)` class — a handful of matrices on an octree mesh,
//! - [`sweep`]: the blocked element kernel behind [`elastic`]: per-class
//!   templates, cache-sized batches, a serial class-major sweep,
//! - [`layout`]: the planar (structure-of-arrays) nodal layout the solver
//!   runs on internally, and conversions to the interleaved boundary layout,
//! - [`abc`]: the Stacey boundary terms shared by the solvers,
//! - [`sources`]: moment-tensor point sources assembled into nodal forces,
//!   plane-wave/Gaussian initial conditions,
//! - [`receivers`]: seismograms and zero-phase low-pass filtering (for the
//!   Fig 2.4-style waveform comparisons),
//! - [`tet`]: the linear-tetrahedral baseline solver (node-based CSR
//!   assembly — the "old" design the paper compares against),
//! - [`scalar3d`]: a structured-grid scalar (SH/acoustic) wave solver with
//!   the `march` API the inversion framework drives (Table 3.1's substrate),
//! - [`analytic`]: closed-form solutions used for verification (Fig 2.2):
//!   d'Alembert pulses and interface reflection/transmission coefficients,
//! - [`harness`]: the ONE canonical step loop ([`harness::SolverHarness`])
//!   every public `run_*` entry point delegates to, driven by a
//!   [`harness::RunConfig`] plus ordered [`harness::StepHook`]s (telemetry,
//!   checkpointing, receiver sampling, fault injection); it steps a plan of
//!   rate-group passes, global dt being the one-group plan,
//! - [`rategroup`]: the clustered local-time-stepping plan
//!   ([`rategroup::RateGroupPlan`]) — one pass per octree level, each at its
//!   own power-of-two multiple of the base dt,
//! - [`health`]: the numerics watchdog hook — non-finite and discrete
//!   energy-growth checks of a set of elements on a step cadence, stopping
//!   the run with a report on violation,
//! - [`distributed`]: the rank-parallel elastic solver over `quake-parcomm`
//!   (owner-computes + interface sum-exchange), bit-identical to the serial
//!   solver,
//! - [`reference`]: the frozen pre-optimization elastic step — the
//!   equivalence and `bench_step` baseline.
//!
//! The elastic hot path is organized around preallocated
//! [`elastic::StepScope`]/[`elastic::StepWorkspace`] state: a time loop's
//! steady state, and a second run on a warm workspace, allocate nothing on
//! the heap. Within a rank the element sweep is serial (its class-major
//! schedule fixes its order); parallelism lives in [`distributed`] ranks
//! and `quake-serve` workers.

#![forbid(unsafe_code)]

pub mod abc;
pub mod analytic;
pub mod checkpoint;
pub mod distributed;
pub mod elastic;
pub mod harness;
pub mod health;
pub mod layout;
pub mod rategroup;
pub mod receivers;
pub mod reference;
pub mod scalar3d;
pub mod sources;
pub mod sweep;
pub mod tet;
pub mod wave;

pub use checkpoint::SolverState;
pub use distributed::{
    run_distributed, run_distributed_recoverable, DistConfig, RankOutcome, RecoveredRun,
    RecoveryConfig,
};
pub use elastic::{ElasticConfig, ElasticSolver, RunResult, SolverData, StepScope, StepWorkspace};
pub use harness::{
    CheckpointHook, Exchange, ExchangeFlow, FaultHook, HookCtx, NoExchange, NoopHook, ReceiverHook,
    RunConfig, RunInfo, RunOutcome, SolverHarness, StepHook, StopReason, SyncReceiverHook,
    TelemetryHook,
};
pub use health::{HealthHook, HealthReport};
pub use rategroup::RateGroupPlan;
pub use receivers::{lowpass_filtfilt, record_sample, record_sample_planar, Seismogram};
pub use scalar3d::{Scalar3dConfig, Scalar3dSolver};
pub use wave::ScalarWaveEq;

pub use sources::{assemble_point_sources, AssembledSource};
