//! The repository's benchmark: seven workloads, four end-to-end metrics and
//! a per-layer ledger, all measured from outside through the `quake`
//! facade. See `README.md` for the tables and `BENCHMARK.json` at the
//! repository root for the declaration the driver reads.

pub mod compare;
pub mod driver;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod suite;
pub mod workloads;
