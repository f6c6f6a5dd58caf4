//! Etree: out-of-core octree storage and mesh-generation pipeline.
//!
//! The SC2003 meshes (10^8..10^9 elements) were generated on desktop machines
//! by keeping the octree on disk: octants are keyed by their locational code
//! (Morton code + level) and stored in a B-tree, "the most commonly used
//! primary key indexing structure in database systems". This crate rebuilds
//! that stack:
//!
//! - [`pager`]: a 4 KiB-paged file with an LRU page cache and I/O statistics,
//! - [`btree`]: a disk B-tree with fixed-size values, floor/range queries and
//!   leaf chaining (keys are the `u64` locational codes of `quake-octree`),
//! - [`store`]: the [`store::OctantStore`] abstraction with both the disk
//!   backend and an in-memory backend (for tests and for differential
//!   testing of the disk engine),
//! - [`pipeline`]: the three etree steps — **construct** (auto-navigation
//!   refinement writing leaves to the store), **balance** (2-to-1 by
//!   `quake-octree`'s ripple loop running against the store), and
//!   **transform** (two scans of the store around one sort
//!   of the leaves' corner keys, emitting the element and node databases
//!   with hanging nodes classified by corner multiplicity).

#![forbid(unsafe_code)]

pub mod btree;
pub mod pager;
pub mod pipeline;
pub mod store;

pub use btree::BTree;
pub use pager::{Pager, PagerStats, PAGE_SIZE};
pub use pipeline::{ElementRec, EtreePipeline, MeshDatabases, NodeRec, PipelineStats};
pub use store::{DiskStore, MaterialRec, MemStore, OctantStore};
