//! Checkpoint/restart substrate for long-running solves (std-only).
//!
//! The paper's terascale runs are hours-long jobs on thousands of PEs where
//! one lost PE kills the whole simulation; the standard robustness layer is
//! periodic checkpointing plus restart from the last valid snapshot. This
//! crate is that layer for the reproduction:
//!
//! - [`format`]: a versioned, CRC-32-checksummed, length-prefixed binary
//!   snapshot format. `f64` data is stored as raw bit patterns, so restored
//!   states are **bit-identical** — resume equivalence is exact, not
//!   approximate (the solver and inversion test suites assert byte-equal
//!   outputs for straight-vs-resumed runs).
//! - [`Checkpointable`]: the encode/decode contract a state type implements
//!   (the elastic solver's `SolverState`, the inversion's `GnCheckpoint`,
//!   the distributed per-rank states).
//! - [`store`]: [`CheckpointWriter`] (atomic write-to-temp-then-rename with
//!   fsync, optional retention pruning) and [`CheckpointReader`]
//!   (latest-*valid* discovery: corrupted or truncated files are detected by
//!   checksum and skipped in favor of the previous good one).
//! - [`CheckpointPolicy`]: cadence — every N steps.
//!
//! Telemetry: writers and readers record `ckpt_write`/`ckpt_restore` spans
//! and `ckpt/bytes_written`, `ckpt/bytes_read`, `ckpt/writes`,
//! `ckpt/restores`, `ckpt/skipped_invalid` counters on the registry they are
//! handed; a disabled registry makes all of it free.

#![forbid(unsafe_code)]

pub mod format;
pub mod sink;
pub mod store;

pub use format::{crc32, decode_file, encode_file, Decoder, Encoder, FORMAT_VERSION};
pub use sink::{PeriodicSink, StepSink};
pub use store::{CheckpointReader, CheckpointWriter};

/// Everything that can go wrong writing or restoring a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// File shorter than the data it claims to hold.
    Truncated { needed: usize, available: usize },
    /// CRC-32 trailer does not match the file contents.
    BadChecksum { stored: u32, actual: u32 },
    /// Written by an incompatible format revision.
    BadVersion { found: u32, expected: u32 },
    /// The file holds a different state type than requested.
    KindMismatch { found: String, expected: String },
    /// Structurally invalid contents (bad magic, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, have {available}")
            }
            CkptError::BadChecksum { stored, actual } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: stored {stored:#010x}, actual {actual:#010x}"
                )
            }
            CkptError::BadVersion { found, expected } => {
                write!(f, "checkpoint format version {found} (expected {expected})")
            }
            CkptError::KindMismatch { found, expected } => {
                write!(f, "checkpoint holds kind {found:?} (expected {expected:?})")
            }
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

/// A state type that can be snapshotted to, and restored from, a checkpoint.
///
/// The contract is symmetric: `decode(encode(x)) == x` *bit-for-bit* for
/// every reachable state — the resume-equivalence guarantees downstream rest
/// entirely on this. `KIND` names the state type inside the file header so a
/// reader never deserializes the wrong stream; include a version suffix
/// (`"...v1"`) and bump it when the encoding changes.
pub trait Checkpointable: Sized {
    /// Stable type tag embedded in the file header.
    const KIND: &'static str;

    /// Serialize the full state into `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reconstruct the state; use the typed `take_*` accessors so truncation
    /// surfaces as [`CkptError::Truncated`], never a panic.
    fn decode(dec: &mut Decoder) -> Result<Self, CkptError>;
}

/// When to take a checkpoint: every N steps. Step cadence is
/// deterministic, so every rank of a distributed run checkpoints the same
/// steps.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    every_steps: u64,
}

impl CheckpointPolicy {
    /// Checkpoint after every `n` completed steps.
    pub fn every_steps(n: u64) -> CheckpointPolicy {
        assert!(n > 0, "step cadence must be positive");
        CheckpointPolicy { every_steps: n }
    }

    /// Is a snapshot tagged `next_step` (the next step to execute) due?
    fn due(&self, next_step: u64) -> bool {
        next_step > 0 && next_step.is_multiple_of(self.every_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_cadence_fires_on_multiples() {
        let p = CheckpointPolicy::every_steps(5);
        let due: Vec<u64> = (0..12).filter(|&k| p.due(k + 1)).collect();
        assert_eq!(due, vec![4, 9]); // after steps 5 and 10 complete
    }
}
