//! The small persistence surface step loops drive.
//!
//! A time-integration harness should not know about writers, cadence, or
//! retention — it only needs somewhere to offer each completed step's state.
//! [`StepSink`] is that surface: one `offer` call per completed step, and the
//! sink decides whether anything hits disk. [`PeriodicSink`] is the standard
//! implementation (a [`CheckpointWriter`] plus a [`CheckpointPolicy`]
//! cadence); tests substitute counting or always-failing sinks.

use crate::{CheckpointPolicy, CheckpointWriter, Checkpointable, CkptError};
use quake_telemetry::Registry;

/// A cadence-owning destination for step-loop snapshots.
///
/// `offer` is called once per completed step with `next_step` = the index of
/// the *next* step to execute (the tag restore logic expects — see
/// `SolverState`'s convention). Implementations decide whether this step is
/// due and persist `state` if so; returning `Err` aborts the run that drives
/// the sink.
pub trait StepSink<T: Checkpointable> {
    /// Offer the state after a completed step; persist it if due.
    fn offer(&mut self, next_step: u64, state: &T, reg: &Registry) -> Result<(), CkptError>;
}

/// The standard [`StepSink`]: write through a [`CheckpointWriter`] whenever a
/// [`CheckpointPolicy`] says a step is due (atomic write-to-temp-then-rename
/// plus retention pruning, both inherited from the writer).
pub struct PeriodicSink<'w> {
    writer: &'w CheckpointWriter,
    policy: CheckpointPolicy,
}

impl<'w> PeriodicSink<'w> {
    pub fn new(writer: &'w CheckpointWriter, policy: &CheckpointPolicy) -> PeriodicSink<'w> {
        PeriodicSink { writer, policy: *policy }
    }
}

impl<T: Checkpointable> StepSink<T> for PeriodicSink<'_> {
    fn offer(&mut self, next_step: u64, state: &T, reg: &Registry) -> Result<(), CkptError> {
        if self.policy.due(next_step) {
            self.writer.write(next_step, state, reg)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointReader, Decoder, Encoder};

    #[derive(Clone, Debug, PartialEq)]
    struct Tiny(u64);

    impl Checkpointable for Tiny {
        const KIND: &'static str = "quake.test.tiny.v1";

        fn encode(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }

        fn decode(dec: &mut Decoder) -> Result<Tiny, CkptError> {
            Ok(Tiny(dec.take_u64()?))
        }
    }

    #[test]
    fn periodic_sink_writes_only_due_steps() {
        let dir = std::env::temp_dir()
            .join("quake-ckpt-tests")
            .join(format!("sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = CheckpointWriter::new(&dir, "tiny").unwrap();
        let policy = CheckpointPolicy::every_steps(3);
        let mut sink = PeriodicSink::new(&writer, &policy);
        let reg = Registry::disabled();
        for completed in 0..8u64 {
            let next = completed + 1;
            StepSink::offer(&mut sink, next, &Tiny(next), &reg).unwrap();
        }
        let steps = CheckpointReader::new(&dir, "tiny").steps();
        assert_eq!(steps, vec![3, 6]);
        let (_, back): (u64, Tiny) = CheckpointReader::new(&dir, "tiny").load(6).unwrap();
        assert_eq!(back, Tiny(6));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
