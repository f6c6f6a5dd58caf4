//! Checkpointable solver state — the resumable run path's snapshot type.
//!
//! A [`SolverState`] is everything the leapfrog scheme needs to continue a
//! run as if it had never stopped: the next step index, the two displacement
//! fields the two-term recurrence reads, and the seismogram buffers recorded
//! so far. Displacements are stored as raw `f64` bit patterns (see
//! `quake-ckpt`), so a restored run is **bit-identical** to an uninterrupted
//! one — the test suite asserts byte-equal fields and traces for
//! straight-vs-resumed runs, serial and SPMD.

use quake_ckpt::{Checkpointable, CkptError, Decoder, Encoder};

use crate::receivers::Seismogram;

/// Resumable state of an explicit elastic run.
///
/// `step` is the index of the *next* step to execute: after completing
/// 0-based step `k` the state holds `u_prev = u_k`, `u_now = u_{k+1}`,
/// `k + 1` samples per trace, and `step == k + 1`.
///
/// The displacement vectors are stored in the solver's internal *planar*
/// layout (`dof = comp * n_nodes + node`, see `quake_solver::layout`) —
/// hence the `v2` kind: a `v1` (interleaved) snapshot must not silently
/// resume under the new layout.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverState {
    /// Next step to execute (0-based).
    pub step: u64,
    /// Displacement at `t = (step - 1) dt`.
    pub u_prev: Vec<f64>,
    /// Displacement at `t = step * dt`.
    pub u_now: Vec<f64>,
    /// Per-receiver traces recorded so far (one sample per completed step).
    pub seismograms: Vec<Seismogram>,
}

impl Checkpointable for SolverState {
    const KIND: &'static str = "quake.solver.elastic.v2";

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.step);
        enc.put_f64_slice(&self.u_prev);
        enc.put_f64_slice(&self.u_now);
        enc.put_u64(self.seismograms.len() as u64);
        for tr in &self.seismograms {
            enc.put_f64(tr.dt);
            enc.put_u64(tr.ncomp as u64);
            enc.put_f64_slice(&tr.data);
        }
    }

    fn decode(dec: &mut Decoder) -> Result<SolverState, CkptError> {
        let step = dec.take_u64()?;
        let u_prev = dec.take_f64_vec()?;
        let u_now = dec.take_f64_vec()?;
        // Every trace encodes at least its dt, ncomp and sample count.
        let n_traces = dec.take_len(24)?;
        let mut seismograms = Vec::with_capacity(n_traces);
        for _ in 0..n_traces {
            let dt = dec.take_f64()?;
            let ncomp = dec.take_u64()? as usize;
            let data = dec.take_f64_vec()?;
            if ncomp == 0 || !data.len().is_multiple_of(ncomp) {
                return Err(CkptError::Malformed("seismogram length not a multiple of ncomp"));
            }
            seismograms.push(Seismogram { dt, ncomp, data });
        }
        Ok(SolverState { step, u_prev, u_now, seismograms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_ckpt::format::{decode_file, encode_file};

    #[test]
    fn solver_state_roundtrips_bit_exactly() {
        let mut tr = Seismogram::new(0.25, 3);
        tr.push(&[1.0, -0.0, f64::MIN_POSITIVE]);
        tr.push(&[3.5e-17, 2.0, -9.0]);
        let state = SolverState {
            step: 42,
            u_prev: vec![0.1, -2.0, f64::from_bits(0x7FF0_0000_0000_0001)],
            u_now: vec![4.0; 5],
            seismograms: vec![tr],
        };
        let mut enc = Encoder::new();
        state.encode(&mut enc);
        let file = encode_file(SolverState::KIND, state.step, &enc.into_bytes());
        let (step, payload) = decode_file(SolverState::KIND, &file).unwrap();
        let mut dec = Decoder::new(payload);
        let back = SolverState::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(step, 42);
        assert_eq!(back.step, state.step);
        // Bit-level comparison (NaN payloads included).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.u_prev), bits(&state.u_prev));
        assert_eq!(bits(&back.u_now), bits(&state.u_now));
        assert_eq!(bits(&back.seismograms[0].data), bits(&state.seismograms[0].data));
        assert_eq!(back.seismograms[0].ncomp, 3);
    }

    #[test]
    fn zero_ncomp_trace_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(0); // step
        enc.put_f64_slice(&[]); // u_prev
        enc.put_f64_slice(&[]); // u_now
        enc.put_u64(1); // one trace
        enc.put_f64(0.1);
        enc.put_u64(0); // ncomp = 0: invalid
        enc.put_f64_slice(&[1.0]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(SolverState::decode(&mut dec), Err(CkptError::Malformed(_))));
    }
}
