//! Checkpointable Gauss-Newton state — restartable inversions.
//!
//! The paper's inversions are the expensive half of the pipeline (each outer
//! iteration costs a forward solve, an adjoint solve, and one
//! forward+adjoint pair *per CG iteration*), so losing a multiscale run to a
//! failure is far costlier than losing one forward simulation. A
//! [`GnCheckpoint`] captures the full outer-iteration state of
//! [`invert_material_resumable`](crate::gncg::invert_material_resumable):
//! the material iterate, the L-BFGS secant pairs harvested from CG, the
//! convergence statistics, and the two run-scaling scalars (`jd0`, the
//! initial data misfit that scales the barrier, and `g0_norm`, the reference
//! gradient norm of the relative stopping test). Restoring all of it makes a
//! resumed inversion **bit-identical** to an uninterrupted one — recomputing
//! `jd0` would give the same bits but costs a forward solve; *not* restoring
//! `g0_norm` would silently change the stopping test.

use quake_ckpt::{Checkpointable, CkptError, Decoder, Encoder};

use crate::gncg::GnStats;

/// Resumable outer-iteration state of a Gauss-Newton-CG inversion.
/// `next_iter` is the next outer iteration to execute.
#[derive(Clone, Debug)]
pub struct GnCheckpoint {
    /// Next Gauss-Newton iteration to execute (0-based).
    pub next_iter: u64,
    /// Current material iterate on the inversion grid.
    pub m: Vec<f64>,
    /// L-BFGS secant pairs `(s, y)` in insertion order; `rho = 1/(s.y)` is
    /// recomputed on rebuild (bit-identical: same inputs, same expression).
    pub lbfgs_pairs: Vec<(Vec<f64>, Vec<f64>)>,
    /// Convergence record so far (histories keep growing across the resume).
    pub stats: GnStats,
    /// Reference gradient norm of the relative stopping test (`None` until
    /// the first iteration evaluated a gradient).
    pub g0_norm: Option<f64>,
    /// Initial data misfit `J_d(m_0)` — scales the log barrier.
    pub jd0: f64,
}

impl Checkpointable for GnCheckpoint {
    const KIND: &'static str = "quake.inverse.gncg.v1";

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.next_iter);
        enc.put_f64_slice(&self.m);
        enc.put_u64(self.lbfgs_pairs.len() as u64);
        for (s, y) in &self.lbfgs_pairs {
            enc.put_f64_slice(s);
            enc.put_f64_slice(y);
        }
        match self.g0_norm {
            Some(v) => {
                enc.put_bool(true);
                enc.put_f64(v);
            }
            None => enc.put_bool(false),
        }
        enc.put_f64(self.jd0);
        enc.put_u64(self.stats.gn_iters as u64);
        enc.put_u64(self.stats.cg_iters_total as u64);
        let cg: Vec<u64> = self.stats.cg_iters_per_gn.iter().map(|&v| v as u64).collect();
        enc.put_u64_slice(&cg);
        enc.put_f64_slice(&self.stats.objective_history);
        enc.put_f64_slice(&self.stats.misfit_history);
        enc.put_f64_slice(&self.stats.grad_norms);
        enc.put_bool(self.stats.converged);
    }

    fn decode(dec: &mut Decoder) -> Result<GnCheckpoint, CkptError> {
        let next_iter = dec.take_u64()?;
        let m = dec.take_f64_vec()?;
        // Every pair encodes at least its two vector lengths.
        let n_pairs = dec.take_len(16)?;
        let mut lbfgs_pairs = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            let s = dec.take_f64_vec()?;
            let y = dec.take_f64_vec()?;
            if s.len() != y.len() || s.len() != m.len() {
                return Err(CkptError::Malformed("secant pair length mismatch"));
            }
            lbfgs_pairs.push((s, y));
        }
        let g0_norm = if dec.take_bool()? { Some(dec.take_f64()?) } else { None };
        let jd0 = dec.take_f64()?;
        let stats = GnStats {
            gn_iters: dec.take_u64()? as usize,
            cg_iters_total: dec.take_u64()? as usize,
            cg_iters_per_gn: dec.take_u64_vec()?.into_iter().map(|v| v as usize).collect(),
            objective_history: dec.take_f64_vec()?,
            misfit_history: dec.take_f64_vec()?,
            grad_norms: dec.take_f64_vec()?,
            converged: dec.take_bool()?,
        };
        Ok(GnCheckpoint { next_iter, m, lbfgs_pairs, stats, g0_norm, jd0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gn_checkpoint_roundtrips_bit_exactly() -> Result<(), CkptError> {
        let c = GnCheckpoint {
            next_iter: 3,
            m: vec![1.0e10, 2.5e9, -0.0],
            lbfgs_pairs: vec![(vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0])],
            stats: GnStats {
                gn_iters: 3,
                cg_iters_total: 17,
                cg_iters_per_gn: vec![5, 6, 6],
                objective_history: vec![9.0, 4.0, 1.0],
                misfit_history: vec![8.5, 3.5, 0.5],
                grad_norms: vec![1e3, 1e1, 1e-1],
                converged: false,
            },
            g0_norm: Some(1e3),
            jd0: 8.5,
        };
        let mut enc = Encoder::new();
        c.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = GnCheckpoint::decode(&mut dec)?;
        dec.finish()?;
        assert_eq!(back.next_iter, 3);
        assert_eq!(back.m, c.m);
        assert_eq!(back.lbfgs_pairs, c.lbfgs_pairs);
        assert_eq!(back.g0_norm, c.g0_norm);
        assert_eq!(back.jd0, c.jd0);
        assert_eq!(back.stats.cg_iters_per_gn, c.stats.cg_iters_per_gn);
        assert_eq!(back.stats.objective_history, c.stats.objective_history);
        assert!(!back.stats.converged);
        Ok(())
    }

    #[test]
    fn mismatched_pair_lengths_are_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(0);
        enc.put_f64_slice(&[1.0, 2.0]); // m: 2 params
        enc.put_u64(1);
        enc.put_f64_slice(&[1.0, 2.0, 3.0]); // s: 3 (wrong)
        enc.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(GnCheckpoint::decode(&mut dec), Err(CkptError::Malformed(_))));
    }
}
