//! Cross-rank registry reduction over `quake-parcomm`.
//!
//! SPMD runs produce one [`crate::Registry`] per rank; the paper's tables
//! report min/max/mean across PEs (load imbalance is exactly the min-to-max
//! spread of the compute phase). [`try_reduce_across_ranks`] is a
//! collective: every rank calls it with its own [`crate::Snapshot`], every
//! rank returns the same reduced view. Metric name sets must agree across
//! ranks (they do in an SPMD code by construction — the same instrumented
//! code runs everywhere); a fingerprint check turns a divergence into a
//! typed [`ReduceError`] instead of a silently misaligned reduction, and a
//! peer that died mid-reduction surfaces as [`ReduceError::Comm`] on every
//! survivor.

use crate::Snapshot;
use quake_parcomm::{CommError, Communicator};

/// Min/max/mean of one metric across ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct Reduced {
    pub name: String,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

/// Why a cross-rank reduction did not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceError {
    /// The metric name sets (or their order) differ between ranks: an
    /// element-wise reduction would pair unrelated metrics. Every rank
    /// observes the same error — the check itself is a collective.
    NameSetMismatch {
        /// This rank's snapshot fingerprint (two 32-bit FNV-1a halves).
        local: (u32, u32),
    },
    /// A collective of the reduction failed: a peer rank exited (or the
    /// fabric desynchronized) before the reduction completed.
    Comm(CommError),
}

impl From<CommError> for ReduceError {
    fn from(e: CommError) -> ReduceError {
        ReduceError::Comm(e)
    }
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::NameSetMismatch { local } => write!(
                f,
                "metric name sets differ across ranks (local fingerprint {:08x}{:08x})",
                local.0, local.1
            ),
            ReduceError::Comm(e) => write!(f, "cross-rank reduction aborted: {e}"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// FNV-1a over the metric names — the cross-rank consistency fingerprint,
/// split into two exactly-representable 32-bit halves.
fn name_fingerprint(snap: &Snapshot) -> (f64, f64) {
    let mut h: u64 = 0xcbf29ce484222325;
    for (name, _) in &snap.entries {
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff; // name separator
        h = h.wrapping_mul(0x100000001b3);
    }
    ((h >> 32) as u32 as f64, h as u32 as f64)
}

/// Reduce a per-rank snapshot to min/max/mean per metric. Collective: every
/// rank must call with a snapshot holding the *same metric names* in the
/// same (sorted) order; all ranks receive the full reduced list, or all
/// ranks receive [`ReduceError::NameSetMismatch`]. A peer that exits before
/// the reduction completes yields [`ReduceError::Comm`] on the survivors.
pub fn try_reduce_across_ranks(
    comm: &Communicator,
    snap: &Snapshot,
) -> Result<Vec<Reduced>, ReduceError> {
    let (hi, lo) = name_fingerprint(snap);
    let agree = |half: f64| -> Result<bool, CommError> {
        Ok(comm.try_allreduce_max(half)? == -comm.try_allreduce_max(-half)?)
    };
    // Both halves must be allreduced on every rank (the check is itself a
    // collective), so evaluate eagerly before combining.
    let hi_ok = agree(hi)?;
    let lo_ok = agree(lo)?;
    if !hi_ok || !lo_ok {
        return Err(ReduceError::NameSetMismatch { local: (hi as u32, lo as u32) });
    }

    let vals: Vec<f64> = snap.entries.iter().map(|(_, v)| *v).collect();
    let mut sum = vals.clone();
    comm.try_allreduce_sum(&mut sum)?;
    let mut max = vals.clone();
    comm.try_allreduce_max_elems(&mut max)?;
    let mut min = vals;
    comm.try_allreduce_min_elems(&mut min)?;

    let p = comm.size() as f64;
    Ok(snap
        .entries
        .iter()
        .enumerate()
        .map(|(i, (name, _))| Reduced {
            name: name.clone(),
            min: min[i],
            max: max[i],
            mean: sum[i] / p,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use quake_parcomm::run_spmd;

    #[test]
    fn four_rank_reduction_computes_min_max_mean() {
        // Each rank records the same metric names with rank-dependent values;
        // the reduction must agree on every rank.
        let all = run_spmd(4, |comm| {
            let reg = Registry::new(comm.rank());
            let r = comm.rank() as f64;
            reg.add("work_items", 10 + comm.rank() as u64);
            reg.gauge("imbalance", 1.0 + 0.1 * r);
            {
                let _g = reg.span("phase");
            }
            try_reduce_across_ranks(comm, &reg.snapshot()).unwrap()
        });
        for reduced in &all {
            assert_eq!(reduced, &all[0], "reduction differs across ranks");
        }
        let by_name = |n: &str| all[0].iter().find(|r| r.name == n).unwrap().clone();
        let w = by_name("ctr.work_items");
        assert_eq!(w.min, 10.0);
        assert_eq!(w.max, 13.0);
        assert_eq!(w.mean, 11.5);
        let g = by_name("gauge.imbalance");
        assert!((g.min - 1.0).abs() < 1e-12);
        assert!((g.max - 1.3).abs() < 1e-12);
        assert!((g.mean - 1.15).abs() < 1e-12);
        let c = by_name("span.phase.count");
        assert_eq!((c.min, c.max, c.mean), (1.0, 1.0, 1.0));
        // Span seconds reduce to sane values: min <= mean <= max.
        let s = by_name("span.phase.secs");
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn dead_peer_yields_comm_error_on_the_survivor_instead_of_panicking() {
        // Rank 1 exits before the reduction; the survivor's collective
        // observes the disconnect and returns it as a typed error.
        let outcomes = run_spmd(2, |comm| {
            if comm.rank() == 1 {
                return None;
            }
            let reg = Registry::new(comm.rank());
            reg.add("work_items", 1);
            Some(try_reduce_across_ranks(comm, &reg.snapshot()))
        });
        assert_eq!(outcomes[0], Some(Err(ReduceError::Comm(CommError::RankFailure { peer: 1 }))));
        assert!(outcomes[1].is_none());
    }

    #[test]
    fn partially_overlapping_registries_yield_typed_error_on_every_rank() {
        // Shared names plus one rank-local histogram each: the fingerprints
        // diverge, and *every* rank gets the typed error (the check is a
        // collective, so no rank is left hanging in a half-finished
        // reduction). Cut down to the shared subset, the same snapshots
        // reduce fine.
        let outcomes = run_spmd(3, |comm| {
            let reg = Registry::new(comm.rank());
            reg.add("shared_ctr", 1 + comm.rank() as u64);
            reg.observe(&format!("hist_rank{}", comm.rank()), 1.0);
            let full = reg.snapshot();
            let err = try_reduce_across_ranks(comm, &full).unwrap_err();
            let mut common = full.clone();
            common.entries.retain(|(n, _)| !n.starts_with("hist."));
            let ok = try_reduce_across_ranks(comm, &common).unwrap();
            (err, ok)
        });
        for (err, ok) in &outcomes {
            assert!(matches!(err, ReduceError::NameSetMismatch { .. }));
            assert!(err.to_string().contains("metric name sets differ"));
            let c = ok.iter().find(|r| r.name == "ctr.shared_ctr").unwrap();
            assert_eq!((c.min, c.max, c.mean), (1.0, 3.0, 2.0));
        }
        // Fingerprints differ because the name sets do.
        let (e0, _) = &outcomes[0];
        let (e1, _) = &outcomes[1];
        assert_ne!(e0, e1);
    }
}
