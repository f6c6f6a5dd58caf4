//! Fault injection for SPMD runs.
//!
//! A [`FaultPlan`] scripts failures into a run the way a chaos harness
//! would: *kill rank R at step S* (the rank exits its step loop, dropping
//! its channel endpoints — peers subsequently observe
//! [`CommError::RankFailure`](crate::CommError::RankFailure) instead of
//! data), *delay an exchange* (the rank sleeps before communicating,
//! modeling a slow PE — results must be unchanged), or *drop an exchange*
//! (the rank skips one step's exchange entirely; with step-tagged exchanges
//! its peers detect the skew as a
//! [`CommError::Protocol`](crate::CommError::Protocol) mismatch instead of
//! silently absorbing stale data), or *corrupt the state* (the rank writes
//! a NaN into its solution, a silent numerical fault only a numerics
//! watchdog can see).
//!
//! The plan itself is pure data, built once per run. A per-rank step loop
//! asks it one question — what happens to me at this step? — through one
//! API, the rank's [`RankFaults`] view ([`FaultPlan::rank_view`]).
//! Injection is a *test-time* capability: the empty plan is the production
//! configuration, and the distributed supervisor installs no fault hook for
//! it.

/// One scripted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Rank exits its step loop before executing `step` (peers see its
    /// channels disconnect).
    Kill { rank: usize, step: u64 },
    /// Rank sleeps `millis` before the exchange of `step` (a slow PE;
    /// correctness must be unaffected).
    DelayExchange { rank: usize, step: u64, millis: u64 },
    /// Rank skips the exchange of `step` entirely (detected by peers via
    /// step-tag mismatch on the *next* exchange).
    DropExchange { rank: usize, step: u64 },
    /// Rank overwrites one entry of its solution state with NaN before
    /// executing `step` — a silent numerical corruption (bit flip, kernel
    /// bug) that no comm-layer check can see. Detection is the job of a
    /// numerics watchdog (the solver's `HealthHook`).
    CorruptState { rank: usize, step: u64, index: usize },
}

impl Fault {
    /// The rank the fault acts on.
    pub fn rank(&self) -> usize {
        match *self {
            Fault::Kill { rank, .. }
            | Fault::DelayExchange { rank, .. }
            | Fault::DropExchange { rank, .. }
            | Fault::CorruptState { rank, .. } => rank,
        }
    }

    /// The step the fault is scripted for.
    pub fn step(&self) -> u64 {
        match *self {
            Fault::Kill { step, .. }
            | Fault::DelayExchange { step, .. }
            | Fault::DropExchange { step, .. }
            | Fault::CorruptState { step, .. } => step,
        }
    }
}

/// A scripted set of faults for one SPMD run.
///
/// Steps are base steps of the run. A step loop that only has a whole-domain
/// state every `M` base steps (the solver's rate-group plans: `M` is the macro
/// cycle, 1 under global dt) fires a [`Fault::Kill`] or
/// [`Fault::CorruptState`] scripted for step `s` at its first sync step
/// `>= s`; exchange faults fire at exactly `s`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty (production) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plan with a single rank kill.
    pub fn kill(rank: usize, step: u64) -> FaultPlan {
        FaultPlan::none().and(Fault::Kill { rank, step })
    }

    /// Add a fault (builder style).
    pub fn and(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// This plan as seen from one rank — the view a per-rank step loop (or
    /// fault-injection hook) queries by step alone, without threading the
    /// full plan plus a rank id through its signature.
    pub fn rank_view(&self, rank: usize) -> RankFaults<'_> {
        RankFaults { plan: self, rank }
    }
}

/// One rank's view of a [`FaultPlan`] (see [`FaultPlan::rank_view`]).
#[derive(Clone, Copy, Debug)]
pub struct RankFaults<'p> {
    plan: &'p FaultPlan,
    rank: usize,
}

impl RankFaults<'_> {
    /// This rank's scripted faults at `step`.
    fn at(&self, step: u64) -> impl Iterator<Item = &Fault> {
        self.plan.faults.iter().filter(move |f| f.rank() == self.rank && f.step() == step)
    }

    /// Does this rank die before executing `step`?
    pub fn kills(&self, step: u64) -> bool {
        self.at(step).any(|f| matches!(f, Fault::Kill { .. }))
    }

    /// Injected delay (ms) before this rank's exchange of `step` (sums if
    /// several delays are scripted).
    pub fn delay_ms(&self, step: u64) -> u64 {
        self.at(step)
            .map(|f| match f {
                Fault::DelayExchange { millis, .. } => *millis,
                _ => 0,
            })
            .sum()
    }

    /// Does this rank drop the exchange of `step`?
    pub fn drops(&self, step: u64) -> bool {
        self.at(step).any(|f| matches!(f, Fault::DropExchange { .. }))
    }

    /// State index this rank corrupts before executing `step`, if any
    /// (first scripted corruption wins).
    pub fn corrupts(&self, step: u64) -> Option<usize> {
        self.at(step).find_map(|f| match f {
            Fault::CorruptState { index, .. } => Some(*index),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_views_answer_the_scripted_faults() {
        let plan = FaultPlan::kill(2, 10)
            .and(Fault::DelayExchange { rank: 1, step: 4, millis: 3 })
            .and(Fault::DelayExchange { rank: 1, step: 4, millis: 2 })
            .and(Fault::DropExchange { rank: 0, step: 7 })
            .and(Fault::CorruptState { rank: 3, step: 8, index: 41 })
            .and(Fault::CorruptState { rank: 3, step: 8, index: 5 });
        let (r0, r1, r2, r3) =
            (plan.rank_view(0), plan.rank_view(1), plan.rank_view(2), plan.rank_view(3));
        assert!(r2.kills(10));
        assert!(!r2.kills(9));
        assert!(!r1.kills(10));
        assert_eq!(r1.delay_ms(4), 5);
        assert_eq!(r1.delay_ms(5), 0);
        assert_eq!(r0.delay_ms(4), 0);
        assert!(r0.drops(7));
        assert!(!r0.drops(8));
        assert!(!r1.drops(7));
        assert_eq!(r3.corrupts(8), Some(41), "first scripted corruption wins");
        assert_eq!(r3.corrupts(9), None);
        assert_eq!(r2.corrupts(8), None);
        assert_eq!((plan.faults()[3].rank(), plan.faults()[3].step()), (0, 7));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
