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
//! silently absorbing stale data).
//!
//! The plan itself is pure data — consumers (the distributed solver's
//! recovery loop, the `bench_recover` binary) query it per `(rank, step)`
//! and act. Injection is a *test-time* capability: an empty plan is the
//! production configuration and costs three `Vec::is_empty` checks per step.

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

    /// Does `rank` die before executing `step`?
    pub fn should_kill(&self, rank: usize, step: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Kill { rank: r, step: s } if *r == rank && *s == step))
    }

    /// Milliseconds of injected delay before the exchange of `step` on
    /// `rank` (sums if several delays are scripted).
    pub fn exchange_delay_ms(&self, rank: usize, step: u64) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DelayExchange { rank: r, step: s, millis } if *r == rank && *s == step => {
                    Some(*millis)
                }
                _ => None,
            })
            .sum()
    }

    /// Does `rank` drop the exchange of `step`?
    pub fn drops_exchange(&self, rank: usize, step: u64) -> bool {
        self.faults.iter().any(
            |f| matches!(f, Fault::DropExchange { rank: r, step: s } if *r == rank && *s == step),
        )
    }

    /// The state index `rank` corrupts before executing `step`, if any
    /// (first scripted corruption wins).
    pub fn corrupts_state(&self, rank: usize, step: u64) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::CorruptState { rank: r, step: s, index } if *r == rank && *s == step => {
                Some(*index)
            }
            _ => None,
        })
    }

    /// The earliest scripted kill step of any rank, if one exists (used by
    /// supervisors to sanity-check that checkpoints precede the fault).
    pub fn first_kill_step(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::Kill { step, .. } => Some(*step),
                _ => None,
            })
            .min()
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
    /// Does this rank die before executing `step`?
    pub fn kills(&self, step: u64) -> bool {
        self.plan.should_kill(self.rank, step)
    }

    /// Injected delay (ms) before this rank's exchange of `step`.
    pub fn delay_ms(&self, step: u64) -> u64 {
        self.plan.exchange_delay_ms(self.rank, step)
    }

    /// Does this rank drop the exchange of `step`?
    pub fn drops(&self, step: u64) -> bool {
        self.plan.drops_exchange(self.rank, step)
    }

    /// State index this rank corrupts before executing `step`, if any.
    pub fn corrupts(&self, step: u64) -> Option<usize> {
        self.plan.corrupts_state(self.rank, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries_match_scripted_faults() {
        let plan = FaultPlan::kill(2, 10)
            .and(Fault::DelayExchange { rank: 1, step: 4, millis: 3 })
            .and(Fault::DelayExchange { rank: 1, step: 4, millis: 2 })
            .and(Fault::DropExchange { rank: 0, step: 7 })
            .and(Fault::CorruptState { rank: 3, step: 8, index: 41 });
        assert!(plan.should_kill(2, 10));
        assert!(!plan.should_kill(2, 9));
        assert!(!plan.should_kill(1, 10));
        assert_eq!(plan.exchange_delay_ms(1, 4), 5);
        assert_eq!(plan.exchange_delay_ms(1, 5), 0);
        assert!(plan.drops_exchange(0, 7));
        assert!(!plan.drops_exchange(0, 8));
        assert_eq!(plan.corrupts_state(3, 8), Some(41));
        assert_eq!(plan.corrupts_state(3, 9), None);
        assert_eq!(plan.rank_view(3).corrupts(8), Some(41));
        assert_eq!(plan.first_kill_step(), Some(10));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().first_kill_step(), None);
    }
}
