//! SPMD rank/communicator layer — the MPI substitute (see DESIGN.md).
//!
//! The paper's solver is an owner-computes explicit code: each rank owns a
//! contiguous chunk of elements, assembles local forces, and sum-exchanges
//! the shared interface nodes with its neighbor ranks once per time step.
//! This crate reproduces that communication structure over OS threads:
//!
//! - [`run_spmd`] launches `P` ranks and hands each a [`Communicator`],
//! - point-to-point [`Communicator::send`]/[`Communicator::recv`] over
//!   per-pair unbounded channels,
//! - collectives: [`Communicator::barrier`],
//!   [`Communicator::try_allreduce_sum`], [`Communicator::try_allreduce_max`],
//! - the solver's workhorse [`Communicator::try_exchange_sum`]: symmetric
//!   neighbor lists of shared node ids, gather -> swap -> add.
//!
//! Correctness (data movement, ordering, determinism) is real; *timing* of a
//! 3000-PE machine is the job of `quake-machine`.
//!
//! # Failure semantics
//!
//! Every blocking primitive returns `Result<_, CommError>` (the `try_*`
//! methods): a peer that exits (voluntarily or through an injected fault,
//! see [`fault`]) drops its channel endpoints, and the next operation
//! against it observes [`CommError::RankFailure`] instead of data. Because a
//! rank that stops — for any reason — always drops its `Communicator`, **no
//! blocking receive can hang forever**: it either gets a message or a
//! disconnect. Collectives and the sum-exchange exist only in the `Result`
//! form — the caller decides whether a dead peer is fatal. The two
//! point-to-point primitives keep a fail-stop wrapper each
//! ([`Communicator::send`], [`Communicator::recv`]) for callers where a dead
//! peer is a bug (ping-pong microbenchmarks, ring tests).

#![forbid(unsafe_code)]

pub mod fault;

pub use fault::{Fault, FaultPlan, RankFaults};

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// A communication failure observed by one rank. The fabric is deterministic
/// (fixed protocols, per-pair FIFO channels), so each variant pinpoints a
/// real event: a peer that went away, or a protocol skew such as a dropped
/// exchange shifting the step tags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's channel endpoints are gone: it exited, was killed by a
    /// fault plan, or aborted its own step loop.
    RankFailure { peer: usize },
    /// A message arrived with the wrong tag — the deterministic protocols
    /// make this a desynchronization (e.g. a peer skipped an exchange).
    Protocol { peer: usize, expected: u64, got: u64 },
    /// A payload had the wrong length for the agreed exchange plan.
    SizeMismatch { peer: usize, expected: usize, got: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankFailure { peer } => write!(f, "rank {peer} failed (peer rank hung up)"),
            CommError::Protocol { peer, expected, got } => {
                write!(
                    f,
                    "protocol mismatch with rank {peer}: expected tag {expected:#x}, got {got:#x}"
                )
            }
            CommError::SizeMismatch { peer, expected, got } => {
                write!(f, "size mismatch from rank {peer}: expected {expected} doubles, got {got}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A message between ranks: a tag plus a payload of doubles.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    pub tag: u64,
    pub data: Vec<f64>,
}

/// Per-rank handle to the communication fabric.
pub struct Communicator {
    rank: usize,
    size: usize,
    /// `senders[j]` sends to rank j (our channel into their inbox from us).
    senders: Vec<Sender<Message>>,
    /// `receivers[j]` receives messages sent by rank j to us.
    receivers: Vec<Receiver<Message>>,
    barrier: Arc<Barrier>,
}

impl Communicator {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `data` to `to` with a tag (non-blocking; channels are unbounded).
    /// Returns [`CommError::RankFailure`] if the destination has exited.
    pub fn try_send(&self, to: usize, tag: u64, data: Vec<f64>) -> Result<(), CommError> {
        assert!(to < self.size && to != self.rank, "invalid destination {to}");
        self.senders[to]
            .send(Message { tag, data })
            .map_err(|_| CommError::RankFailure { peer: to })
    }

    /// Blocking receive of the next message from `from`. Returns
    /// [`CommError::RankFailure`] if the peer exits before sending and
    /// [`CommError::Protocol`] on a tag mismatch. Never hangs forever: a
    /// stopped peer always disconnects its channels.
    pub fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        assert!(from < self.size && from != self.rank, "invalid source {from}");
        let msg = self.receivers[from].recv().map_err(|_| CommError::RankFailure { peer: from })?;
        if msg.tag != tag {
            return Err(CommError::Protocol { peer: from, expected: tag, got: msg.tag });
        }
        Ok(msg.data)
    }

    /// Fail-stop [`Communicator::try_send`] (the original API; a dead peer
    /// is a bug for callers that opted out of recovery).
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.try_send(to, tag, data).expect("peer rank hung up");
    }

    /// Fail-stop [`Communicator::try_recv`]; panics on failure or tag
    /// mismatch (our protocols are deterministic, so a mismatch is a bug).
    pub fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
        self.try_recv(from, tag).expect("peer rank hung up")
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Elementwise global sum of `x` across ranks (gather at 0, broadcast);
    /// `Result`-based — a dead rank anywhere surfaces as an error on every
    /// survivor instead of a panic.
    pub fn try_allreduce_sum(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.try_allreduce_elems_tagged(x, |a, b| a + b, 0xA11)
    }

    /// Elementwise global max of `x` across ranks (gather at 0, broadcast).
    pub fn try_allreduce_max_elems(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.try_allreduce_elems_tagged(x, f64::max, 0xC33)
    }

    /// Elementwise global min of `x` across ranks (gather at 0, broadcast).
    pub fn try_allreduce_min_elems(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.try_allreduce_elems_tagged(x, f64::min, 0xC44)
    }

    fn try_allreduce_elems_tagged(
        &self,
        x: &mut [f64],
        op: impl Fn(f64, f64) -> f64,
        tag: u64,
    ) -> Result<(), CommError> {
        if self.size == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            for r in 1..self.size {
                let part = self.try_recv(r, tag)?;
                if part.len() != x.len() {
                    return Err(CommError::SizeMismatch {
                        peer: r,
                        expected: x.len(),
                        got: part.len(),
                    });
                }
                for (a, b) in x.iter_mut().zip(&part) {
                    *a = op(*a, *b);
                }
            }
            for r in 1..self.size {
                self.try_send(r, tag + 1, x.to_vec())?;
            }
        } else {
            self.try_send(0, tag, x.to_vec())?;
            let total = self.try_recv(0, tag + 1)?;
            if total.len() != x.len() {
                return Err(CommError::SizeMismatch {
                    peer: 0,
                    expected: x.len(),
                    got: total.len(),
                });
            }
            x.copy_from_slice(&total);
        }
        Ok(())
    }

    /// Global max reduction of a scalar; `Result`-based.
    pub fn try_allreduce_max(&self, v: f64) -> Result<f64, CommError> {
        let mut x = [v];
        self.try_allreduce_max_elems(&mut x)?;
        Ok(x[0])
    }

    /// Sum-exchange shared entries with neighbor ranks.
    ///
    /// `neighbors` holds `(rank, shared_indices)` pairs; both sides must hold
    /// *identical* index lists (as produced by `quake_mesh::ExchangePlan`).
    /// For each neighbor, the values of `data` at the shared indices (ncomp
    /// per index) are sent; received contributions are added in place. Sends
    /// all go out before any receive, so the exchange cannot deadlock — an
    /// *asymmetric* neighbor list (a rank listed us but we did not list it)
    /// therefore surfaces as a [`CommError`] when the forgotten rank's
    /// blocking receive observes our exit, never as a hang.
    ///
    /// `tag` distinguishes exchange generations. The distributed solver tags
    /// each time step's exchange with the step index, so a peer that skipped
    /// an exchange (see [`Fault::DropExchange`]) is detected as
    /// [`CommError::Protocol`] skew rather than silently summing stale data.
    ///
    /// Returns where the call spent its wall time (two clock reads plus four
    /// per neighbor — noise against a multi-millisecond step, so there is no
    /// untimed twin). The payload `Vec` of each message is allocated here,
    /// once per neighbor per call: the channel takes ownership of it.
    pub fn try_exchange_sum(
        &self,
        neighbors: &[(usize, Vec<u32>)],
        data: &mut [f64],
        ncomp: usize,
        tag: u64,
    ) -> Result<ExchangeTiming, CommError> {
        let mut timing = ExchangeTiming::default();
        let mut t = Instant::now();
        for (nbr, ids) in neighbors {
            let mut buf = Vec::with_capacity(ids.len() * ncomp);
            for &i in ids {
                for c in 0..ncomp {
                    buf.push(data[i as usize * ncomp + c]);
                }
            }
            self.try_send(*nbr, tag, buf)?;
        }
        timing.copy_ns += t.elapsed().as_nanos() as u64;
        for (nbr, ids) in neighbors {
            t = Instant::now();
            let buf = self.try_recv(*nbr, tag)?;
            timing.wait_ns += t.elapsed().as_nanos() as u64;
            t = Instant::now();
            if buf.len() != ids.len() * ncomp {
                return Err(CommError::SizeMismatch {
                    peer: *nbr,
                    expected: ids.len() * ncomp,
                    got: buf.len(),
                });
            }
            for (k, &i) in ids.iter().enumerate() {
                for c in 0..ncomp {
                    data[i as usize * ncomp + c] += buf[k * ncomp + c];
                }
            }
            timing.copy_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(timing)
    }
}

/// Wall-clock split of one [`Communicator::try_exchange_sum`], nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeTiming {
    /// Time blocked in receives — the peer had not posted its send yet (the
    /// load-imbalance signal).
    pub wait_ns: u64,
    /// Time packing/unpacking payloads and handing them to channels (the
    /// true data-movement cost).
    pub copy_ns: u64,
}

/// Run `f` on `n_ranks` ranks, returning the per-rank results in rank order.
pub fn run_spmd<R: Send>(n_ranks: usize, f: impl Fn(&Communicator) -> R + Sync) -> Vec<R> {
    assert!(n_ranks > 0);
    // Channel matrix: chan[i][j] carries i -> j. The diagonal (self)
    // channels are created but never used — `send` asserts `to != rank`.
    // Rows are built by pushing in ascending order of the opposite index
    // (receivers[j] gains one entry per i, in i order), so both matrices
    // come out fully populated with no Option/unwrap step.
    let mut senders: Vec<Vec<Sender<Message>>> =
        (0..n_ranks).map(|_| Vec::with_capacity(n_ranks)).collect();
    let mut receivers: Vec<Vec<Receiver<Message>>> =
        (0..n_ranks).map(|_| Vec::with_capacity(n_ranks)).collect();
    for i in 0..n_ranks {
        for j in 0..n_ranks {
            let (s, r) = channel();
            senders[i].push(s); // senders[i][j]
            receivers[j].push(r); // receivers[j][i]
        }
    }
    let barrier = Arc::new(Barrier::new(n_ranks));
    let mut comms: Vec<Communicator> = Vec::with_capacity(n_ranks);
    for (rank, (srow, rrow)) in senders.into_iter().zip(receivers).enumerate() {
        comms.push(Communicator {
            rank,
            size: n_ranks,
            senders: srow,
            receivers: rrow,
            barrier: barrier.clone(),
        });
    }

    // Each rank's Communicator moves into its own thread (mpsc receivers are
    // Send but not Sync); results come back in rank order via the handles.
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms.into_iter().map(|comm| scope.spawn(move || f(&comm))).collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_accumulates_all_ranks() {
        let n = 4;
        let results = run_spmd(n, |c| {
            // Pass a token around the ring, each rank adds its id.
            let mut token = if c.rank() == 0 { vec![0.0] } else { c.recv(c.rank() - 1, 7) };
            token[0] += c.rank() as f64;
            if c.rank() + 1 < c.size() {
                c.send(c.rank() + 1, 7, token.clone());
            }
            token[0]
        });
        assert_eq!(results[n - 1], (0..n).sum::<usize>() as f64);
    }

    #[test]
    fn allreduce_sum_is_consistent_on_all_ranks() {
        let results = run_spmd(5, |c| {
            let mut x = vec![c.rank() as f64, 1.0];
            c.try_allreduce_sum(&mut x).unwrap();
            x
        });
        for r in &results {
            assert_eq!(r, &vec![10.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_min_max_elems_are_elementwise_and_consistent() {
        let results = run_spmd(4, |c| {
            let r = c.rank() as f64;
            let mut mx = vec![r, -r, 10.0];
            let mut mn = mx.clone();
            c.try_allreduce_max_elems(&mut mx).unwrap();
            c.try_allreduce_min_elems(&mut mn).unwrap();
            (mx, mn)
        });
        for (mx, mn) in &results {
            assert_eq!(mx, &vec![3.0, 0.0, 10.0]);
            assert_eq!(mn, &vec![0.0, -3.0, 10.0]);
        }
    }

    #[test]
    fn allreduce_max_finds_global_max() {
        let results = run_spmd(6, |c| c.try_allreduce_max((c.rank() as f64 - 2.5).abs()));
        for r in results {
            assert_eq!(r, Ok(2.5));
        }
    }

    #[test]
    fn exchange_sum_adds_symmetric_contributions() {
        // Two ranks share indices [1, 3] of a 5-entry, 2-component array.
        let results = run_spmd(2, |c| {
            let other = 1 - c.rank();
            let plan = vec![(other, vec![1u32, 3u32])];
            // data[i] = rank*100 + i for comp 0, negative for comp 1.
            let mut data: Vec<f64> = (0..10)
                .map(|k| {
                    let (i, comp) = (k / 2, k % 2);
                    let v = c.rank() as f64 * 100.0 + i as f64;
                    if comp == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            // Rank 1 is late, so rank 0 must observe genuine wait time.
            if c.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let timing = c.try_exchange_sum(&plan, &mut data, 2, 0xE0).unwrap();
            (data, timing)
        });
        // Rank 0 sat out the 5 ms in its blocking receive: attributed to wait.
        let t0 = results[0].1;
        assert!(t0.wait_ns >= 4_000_000, "rank 0: {t0:?}");
        // Shared entries hold the sum of both ranks' values; others untouched.
        for (rank, (data, _)) in results.iter().enumerate() {
            for i in 0..5usize {
                let expect0 = if i == 1 || i == 3 {
                    (i + i) as f64 + 100.0
                } else {
                    rank as f64 * 100.0 + i as f64
                };
                assert_eq!(data[2 * i], expect0, "rank {rank} node {i}");
                assert_eq!(data[2 * i + 1], -expect0, "rank {rank} node {i} comp 1");
            }
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let results = run_spmd(4, |c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all 4 increments.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&r| r == 4));
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let r = run_spmd(1, |c| {
            let mut x = vec![3.0, 4.0];
            c.try_allreduce_sum(&mut x).unwrap();
            assert_eq!(c.try_allreduce_max(9.0), Ok(9.0));
            c.barrier();
            x
        });
        assert_eq!(r[0], vec![3.0, 4.0]);
    }

    #[test]
    fn exchange_sum_single_rank_no_neighbors_is_identity() {
        let r = run_spmd(1, |c| {
            let mut data = vec![1.0, 2.0, 3.0];
            c.try_exchange_sum(&[], &mut data, 3, 0xE0)?;
            Ok::<_, CommError>(data)
        });
        assert_eq!(r[0].as_ref().unwrap(), &vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn exchange_sum_empty_shared_indices_is_identity() {
        // Neighbors listed but with zero shared nodes: an empty message each
        // way, data unchanged, no deadlock.
        let results = run_spmd(2, |c| {
            let plan = vec![(1 - c.rank(), Vec::<u32>::new())];
            let mut data = vec![c.rank() as f64; 4];
            c.try_exchange_sum(&plan, &mut data, 2, 0xE0)?;
            Ok::<_, CommError>(data)
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &vec![rank as f64; 4]);
        }
    }

    #[test]
    fn exchange_sum_asymmetric_neighbor_lists_error_instead_of_deadlocking() {
        // Rank 0 lists rank 1, but rank 1 lists nobody and exits. Rank 0's
        // blocking receive must observe the disconnect as RankFailure.
        let results = run_spmd(2, |c| {
            if c.rank() == 0 {
                let plan = vec![(1usize, vec![0u32])];
                let mut data = vec![5.0];
                c.try_exchange_sum(&plan, &mut data, 1, 0xE0).map(|_| ())
            } else {
                Ok(()) // drops its Communicator on return
            }
        });
        assert!(matches!(results[0], Err(CommError::RankFailure { peer: 1 })));
        assert!(results[1].is_ok());
    }

    #[test]
    fn try_recv_reports_tag_skew_as_protocol_error() {
        let results = run_spmd(2, |c| {
            if c.rank() == 0 {
                c.try_send(1, 0xE000_0000 + 3, vec![1.0])?;
                Ok(Vec::new())
            } else {
                c.try_recv(0, 0xE000_0000 + 4)
            }
        });
        match &results[1] {
            Err(CommError::Protocol { peer, expected, got }) => {
                assert_eq!((*peer, *expected, *got), (0, 0xE000_0000 + 4, 0xE000_0000 + 3));
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn allreduce_survivors_error_when_a_rank_dies() {
        // Rank 2 exits before the reduction; every survivor's allreduce must
        // return RankFailure rather than hang or panic.
        let results = run_spmd(3, |c| {
            if c.rank() == 2 {
                return None;
            }
            let mut x = vec![c.rank() as f64];
            Some(c.try_allreduce_sum(&mut x))
        });
        assert!(matches!(results[0], Some(Err(CommError::RankFailure { .. }))));
        assert!(matches!(results[1], Some(Err(CommError::RankFailure { .. }))));
        assert!(results[2].is_none());
    }
}
