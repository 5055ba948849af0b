//! Barrier and queued-lock bookkeeping.
//!
//! Workload traces contain explicit synchronization operations. The machine
//! delegates their blocking semantics to these small deterministic state
//! machines: a processor that must wait is parked (its clock moves to
//! "never") until the releasing event computes the wake-up time.

use crate::{Cycle, FastMap};

/// Outcome of a barrier arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// The arriving processor must block until the last participant arrives.
    Wait,
    /// The arriving processor was the last one: every parked participant
    /// (including the arriver) resumes at `release_at`.
    Release {
        /// Processors parked at this barrier, in arrival order
        /// (not including the final arriver).
        waiters: Vec<usize>,
        /// The simulated time at which all participants resume.
        release_at: Cycle,
    },
}

/// State for all barriers used by a program.
///
/// Barriers are identified by small integer ids; all barriers span the same
/// fixed set of `participants` processors (the SPMD model used by the
/// SPLASH workloads).
///
/// # Example
///
/// ```
/// use prism_sim::{Cycle, sync::{BarrierSet, BarrierOutcome}};
///
/// let mut barriers = BarrierSet::new(2);
/// assert_eq!(barriers.arrive(0, 0, Cycle(100)), BarrierOutcome::Wait);
/// let out = barriers.arrive(0, 1, Cycle(250));
/// assert_eq!(out, BarrierOutcome::Release { waiters: vec![0], release_at: Cycle(250) });
/// ```
#[derive(Clone, Debug)]
pub struct BarrierSet {
    participants: usize,
    pending: FastMap<u32, BarrierState>,
    episodes: u64,
}

#[derive(Clone, Debug, Default)]
struct BarrierState {
    waiters: Vec<usize>,
    latest: Cycle,
}

impl BarrierSet {
    /// Creates barrier state for a program with `participants` processors.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> BarrierSet {
        assert!(participants > 0, "barrier needs at least one participant");
        BarrierSet {
            participants,
            pending: FastMap::default(),
            episodes: 0,
        }
    }

    /// Processor `proc` arrives at barrier `id` at time `now`.
    ///
    /// Barriers are reusable: after a release the barrier's state is
    /// cleared so the same id can be used for the next episode.
    pub fn arrive(&mut self, id: u32, proc: usize, now: Cycle) -> BarrierOutcome {
        let state = self.pending.entry(id).or_default();
        debug_assert!(
            !state.waiters.contains(&proc),
            "processor {proc} arrived twice at barrier {id}"
        );
        state.latest = state.latest.max(now);
        if state.waiters.len() + 1 == self.participants {
            let state = self.pending.remove(&id).expect("just inserted");
            self.episodes += 1;
            BarrierOutcome::Release {
                release_at: state.latest,
                waiters: state.waiters,
            }
        } else {
            state.waiters.push(proc);
            BarrierOutcome::Wait
        }
    }

    /// Permanently removes a participant (a dead processor). Barriers
    /// whose remaining participants have all arrived are released;
    /// returns their outcomes so the caller can wake the waiters.
    pub fn remove_participant(&mut self, proc: usize) -> Vec<BarrierOutcome> {
        assert!(self.participants > 1, "cannot remove the last participant");
        self.participants -= 1;
        let ready: Vec<u32> = self
            .pending
            .iter_mut()
            .filter_map(|(&id, state)| {
                // Drop the dead processor if it was parked here.
                state.waiters.retain(|&w| w != proc);
                (state.waiters.len() >= self.participants).then_some(id)
            })
            .collect();
        let mut out = Vec::new();
        for id in ready {
            let state = self.pending.remove(&id).expect("listed");
            self.episodes += 1;
            out.push(BarrierOutcome::Release {
                release_at: state.latest,
                waiters: state.waiters,
            });
        }
        out
    }

    /// Number of live participants.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Number of completed barrier episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Processors currently parked across all barriers.
    pub fn parked(&self) -> usize {
        self.pending.values().map(|s| s.waiters.len()).sum()
    }
}

/// Outcome of a lock acquire attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free; the caller holds it from `at`.
    Acquired {
        /// Time at which the lock is held.
        at: Cycle,
    },
    /// The lock is held; the caller is queued FIFO and must block.
    Queued,
}

/// FIFO queued locks, identified by small integer ids.
///
/// # Example
///
/// ```
/// use prism_sim::{Cycle, sync::{LockSet, LockOutcome}};
///
/// let mut locks = LockSet::new();
/// assert_eq!(locks.acquire(3, 0, Cycle(10)), LockOutcome::Acquired { at: Cycle(10) });
/// assert_eq!(locks.acquire(3, 1, Cycle(20)), LockOutcome::Queued);
/// // Holder releases; the queued processor is granted the lock.
/// let grant = locks.release(3, 0, Cycle(90));
/// assert_eq!(grant, Some((1, Cycle(90))));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LockSet {
    locks: FastMap<u32, LockState>,
    acquisitions: u64,
    contended: u64,
}

#[derive(Clone, Debug)]
struct LockState {
    holder: usize,
    queue: Vec<(usize, Cycle)>,
}

impl LockSet {
    /// Creates an empty lock table.
    pub fn new() -> LockSet {
        LockSet::default()
    }

    /// Processor `proc` tries to acquire lock `id` at `now`.
    ///
    /// Locks are not recursive. A holder that acquires its own lock
    /// again queues behind itself like any other waiter and is never
    /// granted it; the machine's run then ends in a deadlock error.
    pub fn acquire(&mut self, id: u32, proc: usize, now: Cycle) -> LockOutcome {
        self.acquisitions += 1;
        match self.locks.get_mut(&id) {
            None => {
                self.locks.insert(
                    id,
                    LockState {
                        holder: proc,
                        queue: Vec::new(),
                    },
                );
                LockOutcome::Acquired { at: now }
            }
            Some(state) => {
                self.contended += 1;
                state.queue.push((proc, now));
                LockOutcome::Queued
            }
        }
    }

    /// Processor `proc` releases lock `id` at `now`. If another processor is
    /// queued, returns `(next_holder, grant_time)`; the machine is
    /// responsible for waking it and charging any hand-off latency.
    ///
    /// # Panics
    ///
    /// Panics if `proc` does not hold the lock.
    pub fn release(&mut self, id: u32, proc: usize, now: Cycle) -> Option<(usize, Cycle)> {
        let state = self.locks.get_mut(&id).expect("release of unheld lock");
        assert_eq!(
            state.holder, proc,
            "lock {id} released by non-holder {proc}"
        );
        if state.queue.is_empty() {
            self.locks.remove(&id);
            None
        } else {
            let (next, queued_at) = state.queue.remove(0);
            state.holder = next;
            Some((next, now.max(queued_at)))
        }
    }

    /// Releases every lock held by a dead processor and removes it from
    /// all queues. Returns `(lock, next_holder, grant_time)` for each
    /// lock handed to a queued waiter.
    pub fn release_all_held_by(&mut self, proc: usize, now: Cycle) -> Vec<(u32, usize, Cycle)> {
        let held: Vec<u32> = self
            .locks
            .iter()
            .filter(|(_, s)| s.holder == proc)
            .map(|(&id, _)| id)
            .collect();
        let mut grants = Vec::new();
        for id in held {
            if let Some((next, at)) = self.release(id, proc, now) {
                grants.push((id, next, at));
            }
        }
        // Drop the dead processor from any queues it sits in.
        for state in self.locks.values_mut() {
            state.queue.retain(|&(p, _)| p != proc);
        }
        grants
    }

    /// Total acquire attempts.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Acquire attempts that found the lock held.
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Number of locks currently held.
    pub fn held(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_at_latest_arrival() {
        let mut b = BarrierSet::new(3);
        assert_eq!(b.arrive(7, 0, Cycle(500)), BarrierOutcome::Wait);
        assert_eq!(b.arrive(7, 2, Cycle(100)), BarrierOutcome::Wait);
        assert_eq!(b.parked(), 2);
        match b.arrive(7, 1, Cycle(250)) {
            BarrierOutcome::Release {
                waiters,
                release_at,
            } => {
                assert_eq!(waiters, vec![0, 2]);
                assert_eq!(release_at, Cycle(500));
            }
            other => panic!("expected release, got {other:?}"),
        }
        assert_eq!(b.episodes(), 1);
        assert_eq!(b.parked(), 0);
    }

    #[test]
    fn barrier_is_reusable() {
        let mut b = BarrierSet::new(2);
        for episode in 0..5u64 {
            assert_eq!(b.arrive(0, 0, Cycle(episode * 10)), BarrierOutcome::Wait);
            assert!(matches!(
                b.arrive(0, 1, Cycle(episode * 10 + 5)),
                BarrierOutcome::Release { .. }
            ));
        }
        assert_eq!(b.episodes(), 5);
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let mut b = BarrierSet::new(1);
        assert!(matches!(
            b.arrive(0, 0, Cycle(42)),
            BarrierOutcome::Release {
                release_at: Cycle(42),
                ..
            }
        ));
    }

    #[test]
    fn lock_fifo_handoff() {
        let mut l = LockSet::new();
        assert_eq!(
            l.acquire(0, 0, Cycle(0)),
            LockOutcome::Acquired { at: Cycle(0) }
        );
        assert_eq!(l.acquire(0, 1, Cycle(5)), LockOutcome::Queued);
        assert_eq!(l.acquire(0, 2, Cycle(6)), LockOutcome::Queued);
        assert_eq!(l.release(0, 0, Cycle(50)), Some((1, Cycle(50))));
        assert_eq!(l.release(0, 1, Cycle(60)), Some((2, Cycle(60))));
        assert_eq!(l.release(0, 2, Cycle(70)), None);
        assert_eq!(l.held(), 0);
        assert_eq!(l.acquisitions(), 3);
        assert_eq!(l.contended(), 2);
    }

    #[test]
    fn grant_time_respects_queuing_time() {
        // A release that happens "before" the queued request's own arrival
        // timestamp cannot grant the lock in the requester's past.
        let mut l = LockSet::new();
        l.acquire(1, 0, Cycle(0));
        l.acquire(1, 1, Cycle(100));
        assert_eq!(l.release(1, 0, Cycle(40)), Some((1, Cycle(100))));
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut l = LockSet::new();
        l.acquire(0, 0, Cycle(0));
        l.release(0, 1, Cycle(1));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participant_barrier_rejected() {
        BarrierSet::new(0);
    }
}
