//! The scheduling layer: ready set, run loop, and scheduled control
//! events.
//!
//! The machine advances processors in a conservative deterministic
//! interleaving: the runnable processor with the earliest clock executes
//! next (ties break toward the lowest processor id), and keeps executing
//! in a batch while it remains the earliest. This module owns that
//! decision.
//!
//! The ready set is a tournament tree over the fixed processor slots.
//! Leaf `i` holds processor `i`'s packed `(clock, proc)` key while it is
//! Ready and `u64::MAX` otherwise; every inner node holds the smaller of
//! its children, so the root is the next pick. Re-keying a processor
//! replays one leaf-to-root path (log₂P branch-free `min`s), and the
//! batch bound — the earliest key among the *other* processors — is the
//! minimum of the siblings along the winner's path. Fault injections,
//! watchdog sweeps, and audit sweeps are *control events* on a companion
//! queue, popped exactly at the picks where a per-pick check would have
//! fired, so fault-free picks pay nothing for them. The unit tests hold
//! the loop to a brute-force reference that rescans every processor and
//! re-derives every control due at each pick.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prism_mem::addr::{FrameNo, LineIdx, NodeId};
use prism_mem::tags::LineTag;
use prism_mem::trace::{Op, Trace};
use prism_protocol::msg::MsgKind;
use prism_sim::sync::{BarrierOutcome, LockOutcome};
use prism_sim::Cycle;

use crate::faults::ScheduledFaultKind;
use crate::machine::{Machine, RunError};
use crate::node::ProcState;
use crate::obs::{Ctr, ObsEvent};

/// Maximum operations one processor executes per pick while it remains
/// the earliest runnable one.
const BATCH_OPS: usize = 256;

/// Picks between two retirements of the resource timelines (see
/// [`Machine::retire_timelines`]).
const RETIRE_PICKS: u32 = 4096;

/// Control-event classes, in the order they execute when several come
/// due at the same pick (faults strike, then the watchdog sweeps, then
/// the auditor runs — matching the original per-pick check order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ControlKind {
    Fault,
    Watchdog,
    Audit,
}

/// The scheduler's state: a tournament tree of Ready processors and a
/// queue of scheduled control events.
#[derive(Clone, Debug, Default)]
pub(crate) struct Sched {
    /// `2·S` nodes for `S` leaf slots (the next power of two at or
    /// above the processor count, at least 2). Leaf `S + i` holds
    /// processor `i`'s key `(clock << bits) | i` while it is Ready and
    /// `u64::MAX` otherwise; node `k < S` holds the minimum of nodes
    /// `2k` and `2k + 1`, so `tree[1]` is the earliest `(clock, proc)`.
    /// Node 0 is unused.
    tree: Vec<u64>,
    /// `log2 S`: the width of the processor field in a key.
    bits: u32,
    /// Scheduled control events as `(due cycle, kind)`.
    control: BinaryHeap<Reverse<(u64, ControlKind)>>,
    /// False outside the run loop (and while the test-only reference
    /// loop drives the machine): wakes and schedules are skipped.
    active: bool,
}

impl Sched {
    fn reset(&mut self, total: usize, active: bool) {
        let slots = total.next_power_of_two().max(2);
        self.bits = slots.trailing_zeros();
        self.tree.clear();
        self.tree.resize(2 * slots, u64::MAX);
        self.control.clear();
        self.active = active;
    }

    /// The largest clock a key can carry. The processor id takes the
    /// low `bits` bits, and the all-ones key marks an empty slot, so
    /// clocks stop one short of `2^(64 - bits) - 1` (`2^59 - 2` at 32
    /// processors — far past any timeline `Resource` can hold).
    fn max_clock(&self) -> u64 {
        (u64::MAX >> self.bits) - 1
    }

    fn pack(&self, clock: Cycle, flat: usize) -> u64 {
        let c = clock.as_u64();
        assert!(
            c <= self.max_clock(),
            "processor {flat} clock {c} exceeds the scheduler's packed-key limit of {} \
             cycles (2^{} - 2)",
            self.max_clock(),
            64 - self.bits
        );
        (c << self.bits) | flat as u64
    }

    fn unpack(&self, key: u64) -> (Cycle, usize) {
        if key == u64::MAX {
            (Cycle::NEVER, usize::MAX)
        } else {
            (
                Cycle(key >> self.bits),
                (key & ((1 << self.bits) - 1)) as usize,
            )
        }
    }

    /// Writes `flat`'s leaf and replays its path to the root.
    fn set_leaf(&mut self, flat: usize, key: u64) {
        let mut k = self.tree.len() / 2 + flat;
        let mut v = key;
        self.tree[k] = v;
        while k > 1 {
            v = v.min(self.tree[k ^ 1]);
            k >>= 1;
            self.tree[k] = v;
        }
    }

    /// Marks a processor Ready at `clock`, replacing any key it had.
    pub(crate) fn wake(&mut self, flat: usize, clock: Cycle) {
        if !self.active {
            return;
        }
        let key = self.pack(clock, flat);
        self.set_leaf(flat, key);
    }

    /// Withdraws `flat` from the ready set (the processor died or
    /// blocked outside the normal pick flow).
    pub(crate) fn invalidate(&mut self, flat: usize) {
        if !self.active {
            return;
        }
        self.set_leaf(flat, u64::MAX);
    }

    /// The earliest Ready processor, left in place.
    fn top(&self) -> Option<(Cycle, usize)> {
        match self.tree.get(1) {
            Some(&key) if key != u64::MAX => Some(self.unpack(key)),
            _ => None,
        }
    }

    /// Removes and returns the earliest Ready processor.
    #[cfg(test)]
    fn pop_proc(&mut self) -> Option<(Cycle, usize)> {
        let top = self.top()?;
        self.set_leaf(top.1, u64::MAX);
        Some(top)
    }

    /// The earliest `(clock, proc)` key among every processor *except*
    /// `flat` — the batch bound when `flat` is the pick, whether or not
    /// it was popped. The proc id rides along so batches break ties at
    /// equal clocks by processor id, the same order picks resolve them,
    /// making the interleaving a pure `(clock, proc)` merge of the
    /// lanes. `(Cycle::NEVER, usize::MAX)` when no other is Ready.
    fn runner_up(&self, flat: usize) -> (Cycle, usize) {
        let mut k = self.tree.len() / 2 + flat;
        let mut v = u64::MAX;
        while k > 1 {
            v = v.min(self.tree[k ^ 1]);
            k >>= 1;
        }
        self.unpack(v)
    }

    /// The earliest scheduled control event's due cycle (`u64::MAX`
    /// when none is queued).
    #[inline]
    fn peek_control(&self) -> u64 {
        self.control.peek().map_or(u64::MAX, |&Reverse((at, _))| at)
    }

    /// Schedules a control event at `at`.
    fn schedule(&mut self, at: u64, kind: ControlKind) {
        if !self.active {
            return;
        }
        self.control.push(Reverse((at, kind)));
    }

    /// Pops every control event due at or before `now`, reporting which
    /// classes came due (each class executes once per pick, exactly like
    /// the original per-pick checks).
    #[inline]
    fn drain_control(&mut self, now: u64) -> (bool, bool, bool) {
        let (mut fault, mut watchdog, mut audit) = (false, false, false);
        while let Some(&Reverse((at, kind))) = self.control.peek() {
            if at > now {
                break;
            }
            self.control.pop();
            match kind {
                ControlKind::Fault => fault = true,
                ControlKind::Watchdog => watchdog = true,
                ControlKind::Audit => audit = true,
            }
        }
        (fault, watchdog, audit)
    }
}

impl Machine {
    /// Drives the loaded trace to completion, then checks that no
    /// processor deadlocked.
    ///
    /// # Errors
    ///
    /// [`RunError::Deadlock`] when the run ended with processors
    /// neither Finished nor Dead: blocked on a lock or barrier nobody
    /// will release.
    pub(crate) fn run_loop(&mut self, trace: &Trace) -> Result<(), RunError> {
        self.prime_sched();
        let mut picks = 0u32;
        while let Some((clock, flat)) = self.sched.top() {
            self.step(trace, clock, flat);
            picks = picks.wrapping_add(1);
            if picks.is_multiple_of(RETIRE_PICKS) {
                self.retire_timelines();
            }
        }
        self.sched.active = false;
        self.deadlocked()
    }

    /// Tells every node's four resources the low-water mark: the
    /// earliest clock of *any* processor, Ready, Blocked, Finished or
    /// Dead. No later acquire arrives before it: a processor's own
    /// transactions start at its clock, and `release_frame` posts a
    /// retired LA-NUMA mapping's write-backs at the clocks of the owning
    /// node's processors, which may be blocked or finished.
    fn retire_timelines(&mut self) {
        let (mut lo, mut hi) = (Cycle::NEVER, Cycle::ZERO);
        for p in self.nodes.iter().flat_map(|n| &n.procs) {
            lo = lo.min(p.clock);
            hi = hi.max(p.clock);
        }
        self.widest_spread = self.widest_spread.max(hi - lo);
        for node in &mut self.nodes {
            for r in [
                &mut node.bus,
                &mut node.memory,
                &mut node.ni,
                &mut node.engine,
            ] {
                r.retire_before(lo);
            }
        }
    }

    /// `Err(Deadlock)` naming every processor neither Finished nor Dead
    /// once no processor is Ready.
    fn deadlocked(&self) -> Result<(), RunError> {
        let procs: Vec<usize> = (0..self.cfg.total_procs())
            .filter(|&flat| {
                let (n, pi) = self.split_flat(flat);
                let st = self.nodes[n].procs[pi].state;
                st != ProcState::Finished && st != ProcState::Dead
            })
            .collect();
        if procs.is_empty() {
            Ok(())
        } else {
            Err(RunError::Deadlock { procs })
        }
    }

    /// Rebuilds the scheduler from current machine state: every Ready
    /// processor, the next pending scheduled fault, watchdog deadlines
    /// for lines already wedged in Transit, and the next audit sweep.
    fn prime_sched(&mut self) {
        let total = self.cfg.total_procs();
        let mut sched = std::mem::take(&mut self.sched);
        sched.reset(total, true);
        for flat in 0..total {
            let (n, pi) = self.split_flat(flat);
            let p = &self.nodes[n].procs[pi];
            if p.state == ProcState::Ready {
                sched.wake(flat, p.clock);
            }
        }
        if let Some(state) = self.fault.as_ref() {
            if let Some(ev) = state.plan.schedule().get(state.next_event) {
                sched.schedule(ev.at.as_u64(), ControlKind::Fault);
            }
            // Lines wedged before this run (warm reruns) still need
            // their recovery deadline on the queue.
            let deadline = self.cfg.watchdog_deadline;
            for node in &self.nodes {
                if node.failed {
                    continue;
                }
                for (_, _, at) in node.controller.transit_lines() {
                    sched.schedule(at.saturating_add(deadline), ControlKind::Watchdog);
                }
            }
        }
        if self.next_audit != u64::MAX {
            sched.schedule(self.next_audit, ControlKind::Audit);
        }
        self.sched = sched;
    }

    /// One pick for processor `flat`, the earliest Ready one: due
    /// control events fire, the processor runs its batch, and its leaf
    /// is re-keyed from its state.
    fn step(&mut self, trace: &Trace, clock: Cycle, flat: usize) {
        // The batch bound is the earliest other Ready `(clock, proc)`
        // key, captured *before* control events run — a fault may kill
        // the bounding processor, but the original loop computed
        // its bound before applying faults too.
        let mut bound = self.sched.runner_up(flat);
        let (fault_due, watchdog_due, audit_due) = self.sched.drain_control(clock.as_u64());
        if fault_due {
            self.apply_fault_events(clock);
            if let Some(state) = self.fault.as_ref() {
                if let Some(ev) = state.plan.schedule().get(state.next_event) {
                    self.sched.schedule(ev.at.as_u64(), ControlKind::Fault);
                }
            }
        }
        if watchdog_due {
            self.watchdog_sweep(clock);
        }
        if audit_due {
            self.audit_sweep(clock);
            let interval = self.cfg.audit_interval.expect("audit scheduled");
            self.next_audit = clock.as_u64().saturating_add(interval.max(1));
            if self.next_audit != u64::MAX {
                self.sched.schedule(self.next_audit, ControlKind::Audit);
            }
        }
        // No batch runs past the next control due: an operation starting
        // at or after it belongs to a later pick, where the event has
        // already fired. This pins every fault injection, watchdog
        // deadline, and audit sweep to a fixed point of the `(clock,
        // proc)` interleaving.
        bound = bound.min((
            Cycle(self.sched.peek_control().saturating_sub(1)),
            usize::MAX,
        ));
        self.run_batch(trace, flat, bound);
        let (n, pi) = self.split_flat(flat);
        let p = &self.nodes[n].procs[pi];
        if p.state == ProcState::Ready {
            self.sched.wake(flat, p.clock);
        } else {
            self.sched.invalidate(flat);
        }
    }

    /// Executes a batch of operations while `flat` remains the earliest
    /// runnable processor — its `(clock, proc)` key lexicographically
    /// below `bound`, so ties at equal clocks resolve by processor id
    /// exactly as heap pops do. Sync operations end a batch because
    /// they can change who is runnable.
    fn run_batch(&mut self, trace: &Trace, flat: usize, bound: (Cycle, usize)) {
        let lane = &trace.lanes[flat];
        let (n, pi) = self.split_flat(flat);
        for _ in 0..BATCH_OPS {
            if self.nodes[n].procs[pi].state != ProcState::Ready {
                break;
            }
            let pc = self.nodes[n].procs[pi].pc;
            let Some(op) = lane.get(pc) else {
                self.nodes[n].procs[pi].state = ProcState::Finished;
                break;
            };
            let is_sync = matches!(op, Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_));
            self.exec_op(flat, op);
            if is_sync || (self.nodes[n].procs[pi].clock, flat) > bound {
                break;
            }
        }
    }

    pub(crate) fn exec_op(&mut self, flat: usize, op: Op) {
        let (n, pi) = self.split_flat(flat);
        if matches!(op, Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_)) {
            self.nodes[n].procs[pi].last_vpage = None;
        }
        match op {
            Op::Compute(c) => {
                self.nodes[n].procs[pi].clock += Cycle(c as u64);
                self.nodes[n].procs[pi].pc += 1;
            }
            Op::Read(va) => {
                self.access(n, pi, va, false);
                self.nodes[n].procs[pi].pc += 1;
            }
            Op::Write(va) => {
                self.access(n, pi, va, true);
                self.nodes[n].procs[pi].pc += 1;
            }
            Op::Barrier(id) => {
                let t = self.nodes[n].procs[pi].clock + Cycle(self.cfg.latency.sync_op);
                self.nodes[n].procs[pi].pc += 1;
                let group = self.barrier_group_of(flat);
                match self.barrier_groups[group].1.arrive(id, flat, t) {
                    BarrierOutcome::Wait => {
                        self.nodes[n].procs[pi].state = ProcState::Blocked;
                    }
                    BarrierOutcome::Release {
                        waiters,
                        release_at,
                    } => {
                        self.nodes[n].procs[pi].clock = release_at;
                        for w in waiters {
                            self.resume_blocked(w, release_at);
                        }
                    }
                }
            }
            Op::Lock(id) => {
                // Locks live on synchronization pages (Sync frame mode,
                // paper §3.1): each lock is homed round-robin and the
                // controller there runs the queueing protocol.
                let lat = self.cfg.latency;
                let lock_home = id as usize % self.cfg.nodes;
                let t = self.nodes[n].procs[pi].clock + Cycle(lat.sync_op);
                self.nodes[n].procs[pi].pc += 1;
                let t_req = if lock_home == n {
                    t
                } else {
                    self.send(n, lock_home, MsgKind::LockReq, t) + Cycle(lat.dispatch)
                };
                match self.locks.acquire(id, flat, t_req) {
                    LockOutcome::Acquired { at } => {
                        let granted = self.send(lock_home, n, MsgKind::LockGrant, at);
                        self.nodes[n].procs[pi].clock = granted;
                    }
                    LockOutcome::Queued => {
                        self.nodes[n].procs[pi].state = ProcState::Blocked;
                    }
                }
            }
            Op::Unlock(id) => {
                let lat = self.cfg.latency;
                let lock_home = id as usize % self.cfg.nodes;
                let t = self.nodes[n].procs[pi].clock + Cycle(lat.sync_op);
                // The releaser does not wait for the home to process the
                // release; the hand-off timing does.
                self.nodes[n].procs[pi].clock = t;
                self.nodes[n].procs[pi].pc += 1;
                let t_rel = if lock_home == n {
                    t
                } else {
                    self.send(n, lock_home, MsgKind::LockRelease, t) + Cycle(lat.dispatch)
                };
                if let Some((next, grant)) = self.locks.release(id, flat, t_rel) {
                    let (wn, _) = self.split_flat(next);
                    let granted = self.send(lock_home, wn, MsgKind::LockGrant, grant);
                    self.resume_blocked(next, granted + Cycle(lat.sync_op));
                }
            }
        }
    }

    /// Kills a processor (fault containment): it stops executing, its
    /// application is considered terminated, and its synchronization
    /// footprint is cleaned up so survivors are not deadlocked — it is
    /// withdrawn from all barriers (releasing any now-complete episode)
    /// and its held locks pass to the next waiters.
    pub(crate) fn kill_proc(&mut self, n: usize, pi: usize) {
        if self.nodes[n].procs[pi].state == ProcState::Dead {
            return;
        }
        self.nodes[n].procs[pi].state = ProcState::Dead;
        self.obs.incr(Ctr::DeadProcs);
        let flat = self.flat(n, pi);
        let now = self.nodes[n].procs[pi].clock;
        self.obs.emit(
            now,
            ObsEvent::ProcKilled {
                node: NodeId(n as u16),
                proc: pi,
            },
        );
        self.sched.invalidate(flat);
        let group = self.barrier_group_of(flat);
        if self.barrier_groups[group].1.participants() > 1 {
            for outcome in self.barrier_groups[group].1.remove_participant(flat) {
                if let BarrierOutcome::Release {
                    waiters,
                    release_at,
                } = outcome
                {
                    for w in waiters {
                        self.resume_blocked(w, release_at);
                    }
                }
            }
        }
        for (_lock, next, grant) in self.locks.release_all_held_by(flat, now) {
            self.resume_blocked(next, grant + Cycle(self.cfg.latency.sync_op));
        }
    }

    /// Resumes processor `flat` at `at` if it is blocked on a barrier or
    /// a lock. Dead processors stay dead even if a barrier release or a
    /// lock hand-off would have resumed them.
    fn resume_blocked(&mut self, flat: usize, at: Cycle) {
        let (n, pi) = self.split_flat(flat);
        let p = &mut self.nodes[n].procs[pi];
        if p.state == ProcState::Blocked {
            p.clock = at;
            p.state = ProcState::Ready;
            self.sched.wake(flat, at);
        }
    }

    /// Applies every scheduled fault whose time has come. Runs on a
    /// popped control event, before the earliest runnable processor
    /// executes, at a deterministic point of the interleaving.
    pub(crate) fn apply_fault_events(&mut self, now: Cycle) {
        loop {
            let Some(state) = self.fault.as_mut() else {
                return;
            };
            let Some(&ev) = state.plan.schedule().get(state.next_event) else {
                return;
            };
            if ev.at > now {
                return;
            }
            state.next_event += 1;
            match ev.kind {
                ScheduledFaultKind::FailNode(node) => {
                    if !self.nodes[node.0 as usize].failed {
                        self.fail_node(node);
                        self.freport(|r| r.node_failures += 1);
                        self.obs.emit(now, ObsEvent::NodeFailed { node });
                    }
                }
                ScheduledFaultKind::CorruptPit(node) => {
                    self.corrupt_pit_entry(node, now);
                }
                ScheduledFaultKind::WedgeTransit(node) => {
                    self.wedge_transit_line(node, now);
                }
            }
        }
    }

    /// Scrambles the dynamic-home field of one *client* PIT entry at
    /// `node` (chosen deterministically from the plan's RNG). The next
    /// request through the entry is misdirected and recovers via the
    /// static-home forwarding path, so the fault is contained.
    fn corrupt_pit_entry(&mut self, node: NodeId, now: Cycle) {
        let n = node.0 as usize;
        // Client entries only: corrupting where this node *is* the home
        // would model directory loss, which is the fail-node case.
        let mut candidates: Vec<FrameNo> = self.nodes[n]
            .controller
            .pit
            .iter()
            .filter(|(_, e)| e.dyn_home != node)
            .map(|(f, _)| f)
            .collect();
        candidates.sort_by_key(|f| f.0);
        let Some(state) = self.fault.as_mut() else {
            return;
        };
        if candidates.is_empty() {
            return;
        }
        let frame = candidates[state.rng.gen_index(candidates.len())];
        let bogus = NodeId(state.rng.gen_index(self.cfg.nodes) as u16);
        if let Some(e) = self.nodes[n].controller.pit.translate_mut(frame) {
            e.dyn_home = bogus;
            e.home_frame_hint = None;
        }
        self.freport(|r| {
            r.pit_corruptions += 1;
            r.contained_faults += 1;
        });
        self.obs.emit(now, ObsEvent::PitCorrupted { node });
    }

    /// Wedges one line of a *client* S-COMA frame at `node` in the
    /// Transit tag, as if the reply of an in-flight transaction was lost
    /// after the tag transition was staged. Protocol transactions are
    /// atomic in the simulation, so this is the only way `T` becomes
    /// observable; the watchdog owns recovery, and its deadline is
    /// scheduled as a control event here.
    fn wedge_transit_line(&mut self, node: NodeId, now: Cycle) {
        let n = node.0 as usize;
        if self.nodes[n].failed {
            return;
        }
        let mut candidates: Vec<FrameNo> = self.nodes[n]
            .controller
            .pit
            .iter()
            .filter(|(f, e)| e.dyn_home != node && self.nodes[n].controller.tags.is_allocated(*f))
            .map(|(f, _)| f)
            .collect();
        candidates.sort_by_key(|f| f.0);
        let Some(state) = self.fault.as_mut() else {
            return;
        };
        if candidates.is_empty() {
            return;
        }
        let frame = candidates[state.rng.gen_index(candidates.len())];
        // Prefer a line with a valid copy (models a lost downgrade or
        // invalidation reply); fall back to line 0 (a lost fill).
        let tags = &self.nodes[n].controller.tags;
        let lpp = self.cfg.geometry.lines_per_page() as u16;
        let mut lines: Vec<LineIdx> = (0..lpp)
            .map(LineIdx)
            .filter(|&l| matches!(tags.get(frame, l), LineTag::Exclusive | LineTag::Shared))
            .collect();
        if lines.is_empty() {
            lines.push(LineIdx(0));
        }
        let line = lines[state.rng.gen_index(lines.len())];
        self.freport(|r| r.transit_wedges += 1);
        self.obs.emit(now, ObsEvent::TransitWedge { node });
        self.nodes[n]
            .controller
            .tags
            .set(frame, line, LineTag::Transit);
        self.nodes[n]
            .controller
            .note_transit(frame, line, now.as_u64());
        let due = now.as_u64().saturating_add(self.cfg.watchdog_deadline);
        self.sched.schedule(due, ControlKind::Watchdog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::faults::FaultPlan;
    use crate::report::RunReport;
    use prism_kernel::policy::PagePolicy;
    use prism_mem::addr::VirtAddr;
    use prism_mem::trace::{SegmentSpec, SHARED_BASE};
    use prism_sim::SimRng;

    impl Machine {
        /// The brute-force reference for [`Machine::run_loop`]: rescan
        /// every processor per pick, apply due faults and sweep the
        /// watchdog at every pick of a fault-planned run, and recompute
        /// each batch's control-due cap from machine state instead of a
        /// queue.
        fn run_loop_linear(&mut self, trace: &Trace) -> Result<(), RunError> {
            self.sched.active = false;
            loop {
                // Earliest runnable processor (deterministic tie-break on id).
                let mut best: Option<(Cycle, usize)> = None;
                let mut bound = (Cycle::NEVER, usize::MAX);
                for flat in 0..self.cfg.total_procs() {
                    let (n, pi) = self.split_flat(flat);
                    let p = &self.nodes[n].procs[pi];
                    if p.state == ProcState::Ready {
                        match best {
                            None => best = Some((p.clock, flat)),
                            Some((c, bf)) if p.clock < c => {
                                bound = bound.min((c, bf));
                                best = Some((p.clock, flat));
                            }
                            Some(_) => bound = bound.min((p.clock, flat)),
                        }
                    }
                }
                let Some((clock, flat)) = best else {
                    break;
                };
                // Scheduled faults strike before the processor at their cycle
                // executes, at a deterministic point of the interleaving.
                if self.fault.is_some() {
                    self.apply_fault_events(clock);
                    self.watchdog_sweep(clock);
                }
                // Periodic online audit sweeps run at the same deterministic
                // points (between atomic protocol transactions).
                if clock.as_u64() >= self.next_audit {
                    self.audit_sweep(clock);
                    let interval = self.cfg.audit_interval.expect("audit scheduled");
                    self.next_audit = clock.as_u64().saturating_add(interval.max(1));
                }
                // Mirror the tree loop's control-due batch cap (see
                // `Machine::step`): recompute the dues the tree loop would
                // hold on its control queue and stop the batch short of the
                // earliest.
                let mut ctl = self.next_audit;
                if let Some(state) = self.fault.as_ref() {
                    if let Some(ev) = state.plan.schedule().get(state.next_event) {
                        ctl = ctl.min(ev.at.as_u64());
                    }
                    let deadline = self.cfg.watchdog_deadline;
                    for node in &self.nodes {
                        if node.failed {
                            continue;
                        }
                        for (_, _, at) in node.controller.transit_lines() {
                            ctl = ctl.min(at.saturating_add(deadline));
                        }
                    }
                }
                let bound = bound.min((Cycle(ctl.saturating_sub(1)), usize::MAX));
                self.run_batch(trace, flat, bound);
            }
            self.deadlocked()
        }
    }

    /// The brute-force ready set the tree replaces: one optional clock
    /// per processor, scanned in full for every question.
    struct Model(Vec<Option<u64>>);

    impl Model {
        /// The earliest `(clock, proc)` over every processor but `skip`.
        fn min_except(&self, skip: usize) -> Option<(Cycle, usize)> {
            (0..self.0.len())
                .filter(|&f| f != skip)
                .filter_map(|f| self.0[f].map(|c| (Cycle(c), f)))
                .min()
        }
    }

    fn active(procs: usize) -> Sched {
        let mut s = Sched::default();
        s.reset(procs, true);
        s
    }

    #[test]
    fn tree_matches_a_brute_force_ready_set() {
        for (seed, procs) in [1, 2, 3, 5, 8, 31, 32, 33].into_iter().enumerate() {
            let mut rng = SimRng::for_stream(0x5C4E_D7EE, seed as u64);
            let mut s = active(procs);
            let mut model = Model(vec![None; procs]);
            for step in 0..3_000 {
                let flat = rng.gen_index(procs);
                // Few distinct clocks, so ties between processors are
                // common and the proc id has to break them.
                let clock = rng.gen_range(0..12);
                match rng.gen_index(5) {
                    0 | 1 => {
                        s.wake(flat, Cycle(clock));
                        model.0[flat] = Some(clock);
                    }
                    2 => {
                        s.invalidate(flat);
                        model.0[flat] = None;
                    }
                    3 => {
                        let want = model.min_except(usize::MAX);
                        assert_eq!(s.pop_proc(), want, "P={procs}, step {step}: pop");
                        if let Some((_, f)) = want {
                            model.0[f] = None;
                        }
                    }
                    // The run loop's pick: run the top in place, then
                    // re-key it from its new state.
                    _ => {
                        if let Some((c, f)) = s.top() {
                            let next = rng.gen_bool(0.8).then(|| c.as_u64() + clock);
                            match next {
                                Some(c) => s.wake(f, Cycle(c)),
                                None => s.invalidate(f),
                            }
                            model.0[f] = next;
                        }
                    }
                }
                let top = model.min_except(usize::MAX);
                assert_eq!(s.top(), top, "P={procs}, step {step}: top");
                let never = (Cycle::NEVER, usize::MAX);
                if let Some((_, f)) = top {
                    assert_eq!(
                        s.runner_up(f),
                        model.min_except(f).unwrap_or(never),
                        "P={procs}, step {step}: runner-up of the top"
                    );
                }
                assert_eq!(
                    s.runner_up(flat),
                    model.min_except(flat).unwrap_or(never),
                    "P={procs}, step {step}: runner-up of {flat}"
                );
            }
            // Draining pops every Ready processor in `(clock, proc)` order.
            let mut want: Vec<(Cycle, usize)> = (0..procs)
                .filter_map(|f| model.0[f].map(|c| (Cycle(c), f)))
                .collect();
            want.sort_unstable();
            let got: Vec<_> = std::iter::from_fn(|| s.pop_proc()).collect();
            assert_eq!(got, want, "P={procs}: drain order");
            assert_eq!(s.top(), None);
        }
    }

    #[test]
    fn an_inactive_tree_ignores_wakes() {
        let mut s = Sched::default();
        s.reset(4, false);
        s.wake(2, Cycle(7));
        assert_eq!(s.top(), None);
        s.active = true;
        s.wake(2, Cycle(7));
        s.active = false;
        s.invalidate(2);
        assert_eq!(s.top(), Some((Cycle(7), 2)));
    }

    #[test]
    fn the_largest_packable_clock_is_accepted() {
        for procs in [2, 32, 33] {
            let mut s = active(procs);
            let max = s.max_clock();
            assert_eq!(max, (1 << (64 - s.bits)) - 2, "P={procs}");
            // At 2 and 32 processors the last one has the highest slot,
            // whose key at the largest clock is one below the all-ones
            // empty key.
            let last = procs - 1;
            s.wake(last, Cycle(max));
            assert_eq!(s.top(), Some((Cycle(max), last)), "P={procs}");
            s.wake(0, Cycle(max));
            assert_eq!(s.top(), Some((Cycle(max), 0)), "P={procs}");
            assert_eq!(s.runner_up(0), (Cycle(max), last), "P={procs}");
        }
    }

    #[test]
    #[should_panic(
        expected = "exceeds the scheduler's packed-key limit of 576460752303423486 cycles (2^59 - 2)"
    )]
    fn one_past_the_largest_packable_clock_panics() {
        let mut s = active(32);
        s.wake(3, Cycle(s.max_clock() + 1));
    }

    type Observed = (Result<RunReport, RunError>, Vec<(Cycle, ObsEvent)>);

    /// Asserts two runs produced the same report and the same event
    /// ring.
    fn assert_same(tree: &Observed, reference: &Observed, what: &str) {
        let json = |o: &Observed| o.0.as_ref().map(RunReport::to_json).map_err(Clone::clone);
        assert_eq!(json(tree), json(reference), "{what}: reports");
        assert_eq!(tree.1, reference.1, "{what}: events");
    }

    /// Runs `trace` on a fresh machine through the tree loop
    /// (`reference == false`) or the brute-force reference loop.
    fn observe(cfg: &MachineConfig, plan: &FaultPlan, trace: &Trace, reference: bool) -> Observed {
        let mut m = Machine::new(cfg.clone());
        if !plan.is_empty() {
            m.install_fault_plan(plan.clone()).expect("valid plan");
        }
        let report = if reference {
            m.load(trace).expect("lane count matches");
            m.run_loop_linear(trace).map(|()| m.finalize_report())
        } else {
            m.try_run(trace)
        };
        (report, m.recent_events())
    }

    /// A random small trace over four shared pages: reads, writes and
    /// compute bursts, non-nested lock sections, and barriers every lane
    /// reaches the same number of times.
    fn random_trace(rng: &mut SimRng, lanes: usize) -> Trace {
        let page = 4096u64;
        let barriers = rng.gen_index(3);
        let lanes = (0..lanes)
            .map(|_| {
                let mut ops = Vec::new();
                for b in 0..=barriers {
                    for _ in 0..8 + rng.gen_index(40) {
                        let va = VirtAddr(SHARED_BASE + rng.gen_range(0..4 * page) / 64 * 64);
                        match rng.gen_index(10) {
                            0..=3 => ops.push(Op::Read(va)),
                            4..=6 => ops.push(Op::Write(va)),
                            7 | 8 => ops.push(Op::Compute(1 + rng.gen_range(0..400) as u32)),
                            _ => {
                                let id = rng.gen_index(3) as u32;
                                ops.push(Op::Lock(id));
                                ops.push(Op::Write(va));
                                ops.push(Op::Unlock(id));
                            }
                        }
                    }
                    if b < barriers {
                        ops.push(Op::Barrier(b as u32));
                    }
                }
                ops.into()
            })
            .collect();
        Trace {
            name: "random".into(),
            segments: vec![SegmentSpec {
                name: "s".into(),
                va_base: SHARED_BASE,
                bytes: 4 * page,
            }],
            lanes,
        }
    }

    /// A plan that kills a node, scrambles a PIT entry and wedges a
    /// Transit line at random points of the run.
    fn random_plan(rng: &mut SimRng, nodes: usize) -> FaultPlan {
        let mut plan = FaultPlan::new(rng.next_u64());
        let at = |rng: &mut SimRng| Cycle(500 + rng.gen_range(0..20_000));
        let node = |rng: &mut SimRng| NodeId(rng.gen_index(nodes) as u16);
        for _ in 0..1 + rng.gen_index(3) {
            plan = match rng.gen_index(3) {
                0 => plan.fail_node(node(rng), at(rng)),
                1 => plan.corrupt_pit(node(rng), at(rng)),
                _ => plan.wedge_transit(node(rng), at(rng)),
            };
        }
        plan
    }

    /// The tree loop fires control events at the same picks as the
    /// brute-force reference: random traces, with and without a fault
    /// plan and an audit cadence, produce identical reports and
    /// identical structural-event rings on both loops.
    #[test]
    fn control_events_fire_where_the_reference_fires_them() {
        let policies = [PagePolicy::Scoma, PagePolicy::Lanuma, PagePolicy::DynFcfs];
        // Which control-event kinds fired, so the cases provably cover
        // every class the queue schedules.
        let mut fired = [false; 5];
        for case in 0..24u64 {
            let mut rng = SimRng::for_stream(0xC0_47_E1, case);
            let nodes = 2 + rng.gen_index(2);
            let ppn = 1 + rng.gen_index(2);
            let trace = random_trace(&mut rng, nodes * ppn);
            let faulty = random_plan(&mut rng, nodes);
            let interval = 200 + rng.gen_range(0..3_000);
            let policy = policies[rng.gen_index(policies.len())];
            // Short deadlines, so wedged lines come due within the run.
            let deadline = 512 << rng.gen_index(4);
            for (plan, audit) in [
                (FaultPlan::new(0), None),
                (FaultPlan::new(0), Some(interval)),
                (faulty.clone(), None),
                (faulty, Some(interval)),
            ] {
                let cfg = MachineConfig::builder()
                    .nodes(nodes)
                    .procs_per_node(ppn)
                    .l1_bytes(1024)
                    .l2_bytes(4096)
                    .policy(policy)
                    .audit_interval(audit)
                    .watchdog_deadline(deadline)
                    .build();
                let what = format!("case {case}, faults {}, audit {audit:?}", !plan.is_empty());
                let tree = observe(&cfg, &plan, &trace, false);
                let reference = observe(&cfg, &plan, &trace, true);
                assert_same(&tree, &reference, &what);
                for (_, ev) in &tree.1 {
                    match ev {
                        ObsEvent::NodeFailed { .. } => fired[0] = true,
                        ObsEvent::PitCorrupted { .. } => fired[1] = true,
                        ObsEvent::TransitWedge { .. } => fired[2] = true,
                        ObsEvent::AuditSweep { .. } => fired[4] = true,
                        _ => {}
                    }
                }
                if let Ok(r) = &tree.0 {
                    let f = &r.fault;
                    fired[3] |= f.watchdog_resends + f.watchdog_remasters + f.watchdog_kills > 0;
                }
            }
        }
        assert_eq!(
            fired, [true; 5],
            "node death, PIT corruption, wedge, watchdog, audit"
        );
    }

    /// One compute-heavy lane whose batches run far past audit dues:
    /// the tree loop cuts them at each due exactly as the reference
    /// does, so both sweep at the same points.
    #[test]
    fn audit_dues_cut_compute_heavy_batches_like_the_reference() {
        let page = 4096u64;
        let (mut lane0, mut lane1) = (Vec::new(), Vec::new());
        for _ in 0..3000 {
            lane0.push(Op::Read(VirtAddr(SHARED_BASE)));
            lane0.push(Op::Compute(397));
            lane1.push(Op::Read(VirtAddr(SHARED_BASE + page)));
            lane1.push(Op::Compute(11));
        }
        let trace = Trace {
            name: "overshoot".into(),
            segments: vec![SegmentSpec {
                name: "s".into(),
                va_base: SHARED_BASE,
                bytes: 2 * page,
            }],
            lanes: vec![lane0.into(), lane1.into()],
        };
        let cfg = MachineConfig::builder()
            .nodes(2)
            .procs_per_node(1)
            .audit_interval(Some(500))
            .build();
        let plan = FaultPlan::new(0);
        let tree = observe(&cfg, &plan, &trace, false);
        let reference = observe(&cfg, &plan, &trace, true);
        assert_same(&tree, &reference, "overshoot");
        let sweeps = tree.0.as_ref().expect("no deadlock").audit_sweeps;
        assert!(sweeps > 1_000, "only {sweeps} audit sweeps");
    }
}
