//! Greedy case minimization: shrink a violating case while the same
//! oracle still fires.
//!
//! The shrinker proposes simplification candidates in a fixed order —
//! workload truncation first (it shrinks the search space fastest),
//! then machine reduction, then individual fault-plan entries, then
//! knob resets — re-running the case for each. A candidate is accepted
//! when the *same oracle* (by name) still reports a violation; the
//! violation detail may drift (a smaller case reports smaller counts),
//! which is fine — the oracle identity is the invariant being
//! minimized against. Accepting a candidate restarts the pass on the
//! smaller case; the loop ends at a fixed point or when the attempt
//! budget runs out. Everything is deterministic, so shrinking the same
//! case twice lands on the same minimum.

use std::time::Duration;

use prism_machine::faults::RetryPolicy;

use crate::gen::CaseSpec;
use crate::oracle::Oracle;
use crate::run::run_case;

/// What a shrink run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate cases executed.
    pub attempts: usize,
    /// Candidates accepted (each one made the case smaller).
    pub accepted: usize,
}

/// Minimizes `case` while `oracle` keeps firing. Returns the smallest
/// accepted case and the attempt accounting.
pub fn shrink(
    case: &CaseSpec,
    oracle: Oracle,
    deadline: Duration,
    attempt_budget: usize,
) -> (CaseSpec, ShrinkStats) {
    let mut best = case.clone();
    let mut stats = ShrinkStats::default();
    'outer: loop {
        for candidate in candidates(&best) {
            if stats.attempts >= attempt_budget {
                break 'outer;
            }
            stats.attempts += 1;
            let outcome = run_case(&candidate, deadline);
            if oracle.check(&candidate, &outcome).is_some() {
                stats.accepted += 1;
                best = candidate;
                continue 'outer; // restart the pass on the smaller case
            }
        }
        break; // full pass with no acceptance: fixed point
    }
    (best, stats)
}

/// Simplification candidates for one pass, most reductive first. Every
/// candidate preserves validity-by-construction (the plan still
/// validates against the possibly smaller machine).
fn candidates(case: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    let mut push = |c: CaseSpec| {
        debug_assert!(c.faults.plan().validate(c.nodes).is_ok());
        out.push(c);
    };

    if case.workload.refs_per_proc > 8 {
        let mut c = case.clone();
        c.workload.refs_per_proc /= 2;
        push(c);
    }
    if case.workload.bytes > 4_096 {
        let mut c = case.clone();
        c.workload.bytes /= 2;
        push(c);
    }
    if case.jobs == 2 {
        let mut c = case.clone();
        c.jobs = 1;
        push(c);
    }
    if case.nodes > 2 {
        let mut c = case.clone();
        c.nodes -= 1;
        // Retarget: drop plan entries aimed at the removed node.
        let limit = c.nodes as u16;
        c.faults.events.retain(|e| e.node < limit);
        c.faults.slow_episodes.retain(|s| s.node < limit);
        if c.jobs == 2 {
            let fence = c.job0_nodes() as u16;
            c.faults.events.retain(|e| e.node < fence);
        }
        push(c);
    }
    if case.procs_per_node > 1 {
        let mut c = case.clone();
        c.procs_per_node -= 1;
        push(c);
    }
    for i in 0..case.faults.events.len() {
        let mut c = case.clone();
        c.faults.events.remove(i);
        push(c);
    }
    for i in 0..case.faults.slow_episodes.len() {
        let mut c = case.clone();
        c.faults.slow_episodes.remove(i);
        push(c);
    }
    for i in 0..case.faults.link_windows.len() {
        let mut c = case.clone();
        c.faults.link_windows.remove(i);
        push(c);
    }
    for (i, w) in case.faults.link_windows.iter().enumerate() {
        if w.until - w.from > 2_048 {
            let mut c = case.clone();
            c.faults.link_windows[i].until = w.from + (w.until - w.from) / 2;
            push(c);
        }
    }
    // Knob resets, one at a time.
    if case.migration {
        let mut c = case.clone();
        c.migration = false;
        push(c);
    }
    if case.check_coherence {
        let mut c = case.clone();
        c.check_coherence = false;
        push(c);
    }
    if case.journal_eager {
        let mut c = case.clone();
        c.journal_eager = false;
        push(c);
    }
    if case.audit_interval.is_some() {
        let mut c = case.clone();
        c.audit_interval = None;
        push(c);
    }
    if case.page_cache_capacity.is_some() {
        let mut c = case.clone();
        c.page_cache_capacity = None;
        push(c);
    }
    if case.retry != RetryPolicy::default() {
        let mut c = case.clone();
        c.retry = RetryPolicy::default();
        push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{EventKind, EventSpec, WorkloadKind};

    #[test]
    fn candidates_only_simplify() {
        let case = CaseSpec::generate(0x5417, 9);
        for c in candidates(&case) {
            let smaller = c.workload.refs_per_proc < case.workload.refs_per_proc
                || c.workload.bytes < case.workload.bytes
                || c.jobs < case.jobs
                || c.nodes < case.nodes
                || c.procs_per_node < case.procs_per_node
                || c.faults.events.len() < case.faults.events.len()
                || c.faults.slow_episodes.len() < case.faults.slow_episodes.len()
                || c.faults.link_windows.len() < case.faults.link_windows.len()
                || c.faults.link_windows != case.faults.link_windows
                || (case.migration && !c.migration)
                || (case.check_coherence && !c.check_coherence)
                || (case.journal_eager && !c.journal_eager)
                || (case.audit_interval.is_some() && c.audit_interval.is_none())
                || (case.page_cache_capacity.is_some() && c.page_cache_capacity.is_none())
                || (case.retry != RetryPolicy::default() && c.retry == RetryPolicy::default());
            assert!(smaller, "candidate did not simplify: {c:?}");
        }
    }

    #[test]
    fn node_reduction_retargets_the_plan() {
        let mut case = CaseSpec::generate(0x5417, 2);
        case.nodes = 3;
        case.jobs = 1;
        case.faults.events = vec![
            EventSpec {
                kind: EventKind::FailNode,
                node: 2,
                at: 5_000,
            },
            EventSpec {
                kind: EventKind::CorruptPit,
                node: 0,
                at: 6_000,
            },
        ];
        let reduced = candidates(&case)
            .into_iter()
            .find(|c| c.nodes == 2)
            .expect("a node-reduction candidate");
        assert!(reduced.faults.plan().validate(reduced.nodes).is_ok());
        assert_eq!(reduced.faults.events.len(), 1, "node-2 event dropped");
    }

    /// Shrinking against the canary lands on a case that still misses
    /// remotely but is much smaller than where it started.
    #[test]
    fn shrink_minimizes_a_canary_case() {
        let mut case = CaseSpec::generate(0x5417, 0);
        case.workload.kind = WorkloadKind::Uniform;
        case.workload.refs_per_proc = 192;
        let deadline = Duration::from_secs(60);
        let outcome = run_case(&case, deadline);
        assert!(Oracle::CanaryNoRemoteMiss.check(&case, &outcome).is_some());
        let (small, stats) = shrink(&case, Oracle::CanaryNoRemoteMiss, deadline, 200);
        assert!(stats.accepted > 0, "nothing shrank");
        assert!(small.workload.refs_per_proc <= 12, "refs not minimized");
        assert!(small.faults.events.is_empty(), "faults not dropped");
        let final_outcome = run_case(&small, deadline);
        assert!(
            Oracle::CanaryNoRemoteMiss
                .check(&small, &final_outcome)
                .is_some(),
            "shrunk case no longer violates"
        );
        // Determinism: shrinking again lands on the same case.
        let (again, _) = shrink(&case, Oracle::CanaryNoRemoteMiss, deadline, 200);
        assert_eq!(small, again);
    }
}
