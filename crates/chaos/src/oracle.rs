//! Invariant oracles: what a chaos case is checked against.
//!
//! An oracle inspects a [`CaseOutcome`] (plus the [`CaseSpec`] that
//! produced it) and either stays silent or returns a [`Violation`].
//! Oracles are deliberately *conservative*: a campaign asserts zero
//! unexplained violations over hundreds of random cases, so an oracle
//! that cries wolf on legal behavior is worse than useless. Every check
//! below is an invariant the test suite already pins on hand-written
//! fixtures — the harness extends it to the searched space.
//!
//! The canaries are the exception: deliberately *false* invariants kept
//! out of [`Oracle::STANDARD`], each shadowing a real oracle.
//! [`Oracle::CanaryNoRemoteMiss`] claims no case ever misses remotely;
//! [`Oracle::CanaryJournalSilent`] claims eager journaling never writes
//! a record (it shadows [`Oracle::JournalReplay`]);
//! [`Oracle::CanaryFrameLeak`] claims a machine finishes with zero live
//! frames (it shadows [`Oracle::PageAccounting`] — every node's command
//! frame refutes it). The canary tests arm them to prove the
//! find → shrink → replay pipeline catches real violations end to end.

use prism_machine::obs::ObsEvent;
use prism_machine::report::RunReport;

use crate::gen::{CaseSpec, EventKind};
use crate::run::CaseOutcome;

/// A violated invariant: which oracle fired and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The firing oracle's stable name.
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// One pluggable invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Auditor findings only ever appear when the case injected a
    /// structural fault that explains them (slow-only and fault-free
    /// cases must audit clean).
    AuditExplained,
    /// Fault damage is contained: fault counters stay within what the
    /// plan injected, dead nodes stay dead, and in a two-job case the
    /// victim job takes zero casualties.
    Containment,
    /// Every run completes within the harness deadline without
    /// panicking, and every dead processor is accounted to a cause.
    Liveness,
    /// Journal-replay accounting stays consistent with the recovery the
    /// machine performed: replay cycles are exactly the recovered lines
    /// times the eager policy's per-line replay cost, recovered lines
    /// imply journal records were written, and a journal-less case never
    /// shows journal activity.
    JournalReplay,
    /// Page-frame conservation: after every run, each real frame is
    /// owned by exactly one of the free list, the client page cache,
    /// and the directory-home set ([`prism_machine::machine::Machine::
    /// page_accounting_violations`] finds nothing).
    PageAccounting,
    /// The deliberately broken no-remote-miss canary (see module docs).
    CanaryNoRemoteMiss,
    /// The deliberately broken journal canary: claims eager journaling
    /// never writes a record (see module docs).
    CanaryJournalSilent,
    /// The deliberately broken frame canary: claims machines finish
    /// with zero live frames (see module docs).
    CanaryFrameLeak,
}

impl Oracle {
    /// The oracles every campaign runs.
    pub const STANDARD: [Oracle; 5] = [
        Oracle::AuditExplained,
        Oracle::Containment,
        Oracle::Liveness,
        Oracle::JournalReplay,
        Oracle::PageAccounting,
    ];

    /// The oracle's stable name (used in artifacts and reports).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::AuditExplained => "audit-explained",
            Oracle::Containment => "containment",
            Oracle::Liveness => "liveness",
            Oracle::JournalReplay => "journal-replay",
            Oracle::PageAccounting => "page-accounting",
            Oracle::CanaryNoRemoteMiss => "canary-no-remote-miss",
            Oracle::CanaryJournalSilent => "canary-journal-silent",
            Oracle::CanaryFrameLeak => "canary-frame-leak",
        }
    }

    /// Resolves a name back to the oracle (for replay).
    pub fn from_name(name: &str) -> Option<Oracle> {
        [
            Oracle::AuditExplained,
            Oracle::Containment,
            Oracle::Liveness,
            Oracle::JournalReplay,
            Oracle::PageAccounting,
            Oracle::CanaryNoRemoteMiss,
            Oracle::CanaryJournalSilent,
            Oracle::CanaryFrameLeak,
        ]
        .into_iter()
        .find(|o| o.name() == name)
    }

    /// Checks the invariant, returning the first violation found.
    pub fn check(self, case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
        match self {
            Oracle::AuditExplained => check_audit_explained(case, outcome),
            Oracle::Containment => check_containment(case, outcome),
            Oracle::Liveness => check_liveness(case, outcome),
            Oracle::JournalReplay => check_journal_replay(case, outcome),
            Oracle::PageAccounting => check_page_accounting(outcome),
            Oracle::CanaryNoRemoteMiss => check_canary(outcome),
            Oracle::CanaryJournalSilent => check_canary_journal(outcome),
            Oracle::CanaryFrameLeak => check_canary_frames(outcome),
        }
    }
}

/// Runs `oracles` in order and returns the first violation.
pub fn check_all(oracles: &[Oracle], case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
    oracles.iter().find_map(|o| o.check(case, outcome))
}

fn check_audit_explained(case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
    if case.faults.is_structural() {
        // Every finding kind the auditor can raise is reachable from
        // some structural fault (corruptions, deaths, drops, wedges);
        // attribution finer than "a structural fault was injected"
        // would need lineage the simulator doesn't record yet.
        return None;
    }
    let out = outcome.output()?;
    if out.report.audit.is_empty() {
        return None;
    }
    let kinds: Vec<String> = out
        .report
        .audit
        .iter()
        .map(|f| f.kind.to_string())
        .collect();
    Some(Violation {
        oracle: Oracle::AuditExplained.name(),
        detail: format!(
            "{} audit finding(s) [{}] with no structural fault injected",
            out.report.audit.len(),
            kinds.join(", ")
        ),
    })
}

/// Counters that must stay zero on a run with no structural faults.
fn quiescent_residue(report: &RunReport) -> Vec<(&'static str, u64)> {
    let f = &report.fault;
    [
        ("dropped_messages", f.dropped_messages),
        ("corrupted_messages", f.corrupted_messages),
        ("retries", f.retries),
        ("timeouts", f.timeouts),
        ("failovers", f.failovers),
        ("failover_refusals", f.failover_refusals),
        ("pit_corruptions", f.pit_corruptions),
        ("node_failures", f.node_failures),
        ("fatal_faults", f.fatal_faults),
        ("transit_wedges", f.transit_wedges),
        ("watchdog_kills", f.watchdog_kills),
        ("lines_lost", f.lines_lost),
        ("dead_procs", report.dead_procs),
        ("firewall_rejections", report.firewall_rejections),
    ]
    .into_iter()
    .filter(|&(_, v)| v != 0)
    .collect()
}

fn check_containment(case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
    let out = outcome.output()?;
    let report = &out.report;
    let violation = |detail: String| {
        Some(Violation {
            oracle: Oracle::Containment.name(),
            detail,
        })
    };
    if !case.faults.is_structural() {
        let residue = quiescent_residue(report);
        if residue.is_empty() {
            return None;
        }
        let fields: Vec<String> = residue.iter().map(|(k, v)| format!("{k}={v}")).collect();
        return violation(format!(
            "fault damage with no structural fault injected: {}",
            fields.join(", ")
        ));
    }
    // Point-fault counters never exceed what the plan scheduled.
    let bounds = [
        (
            "node_failures",
            report.fault.node_failures,
            case.faults.event_count(EventKind::FailNode) as u64,
        ),
        (
            "pit_corruptions",
            report.fault.pit_corruptions,
            case.faults.event_count(EventKind::CorruptPit) as u64,
        ),
        (
            "transit_wedges",
            report.fault.transit_wedges,
            case.faults.event_count(EventKind::WedgeTransit) as u64,
        ),
    ];
    for (name, got, max) in bounds {
        if got > max {
            return violation(format!("{name}={got} but the plan only scheduled {max}"));
        }
    }
    // Dead nodes stay dead: once failed, a node never adopts a page.
    let mut dead: Vec<u16> = Vec::new();
    for (_, ev) in &out.events {
        match ev {
            ObsEvent::NodeFailed { node } => dead.push(node.0),
            ObsEvent::Migration { to, .. } if dead.contains(&to.0) => {
                return violation(format!(
                    "page migrated to node {} after that node failed",
                    to.0
                ));
            }
            ObsEvent::Failover { to, .. } if dead.contains(&to.0) => {
                return violation(format!(
                    "page failed over to node {} after that node failed",
                    to.0
                ));
            }
            _ => {}
        }
    }
    // Two-job cases: faults target job 0's nodes only, so the victim
    // job (nodes >= job0_nodes) must take zero casualties.
    if case.jobs == 2 {
        let fence = case.job0_nodes() as u16;
        for (_, ev) in &out.events {
            if let ObsEvent::ProcKilled { node, proc } = ev {
                if node.0 >= fence {
                    return violation(format!(
                        "proc {}@node{} of the fault-free job was killed",
                        proc, node.0
                    ));
                }
            }
        }
    }
    None
}

fn check_liveness(case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
    let out = match &outcome.result {
        Err(e) => {
            return Some(Violation {
                oracle: Oracle::Liveness.name(),
                detail: format!("the run {e}"),
            });
        }
        Ok(out) => out,
    };
    // Every dead processor traces to a cause the machine recorded: a
    // failed node's processors, a fatal fault, or a watchdog kill.
    let f = &out.report.fault;
    let accounted =
        f.node_failures * case.procs_per_node as u64 + f.fatal_faults + f.watchdog_kills;
    if out.report.dead_procs <= accounted {
        return None;
    }
    Some(Violation {
        oracle: Oracle::Liveness.name(),
        detail: format!(
            "{} dead procs but only {} accounted \
             ({} node failures x {} ppn, {} fatal, {} watchdog kills)",
            out.report.dead_procs,
            accounted,
            f.node_failures,
            case.procs_per_node,
            f.fatal_faults,
            f.watchdog_kills
        ),
    })
}

/// Per-line replay cost of [`prism_machine::faults::JournalPolicy::
/// eager`], the policy every journaled chaos case runs under. Failover
/// charges exactly this much per recovered line, in the same breath as
/// the `lines_recovered` increment — so the products must agree.
const EAGER_REPLAY_CYCLES_PER_LINE: u64 = 24;

fn check_journal_replay(case: &CaseSpec, outcome: &CaseOutcome) -> Option<Violation> {
    let f = &outcome.output()?.report.fault;
    let detail = if !case.journal_eager {
        if f.journal_records == 0 && f.journal_replay_cycles == 0 && f.lines_recovered == 0 {
            return None;
        }
        format!(
            "journal activity with journaling off: \
             {} records, {} replay cycles, {} lines recovered",
            f.journal_records, f.journal_replay_cycles, f.lines_recovered
        )
    } else if f.journal_replay_cycles != f.lines_recovered * EAGER_REPLAY_CYCLES_PER_LINE {
        format!(
            "{} replay cycles but {} recovered lines x {} cycles/line = {}",
            f.journal_replay_cycles,
            f.lines_recovered,
            EAGER_REPLAY_CYCLES_PER_LINE,
            f.lines_recovered * EAGER_REPLAY_CYCLES_PER_LINE
        )
    } else if f.lines_recovered > 0 && f.journal_records == 0 {
        format!(
            "recovered {} lines from an empty journal",
            f.lines_recovered
        )
    } else {
        return None;
    };
    Some(Violation {
        oracle: Oracle::JournalReplay.name(),
        detail,
    })
}

fn check_page_accounting(outcome: &CaseOutcome) -> Option<Violation> {
    let out = outcome.output()?;
    let first = out.accounting.first()?;
    Some(Violation {
        oracle: Oracle::PageAccounting.name(),
        detail: format!(
            "frame conservation broken ({} violation(s); first: {first})",
            out.accounting.len()
        ),
    })
}

fn check_canary(outcome: &CaseOutcome) -> Option<Violation> {
    let out = outcome.output()?;
    (out.report.remote_misses > 0).then(|| Violation {
        oracle: Oracle::CanaryNoRemoteMiss.name(),
        detail: format!(
            "{} remote misses (the canary claims none ever happen)",
            out.report.remote_misses
        ),
    })
}

fn check_canary_journal(outcome: &CaseOutcome) -> Option<Violation> {
    let out = outcome.output()?;
    (out.report.fault.journal_records > 0).then(|| Violation {
        oracle: Oracle::CanaryJournalSilent.name(),
        detail: format!(
            "{} journal records (the canary claims eager journaling never records)",
            out.report.fault.journal_records
        ),
    })
}

fn check_canary_frames(outcome: &CaseOutcome) -> Option<Violation> {
    let out = outcome.output()?;
    (out.frames_active > 0).then(|| Violation {
        oracle: Oracle::CanaryFrameLeak.name(),
        detail: format!(
            "{} live frames at the end of the run (the canary claims machines end empty)",
            out.frames_active
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_case;
    use std::time::Duration;

    fn small_quiet_case() -> CaseSpec {
        let mut case = CaseSpec::generate(0x07AC1E, 0);
        case.faults.link_windows.clear();
        case.faults.events.clear();
        case.faults.slow_episodes.clear();
        case.workload.refs_per_proc = 32;
        case
    }

    #[test]
    fn standard_oracles_pass_a_quiet_case() {
        let case = small_quiet_case();
        let outcome = run_case(&case, Duration::from_secs(60));
        assert_eq!(check_all(&Oracle::STANDARD, &case, &outcome), None);
    }

    #[test]
    fn canary_fires_on_shared_workloads() {
        let mut case = small_quiet_case();
        case.workload.kind = crate::gen::WorkloadKind::Uniform;
        let outcome = run_case(&case, Duration::from_secs(60));
        let v = Oracle::CanaryNoRemoteMiss.check(&case, &outcome);
        assert!(v.is_some(), "uniform sharing must miss remotely");
        assert_eq!(v.unwrap().oracle, "canary-no-remote-miss");
    }

    #[test]
    fn oracle_names_round_trip() {
        for o in [
            Oracle::AuditExplained,
            Oracle::Containment,
            Oracle::Liveness,
            Oracle::JournalReplay,
            Oracle::PageAccounting,
            Oracle::CanaryNoRemoteMiss,
            Oracle::CanaryJournalSilent,
            Oracle::CanaryFrameLeak,
        ] {
            assert_eq!(Oracle::from_name(o.name()), Some(o));
        }
        assert_eq!(Oracle::from_name("nope"), None);
    }

    /// The frame canary's claim (machines end with zero live frames) is
    /// refuted by every machine: the per-node command frames alone keep
    /// `frames_active` positive.
    #[test]
    fn frame_canary_fires_on_any_completed_case() {
        let case = small_quiet_case();
        let outcome = run_case(&case, Duration::from_secs(60));
        let v = Oracle::CanaryFrameLeak.check(&case, &outcome);
        assert!(v.is_some(), "command frames must refute the canary");
        assert_eq!(v.unwrap().oracle, "canary-frame-leak");
    }

    /// The journal-replay oracle is silent on honest accounting and
    /// fires the moment the replay-cost pairing is cooked.
    #[test]
    fn journal_replay_oracle_catches_cooked_accounting() {
        let mut case = small_quiet_case();
        case.journal_eager = true;
        let mut outcome = run_case(&case, Duration::from_secs(60));
        assert_eq!(Oracle::JournalReplay.check(&case, &outcome), None);
        if let Ok(out) = &mut outcome.result {
            out.report.fault.journal_replay_cycles += 1;
        }
        let v = Oracle::JournalReplay.check(&case, &outcome);
        assert!(v.is_some(), "unpaired replay cycles must be caught");
        assert_eq!(v.unwrap().oracle, "journal-replay");
    }

    /// Journal activity on a case that never enabled journaling is a
    /// violation in its own right.
    #[test]
    fn journal_replay_oracle_rejects_activity_when_journaling_is_off() {
        let mut case = small_quiet_case();
        case.journal_eager = false;
        let mut outcome = run_case(&case, Duration::from_secs(60));
        assert_eq!(Oracle::JournalReplay.check(&case, &outcome), None);
        if let Ok(out) = &mut outcome.result {
            out.report.fault.journal_records = 3;
        }
        assert!(Oracle::JournalReplay.check(&case, &outcome).is_some());
    }

    /// The page-accounting oracle reports whatever the post-run
    /// conservation audit found — nothing on a healthy machine, and the
    /// first violation verbatim when one is injected.
    #[test]
    fn page_accounting_oracle_relays_audit_findings() {
        let case = small_quiet_case();
        let mut outcome = run_case(&case, Duration::from_secs(60));
        assert_eq!(Oracle::PageAccounting.check(&case, &outcome), None);
        if let Ok(out) = &mut outcome.result {
            out.accounting
                .push("node 0: frame F7 is both free and live".into());
        }
        let v = Oracle::PageAccounting.check(&case, &outcome).unwrap();
        assert_eq!(v.oracle, "page-accounting");
        assert!(v.detail.contains("frame F7"));
    }
}
