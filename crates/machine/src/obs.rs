//! The observability layer: one event bus every subscriber shares.
//!
//! Before this layer existed, run statistics were threaded through three
//! parallel mechanisms: an ad-hoc `MachineStats` struct, the
//! [`FaultReport`] buried inside the fault-injection state, and audit
//! findings stored loose on the `Machine`. The `EventBus` replaces all
//! three with a single spine built on [`prism_sim::event`]:
//!
//! * **Counters** (`Ctr`) — high-frequency protocol events (references,
//!   misses, invalidations). Hot-path updates are an add into a plain
//!   `[u64; N]` indexed by the counter; no hashing, no branching. The
//!   counters carry no names: [`crate::report`] reads each into its own
//!   `RunReport` field.
//! * **Fault accounting** — the [`FaultReport`] the recovery machinery
//!   writes through `Machine::freport` (gated on an
//!   installed fault plan, exactly as before).
//! * **Audit findings** — the online coherence auditor's findings and
//!   sweep count.
//! * **Event ring** — *structural* events (node failures, migrations,
//!   failovers, watchdog recoveries, audit sweeps) retained in a bounded
//!   [`EventRing`] for post-mortem inspection via
//!   [`crate::machine::Machine::recent_events`]. The watchdog emits one
//!   [`ObsEvent::WatchdogRecovery`] per line it resends or re-masters.
//!
//! The bus keeps no dirty-page record: every audit sweep is a full
//! sweep, so nothing on the access path reports pages to the auditor.
//!
//! The contract: counters for events that happen millions of times, the
//! ring for events that reshape the machine. [`crate::report`] is the
//! one subscriber that snapshots everything into a `RunReport`.

use prism_mem::addr::{GlobalPage, NodeId};
use prism_sim::event::EventRing;
use prism_sim::stats::Histogram;
use prism_sim::Cycle;

use crate::faults::FaultReport;
use crate::shadow::AuditFinding;

/// How many structural events the bus retains.
const RING_CAPACITY: usize = 1024;

/// Dense counter indices for high-frequency protocol events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub(crate) enum Ctr {
    /// Memory references executed.
    TotalRefs,
    /// Misses that fetched data from a remote node.
    RemoteMisses,
    /// Ownership upgrades that crossed the network without data.
    RemoteUpgrades,
    /// Misses satisfied by local memory or the local page cache.
    LocalFills,
    /// Misses satisfied by a sibling processor's cache.
    SiblingFills,
    /// Dirty lines flushed by page-outs.
    PageOutLines,
    /// Pages paged out at their home node.
    HomePageOuts,
    /// Invalidation messages sent.
    Invalidations,
    /// LA-NUMA dirty writebacks to remote homes.
    RemoteWritebacks,
    /// Dynamic-home migrations performed.
    Migrations,
    /// Requests forwarded past a stale dynamic-home hint.
    Forwards,
    /// Remote accesses rejected by the PIT firewall.
    FirewallRejections,
    /// Processors killed by fault containment.
    DeadProcs,
    /// References to the same virtual page as their processor's
    /// previous one, with no sync op between, in a run whose
    /// translations are stable.
    BatchedLookups,
}

/// Number of [`Ctr`] variants (`BatchedLookups` is the last): the
/// length of the bus's counter array.
const CTRS: usize = Ctr::BatchedLookups as usize + 1;

/// A structural event retained on the bus's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A node failed permanently (scheduled fault or direct injection).
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A processor was killed by fault containment.
    ProcKilled {
        /// The node of the killed processor.
        node: NodeId,
        /// Node-local processor index.
        proc: usize,
    },
    /// A page's dynamic home moved.
    Migration {
        /// The migrated page.
        gpage: GlobalPage,
        /// Previous dynamic home.
        from: NodeId,
        /// New dynamic home.
        to: NodeId,
    },
    /// A dead dynamic home's page was re-mastered at its static home.
    Failover {
        /// The recovered page.
        gpage: GlobalPage,
        /// The static home that adopted the page.
        to: NodeId,
    },
    /// A client PIT entry was scrambled by a scheduled fault.
    PitCorrupted {
        /// The node whose PIT was corrupted.
        node: NodeId,
    },
    /// A line was wedged in the Transit tag by a scheduled fault.
    TransitWedge {
        /// The node holding the wedged line.
        node: NodeId,
    },
    /// The watchdog recovered a wedged line.
    WatchdogRecovery {
        /// The node whose line was recovered.
        node: NodeId,
        /// True when recovery required re-mastering the page.
        remastered: bool,
    },
    /// The online coherence auditor completed a sweep.
    AuditSweep {
        /// Findings recorded by this sweep (new ones only).
        findings: u64,
    },
}

/// The machine-wide observability bus (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct EventBus {
    counters: [u64; CTRS],
    ring: EventRing<(Cycle, ObsEvent)>,
    /// Latency distribution of misses filled locally.
    pub(crate) local_fill_latency: Histogram,
    /// Latency distribution of remote fetches.
    pub(crate) remote_fetch_latency: Histogram,
    /// Latency distribution of page faults.
    pub(crate) fault_latency: Histogram,
    /// Fault-injection accounting; written through
    /// [`crate::machine::Machine::freport`] only while a plan is
    /// installed, so it stays all-zero on fault-free machines.
    pub(crate) fault: FaultReport,
    /// Findings accumulated by the online coherence auditor.
    pub(crate) findings: Vec<AuditFinding>,
    /// Completed auditor sweeps.
    pub(crate) sweeps: u64,
}

impl EventBus {
    pub(crate) fn new() -> EventBus {
        EventBus {
            counters: [0; CTRS],
            ring: EventRing::new(RING_CAPACITY),
            local_fill_latency: Histogram::new("local-fill"),
            remote_fetch_latency: Histogram::new("remote-fetch"),
            fault_latency: Histogram::new("page-fault"),
            fault: FaultReport::default(),
            findings: Vec::new(),
            sweeps: 0,
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub(crate) fn incr(&mut self, c: Ctr) {
        self.counters[c as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub(crate) fn add(&mut self, c: Ctr, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Current counter value.
    #[inline]
    pub(crate) fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Publishes a structural event to the ring.
    pub(crate) fn emit(&mut self, at: Cycle, ev: ObsEvent) {
        self.ring.push((at, ev));
    }

    /// Retained structural events, oldest first.
    pub(crate) fn recent(&self) -> Vec<(Cycle, ObsEvent)> {
        self.ring.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_by_index() {
        let mut bus = EventBus::new();
        bus.incr(Ctr::RemoteMisses);
        bus.add(Ctr::RemoteMisses, 2);
        assert_eq!(bus.get(Ctr::RemoteMisses), 3);
        assert_eq!(bus.get(Ctr::TotalRefs), 0);
    }

    #[test]
    fn ring_retains_structural_events() {
        let mut bus = EventBus::new();
        bus.emit(Cycle(7), ObsEvent::NodeFailed { node: NodeId(2) });
        let evs = bus.recent();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].0, Cycle(7));
        assert_eq!(evs[0].1, ObsEvent::NodeFailed { node: NodeId(2) });
    }
}
